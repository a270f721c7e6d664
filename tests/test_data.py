import numpy as np
import pytest

from twinlearn.data import (
    DataError,
    Dataset,
    FoldPlan,
    apply_scaling,
    fit_scaling,
    knn_impute,
    knn_impute_from,
    load_csv,
    load_libsvm,
    make_folds,
    make_imbalanced,
    save_csv,
)
from twinlearn.numcore import ShapeError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestDataset:
    def test_mask_nan_consistency_enforced(self):
        feats = np.array([[1.0, np.nan], [2.0, 3.0]])
        mask = np.array([[False, True], [False, False]])
        ds = Dataset(feats, [0, 1], mask)
        assert ds.missing.sum() == 1
        with pytest.raises(DataError):
            Dataset(feats, [0, 1])  # NaN without mask
        with pytest.raises(DataError):
            Dataset(np.ones((2, 2)), [0, 1], mask)  # mask without NaN

    def test_immutable(self):
        ds = Dataset(np.ones((2, 2)), [0, 1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_class_ids_sorted(self):
        ds = Dataset(np.ones((4, 1)), [3, 1, 3, 2])
        assert ds.class_ids.tolist() == [1, 2, 3]

    def test_rows_subset(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), [0, 1, 2])
        sub = ds.rows([2, 0])
        np.testing.assert_array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])
        assert sub.labels.tolist() == [2, 0]


class TestLoadCsv:
    def test_missing_cell_sets_mask(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,label\n1,2,0\n3,,1\n5,6,0\n")
        ds = load_csv(p)
        assert ds.missing is not None
        assert int(ds.missing.sum()) == 1
        assert bool(ds.missing[1, 1])
        assert np.isnan(ds.features[1, 1])

    def test_header_only_errors(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p)

    def test_roundtrip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((10, 4)) * 1e3
        mask = rng.random((10, 4)) < 0.2
        feats = np.where(mask, np.nan, feats)
        ds = Dataset(feats, rng.integers(0, 3, 10), mask if mask.any() else None)
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        back = load_csv(path)
        observed = ~mask
        assert np.max(np.abs(back.features[observed] - ds.features[observed])) <= 1e-12
        np.testing.assert_array_equal(back.labels, ds.labels)
        if mask.any():
            np.testing.assert_array_equal(back.missing, mask)

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,label\nx,0\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(p)

    def test_nan_token_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,label\nnan,0\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(p)

    def test_unknown_label_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(DataError, match="unknown label column"):
            load_csv(p, label_column="y")

    def test_malformed_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,label\n1,2,0\n1,2\n")
        with pytest.raises(DataError, match="malformed row"):
            load_csv(p)

    def test_integral_labels_keep_values(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,label\n1,-1\n2,1\n3,-1\n")
        ds = load_csv(p)
        assert ds.labels.tolist() == [-1, 1, -1]

    def test_string_labels_densely_mapped(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,label\n1,yes\n2,no\n3,yes\n")
        ds = load_csv(p)
        assert ds.labels.tolist() == [1, 0, 1]
        assert ds.label_names == {0: "no", 1: "yes"}

    def test_non_finite_labels_densely_mapped(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,label\n1,inf\n2,1\n3,-inf\n4,1\n")
        ds = load_csv(p)
        assert ds.labels.tolist() == [2, 1, 0, 1]
        assert ds.label_names == {0: "-inf", 1: "1", 2: "inf"}

    def test_label_column_by_index_no_header(self, tmp_path):
        p = write(tmp_path / "d.csv", "1,2,0\n3,4,1\n")
        ds = load_csv(p, label_column=-1, has_header=False)
        assert ds.labels.tolist() == [0, 1]
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


class TestLoadLibsvm:
    def test_basic_line(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 1:0.5 3:2.0\n-1 2:1.0\n")
        ds = load_libsvm(p)
        np.testing.assert_array_equal(ds.features, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert ds.labels.tolist() == [1, -1]
        assert ds.missing is None

    def test_empty_lines_skipped(self, tmp_path):
        p = write(tmp_path / "d.svm", "\n1 1:1.0\n\n-1 1:2.0\n\n")
        ds = load_libsvm(p)
        assert ds.n_samples == 2

    def test_dimension_from_max_index(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 16:1.0\n-1 2:3.0\n")
        assert load_libsvm(p).n_features == 16

    def test_non_ascending_indices(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 3:1.0 2:1.0\n")
        with pytest.raises(DataError, match="ascending"):
            load_libsvm(p)

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1.5", "1e19"])
    def test_label_not_an_int64_integer(self, tmp_path, label):
        p = write(tmp_path / "d.svm", f"1 1:1.0\n{label} 1:2.0\n")
        with pytest.raises(DataError, match="line 2: label"):
            load_libsvm(p)

    def test_unparsable_token(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 1:x\n")
        with pytest.raises(DataError, match="unparsable token"):
            load_libsvm(p)


class TestScaling:
    def test_affine_endpoints(self):
        ds = Dataset(np.array([[0.0], [5.0], [10.0]]), [0, 1, 0])
        scaled = apply_scaling(ds, fit_scaling(ds))
        np.testing.assert_array_equal(scaled.features[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_feature_maps_to_zero(self):
        ds = Dataset(np.array([[7.0, 1.0], [7.0, 2.0]]), [0, 1])
        scaled = apply_scaling(ds, fit_scaling(ds))
        np.testing.assert_array_equal(scaled.features[:, 0], [0.0, 0.0])

    def test_fit_set_maps_exactly_to_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ds = Dataset(rng.standard_normal((12, 5)) * rng.uniform(0.1, 100),
                         rng.integers(0, 2, 12))
            scaled = apply_scaling(ds, fit_scaling(ds))
            np.testing.assert_array_equal(scaled.features.min(axis=0), -np.ones(5))
            np.testing.assert_array_equal(scaled.features.max(axis=0), np.ones(5))

    def test_out_of_range_not_clamped(self):
        train = Dataset(np.array([[0.0], [10.0]]), [0, 1])
        params = fit_scaling(train)
        test = Dataset(np.array([[20.0]]), [0])
        assert apply_scaling(test, params).features[0, 0] == 3.0

    def test_fit_ignores_missing(self):
        feats = np.array([[0.0], [np.nan], [10.0]])
        ds = Dataset(feats, [0, 1, 0], np.isnan(feats))
        params = fit_scaling(ds)
        assert params.minimum[0] == 0.0 and params.maximum[0] == 10.0
        scaled = apply_scaling(ds, params)
        assert np.isnan(scaled.features[1, 0])
        assert bool(scaled.missing[1, 0])

    def test_mismatched_feature_count(self):
        ds = Dataset(np.ones((2, 2)), [0, 1])
        params = fit_scaling(Dataset(np.ones((2, 3)), [0, 1]))
        with pytest.raises(ShapeError):
            apply_scaling(ds, params)


class TestKnnImpute:
    def test_complete_dataset_identity(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0])
        out = knn_impute(ds, 2)
        np.testing.assert_array_equal(out.features, ds.features)
        assert out.missing is None

    def test_idempotent(self):
        feats = np.array([[1.0, np.nan], [2.0, 3.0], [0.0, 5.0]])
        ds = Dataset(feats, [0, 1, 0], np.isnan(feats))
        once = knn_impute(ds, 2)
        twice = knn_impute(once, 2)
        np.testing.assert_array_equal(once.features, twice.features)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, m = rng.integers(4, 9), rng.integers(2, 5)
            feats = rng.standard_normal((n, m))
            mask = rng.random((n, m)) < 0.25
            # keep every feature observed somewhere and every row partial
            mask[:, mask.all(axis=0)] = False
            for j in np.flatnonzero(mask.all(axis=0)):
                mask[0, j] = False
            if not mask.any():
                mask[0, 0] = True
            feats = np.where(mask, np.nan, feats)
            ds = Dataset(feats, rng.integers(0, 2, n), mask)
            k = int(rng.integers(1, 4))
            out = knn_impute(ds, k)
            for i, j in zip(*np.nonzero(mask)):
                # exhaustive recomputation of donor distances
                cand = []
                for r in range(n):
                    if r == i or mask[r, j]:
                        continue
                    shared = ~mask[i] & ~mask[r]
                    if not shared.any():
                        continue
                    d = np.sqrt(((feats[i, shared] - feats[r, shared]) ** 2).sum()
                                / shared.sum())
                    cand.append((d, r))
                cand.sort(key=lambda t: (t[0], t[1]))
                chosen = [r for _, r in cand[:k]]
                if chosen:
                    expected = np.mean([feats[r, j] for r in chosen])
                else:
                    # documented fallback: mean over donors observing j
                    pool = [r for r in range(n) if r != i and not mask[r, j]]
                    expected = np.mean([feats[r, j] for r in pool])
                assert out.features[i, j] == pytest.approx(expected, abs=1e-12)

    def test_k_larger_than_donor_count_uses_all(self):
        feats = np.array([[np.nan, 1.0], [2.0, 1.0], [4.0, 1.0]])
        ds = Dataset(feats, [0, 1, 0], np.isnan(feats))
        out = knn_impute(ds, 50)
        assert out.features[0, 0] == pytest.approx(3.0)

    def test_feature_missing_everywhere_errors(self):
        feats = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        ds = Dataset(feats, [0, 1], np.isnan(feats))
        with pytest.raises(DataError, match="missing in every row"):
            knn_impute(ds, 1)

    def test_impute_from_external_donors(self):
        donors = Dataset(np.array([[0.0, 0.0], [2.0, 2.0]]), [0, 1])
        feats = np.array([[0.1, np.nan]])
        target = Dataset(feats, [0], np.isnan(feats))
        out = knn_impute_from(target, donors, k=1)
        assert out.features[0, 1] == 0.0  # nearest donor is the first row
        assert out.missing is None


class TestMakeFolds:
    def test_forced_stratification(self):
        ds = Dataset(np.arange(20.0).reshape(10, 2), [1] * 5 + [0] * 5)
        plan = make_folds(ds, 5, 1, seed=0)
        for fold in range(5):
            _, test_idx = plan.fold_indices(0, fold)
            assert ds.labels[test_idx].tolist().count(1) == 1
            assert ds.labels[test_idx].tolist().count(0) == 1

    def test_deterministic(self):
        ds = Dataset(np.random.default_rng(0).standard_normal((30, 2)),
                     [0] * 15 + [1] * 15)
        a = make_folds(ds, 3, 4, seed=5)
        b = make_folds(ds, 3, 4, seed=5)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        c = make_folds(ds, 3, 4, seed=6)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.standard_normal((40, 2)),
                     rng.permutation([0] * 20 + [1] * 12 + [2] * 8))
        plan = make_folds(ds, 4, 3, seed=2)
        for r in range(3):
            seen = np.concatenate([plan.fold_indices(r, f)[1] for f in range(4)])
            assert sorted(seen.tolist()) == list(range(40))

    def test_per_class_fold_sizes_within_one(self):
        rng = np.random.default_rng(2)
        labels = rng.permutation([0] * 17 + [1] * 9 + [2] * 23)
        ds = Dataset(rng.standard_normal((49, 2)), labels)
        plan = make_folds(ds, 4, 5, seed=3)
        for r in range(5):
            for c in ds.class_ids:
                counts = [
                    int(np.sum(labels[plan.fold_indices(r, f)[1]] == c))
                    for f in range(4)
                ]
                assert max(counts) - min(counts) <= 1

    def test_small_class_errors(self):
        ds = Dataset(np.ones((6, 1)), [0, 0, 0, 0, 1, 1])
        with pytest.raises(DataError, match="class 1"):
            make_folds(ds, 3, 1, seed=0)

    def test_json_roundtrip(self):
        ds = Dataset(np.ones((8, 1)), [0] * 4 + [1] * 4)
        plan = make_folds(ds, 2, 2, seed=1)
        back = FoldPlan.from_dict(plan.as_dict())
        np.testing.assert_array_equal(back.assignments, plan.assignments)
        assert back.k == plan.k and back.seed == plan.seed


class TestMakeImbalanced:
    def test_one_vs_rest_ratio(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((300, 2)),
                     np.repeat([0, 1, 2], 100))
        out = make_imbalanced(ds, 0)
        counts = out.class_counts()
        assert counts == {-1: 200, 1: 100}

    def test_binary_relabel_only(self):
        ds = Dataset(np.ones((5, 1)), [7, 9, 9, 9, 7])
        out = make_imbalanced(ds, 7)
        assert out.labels.tolist() == [1, -1, -1, -1, 1]
        np.testing.assert_array_equal(out.features, ds.features)

    def test_counts_and_order_preserved(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.standard_normal((60, 3)), rng.integers(0, 3, 60))
        out = make_imbalanced(ds, 1)
        assert out.n_samples == ds.n_samples
        np.testing.assert_array_equal(out.features, ds.features)
        np.testing.assert_array_equal(out.labels == 1, ds.labels == 1)

    def test_unknown_class(self):
        ds = Dataset(np.ones((4, 1)), [0, 1, 0, 1])
        with pytest.raises(DataError, match="unknown class"):
            make_imbalanced(ds, 5)
