import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    impute_values_per_row,
    load_csv_per_cell,
    make_folds_per_sample,
    row_distances,
)
from twinlearn import data
from twinlearn.data import (
    DataError,
    Dataset,
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


def _outcome(load, path, **kwargs):
    """A load's DataError message, or its dataset's bytes and label names."""
    try:
        ds = load(path, **kwargs)
    except DataError as exc:
        return str(exc)
    missing = None if ds.missing is None else ds.missing.tobytes()
    return (ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(), missing,
            ds.label_names)


CELLS = ["", " ", "nan", "inf", "-inf", "1e309", "1e308", "abc", "1_0", "0.5", "-2",
         " 3.25 ", "-0.0", "5e-324"]
LABELS = ["0", "1", "-1", "", " 2 ", "yes", "nan"]


@st.composite
def csv_tables(draw):
    """(text, has_header, label_column): a small table with mutated cells,
    ragged rows and empty labels, the label at any position, named by
    header or by an index that may be out of range."""
    width = draw(st.integers(1, 4))
    pos = draw(st.integers(0, width - 1))
    has_header = draw(st.booleans())
    lines = []
    if has_header:
        lines.append([f"f{j}" for j in range(width)])
        lines[0][pos] = "label"
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(st.sampled_from(CELLS)) for _ in range(width)]
        row[pos] = draw(st.sampled_from(LABELS))
        ragged = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        lines.append(row[:-1] if ragged < 0 else row + ["1"] * ragged)
    text = "".join(",".join(line) + "\n" for line in lines)
    label_column = draw(st.sampled_from(["label", "other", pos, pos - width, width]))
    return text, has_header, label_column


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

    @settings(max_examples=300, deadline=None)
    @given(table=csv_tables())
    @example(table=("", True, "label"))
    @example(table=("f0,f1\n1,2\n", True, "label"))
    @example(table=("1,2\n", False, "label"))
    @example(table=("f0,label\n", True, "label"))
    @example(table=("1,2\n", False, 2))
    @example(table=("f0,label\n1,0\n1,2,0\n", True, "label"))
    @example(table=("f0,label\n1, \n", True, "label"))
    @example(table=("f0,label\n1_0,0\n1,2 3\n", True, 0))
    @example(table=("f0,label\n1e309,0\n", True, "label"))
    @example(table=("label\n0\n", True, "label"))
    @example(table=("f0,f1,label\ninf,abc,0\n", True, "label"))
    @example(table=(" ,1_0,yes\n1e308,-0.0,no\n", False, -1))
    def test_equals_the_per_cell_parser(self, table):
        text, has_header, label_column = table
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp) / "d.csv", text)
            got, want = (_outcome(load, path, label_column=label_column, has_header=has_header)
                         for load in (load_csv, load_csv_per_cell))
        assert got == want

    @pytest.mark.parametrize("named_labels", [False, True])
    def test_save_then_load_keeps_every_byte(self, tmp_path, named_labels):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((60, 5)) * 10.0 ** rng.integers(-300, 300, (60, 5))
        feats[0, 0], feats[1, 1] = -0.0, 5e-324
        mask = rng.random(feats.shape) < 0.2
        ds = Dataset(np.where(mask, np.nan, feats), np.repeat([3, 7, 9], 20), mask,
                     {3: "three", 7: "7", 9: "nine"})
        path = tmp_path / "out.csv"
        save_csv(ds, path, named_labels=named_labels)
        back = load_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.missing.tobytes() == mask.tobytes()
        if named_labels:
            assert [back.display_label(v) for v in back.labels] == \
                [ds.display_label(v) for v in ds.labels]
        else:
            assert back.labels.tobytes() == ds.labels.tobytes()


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

    def test_a_feature_with_no_observed_value_is_a_data_error(self):
        # raised before numpy's nanmin could warn of an all-NaN column
        feats = np.array([[0.0, np.nan], [1.0, np.nan]])
        ds = Dataset(feats, [0, 1], np.isnan(feats))
        with pytest.raises(DataError, match=r"features \[1\] have no observed values"):
            fit_scaling(ds)

    def test_mismatched_feature_count(self):
        ds = Dataset(np.ones((2, 2)), [0, 1])
        params = fit_scaling(Dataset(np.ones((2, 3)), [0, 1]))
        with pytest.raises(ShapeError):
            apply_scaling(ds, params)

    def test_a_finite_fit_set_scales_finite_near_the_float_limit(self):
        # 2 * (1e308 - -1) overflows; scaling divides before it doubles
        ds = Dataset(np.array([[-1.0, 0.0], [1e308, 1.0], [0.0, 0.5]]), [0, 1, 0])
        scaled = apply_scaling(ds, fit_scaling(ds))
        np.testing.assert_array_equal(scaled.features, [[-1.0, -1.0], [1.0, 1.0], [-1.0, 0.0]])

    def test_an_observed_cell_past_float_range_is_refused(self):
        train = Dataset(np.array([[0.0, 0.0, 0.0], [1.0, 1e-300, 1.0]]), [0, 1])
        feats = np.array([[np.nan, 1e10, 0.5], [0.5, 0.5, np.nan]])
        test = Dataset(feats, [0, 1], np.isnan(feats))
        with pytest.raises(DataError, match=r"^feature 1 scales past float range$"):
            apply_scaling(test, fit_scaling(train))

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=12),
           width=st.integers(1, 3))
    def test_finite_values_keep_the_bits_of_the_doubling_first_formula(self, cells, width):
        feats = np.array(cells[: len(cells) // width * width]).reshape(-1, width)
        params = fit_scaling(Dataset(feats[::2], np.zeros(len(feats[::2]))))
        span = params.maximum - params.minimum
        with np.errstate(over="ignore", invalid="ignore"):
            old = 2.0 * (feats - params.minimum) / np.where(span == 0, 1.0, span) - 1.0
        old[:, span == 0] = 0.0
        if np.isfinite(old).all():
            scaled = apply_scaling(Dataset(feats, np.zeros(len(feats))), params)
            assert scaled.features.tobytes() == old.tobytes()


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


def _imputation_case(seed, m, n_targets, n_donors, decimals, share,
                     blank_rows, isolated, exclude_self):
    """(target values, target mask, donor values, donor mask) with NaN in
    the missing cells.  Values are rounded to ``decimals`` so that equal
    distances are common; the last ``blank_rows`` target rows miss every
    feature; with ``isolated`` (and M >= 2) the first target row observes
    only feature 0, which no donor but itself observes, so it shares no
    feature with any donor; without ``exclude_self`` the other targets
    then observe feature 0 and none is blank, as no donor could fill it.
    The donors are the targets when ``exclude_self``."""
    rng = np.random.default_rng(seed)
    target = np.round(rng.standard_normal((n_targets, m)), decimals)
    t_mask = rng.random((n_targets, m)) < share
    if exclude_self:
        donors, d_mask = target, t_mask
    else:
        donors = np.round(rng.standard_normal((n_donors, m)), decimals)
        d_mask = rng.random((n_donors, m)) < share
    # every feature is observed by some donor outside the rows forced below
    free = np.arange(1 if isolated else 0, d_mask.shape[0] - (blank_rows if exclude_self else 0))
    for j in range(m):
        if free.size and d_mask[free, j].all():
            d_mask[rng.choice(free), j] = False
    if isolated and m >= 2:
        if not exclude_self:
            t_mask[:, 0] = False
            blank_rows = 0
        d_mask[:, 0] = True
        t_mask[0] = True
        t_mask[0, 0] = False
    if blank_rows:
        t_mask[-blank_rows:] = True
    t_values = np.where(t_mask, np.nan, target)
    d_values = t_values if exclude_self else np.where(d_mask, np.nan, donors)
    return t_values, t_mask, d_values, d_mask


class TestBlockedImputation:
    """The blocked pass against the per-row reference in conftest."""

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), k=st.integers(1, 12),
           n_targets=st.integers(1, 60), n_donors=st.integers(1, 300),
           decimals=st.integers(0, 2), share=st.floats(0.0, 0.9),
           blank_rows=st.integers(0, 3), isolated=st.booleans(),
           exclude_self=st.booleans())
    # M < 8 (planes summed in turn) and M >= 8 (one contiguous row sum)
    @example(seed=1, m=5, k=3, n_targets=40, n_donors=80, decimals=1, share=0.3,
             blank_rows=0, isolated=False, exclude_self=False)
    @example(seed=2, m=11, k=3, n_targets=40, n_donors=80, decimals=1, share=0.3,
             blank_rows=0, isolated=False, exclude_self=True)
    # k >= 8: numpy's mean of 8 or more donors uses its 8-accumulator sum
    @example(seed=3, m=4, k=11, n_targets=30, n_donors=120, decimals=2, share=0.2,
             blank_rows=0, isolated=False, exclude_self=False)
    # integer values: many equal distances, also at the k-th nearest donor
    @example(seed=4, m=3, k=4, n_targets=50, n_donors=50, decimals=0, share=0.3,
             blank_rows=0, isolated=False, exclude_self=True)
    # rows missing every feature
    @example(seed=5, m=6, k=2, n_targets=20, n_donors=40, decimals=1, share=0.3,
             blank_rows=3, isolated=False, exclude_self=False)
    @example(seed=6, m=9, k=2, n_targets=20, n_donors=20, decimals=1, share=0.3,
             blank_rows=2, isolated=False, exclude_self=True)
    # a row that shares no observed feature with any donor: feature means
    @example(seed=7, m=4, k=3, n_targets=20, n_donors=30, decimals=1, share=0.2,
             blank_rows=0, isolated=True, exclude_self=False)
    @example(seed=8, m=8, k=3, n_targets=25, n_donors=25, decimals=1, share=0.2,
             blank_rows=1, isolated=True, exclude_self=True)
    # k larger than the donor count
    @example(seed=9, m=3, k=12, n_targets=10, n_donors=5, decimals=1, share=0.3,
             blank_rows=0, isolated=False, exclude_self=False)
    @example(seed=10, m=10, k=12, n_targets=6, n_donors=6, decimals=1, share=0.3,
             blank_rows=0, isolated=False, exclude_self=True)
    # several blocks: 27 rows per block at 600 donors, M < 8; 8 at 200, M = 10
    @example(seed=11, m=3, k=5, n_targets=60, n_donors=600, decimals=1, share=0.4,
             blank_rows=1, isolated=False, exclude_self=False)
    @example(seed=12, m=10, k=5, n_targets=60, n_donors=200, decimals=1, share=0.4,
             blank_rows=1, isolated=False, exclude_self=False)
    def test_bit_identical_to_per_row_reference(self, seed, m, k, n_targets, n_donors,
                                                decimals, share, blank_rows, isolated,
                                                exclude_self):
        case = _imputation_case(seed, m, n_targets, n_donors, decimals, share,
                                min(blank_rows, n_targets), isolated, exclude_self)
        t_values, t_mask, d_values, d_mask = case
        # the distances themselves, so that a summation order that happens
        # to pick the same donors still shows
        rows = np.flatnonzero(t_mask.any(axis=1))
        got = data._block_distances(np.where(t_mask[rows], 0.0, t_values[rows]), ~t_mask[rows],
                                    np.where(d_mask, 0.0, d_values).T.copy(), ~d_mask.T)
        want = [row_distances(t_values[i], t_mask[i], d_values, d_mask) for i in rows]
        assert got.tobytes() == np.reshape(want, got.shape).tobytes()
        # the reference skips a row as its own donor when ``exclude_self``;
        # `_impute_values` needs no such guard, as that row misses the feature
        try:
            want = impute_values_per_row(*case, k, exclude_self)
        except DataError:
            # both stop at a feature no donor observes, not always the same one
            with pytest.raises(DataError, match="has no donors to impute from"):
                data._impute_values(*case, k)
            return
        assert data._impute_values(*case, k).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, exclude_self", [(4, True), (4, False), (9, True)])
    def test_one_distance_pass_per_block(self, monkeypatch, m, exclude_self):
        t_values, t_mask, d_values, d_mask = _imputation_case(
            0, m, 300, 500, 2, 0.2, 2, False, exclude_self)
        blocks = []
        block_distances = data._block_distances

        def counted(values, *rest):
            blocks.append(values.shape[0])
            return block_distances(values, *rest)

        monkeypatch.setattr(data, "_block_distances", counted)
        data._impute_values(t_values, t_mask, d_values, d_mask, 5)
        incomplete = int(t_mask.any(axis=1).sum())
        step = data._block_rows(d_values.shape[0], m)
        assert 1 < step < incomplete
        assert len(blocks) == math.ceil(incomplete / step)
        assert blocks[:-1] == [step] * (len(blocks) - 1)
        assert not hasattr(data, "_row_distances")


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

    @settings(max_examples=60, deadline=None)
    @given(extra=st.lists(st.integers(0, 300), min_size=1, max_size=4), k=st.integers(2, 10),
           repeat=st.integers(1, 3), seed=st.integers(0, 2**64 - 1))
    def test_equals_the_per_sample_loop(self, extra, k, repeat, seed):
        labels = np.repeat(np.arange(len(extra)) * 3 - 2, [k + e for e in extra])
        labels = np.random.default_rng(seed).permutation(labels)
        ds = Dataset(np.zeros((labels.size, 1)), labels)
        np.testing.assert_array_equal(make_folds(ds, k, repeat, seed).assignments,
                                      make_folds_per_sample(ds, k, repeat, seed))


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
