import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from twinlearn.evalstats import (
    _average_ranks,
    ConfusionMatrix,
    confusion,
    friedman,
    metrics,
    wilcoxon_signed_ranks,
)


class TestConfusion:
    def test_perfect_predictions(self):
        cm = confusion([1, -1, 1, -1], [1, -1, 1, -1])
        assert (cm.fp, cm.fn) == (0, 0)
        assert (cm.tp, cm.tn) == (2, 2)

    def test_all_inverted(self):
        cm = confusion([1, -1, 1], [-1, 1, -1])
        assert (cm.tp, cm.tn) == (0, 0)
        assert (cm.fp, cm.fn) == (1, 2)

    def test_counting_oracle(self):
        rng = np.random.default_rng(0)
        t = rng.choice([-1, 1], size=10_000)
        p = rng.choice([-1, 1], size=10_000)
        cm = confusion(t, p)
        counts = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
        for ti, pi in zip(t, p):
            if ti == 1 and pi == 1:
                counts["tp"] += 1
            elif ti == -1 and pi == -1:
                counts["tn"] += 1
            elif ti == -1 and pi == 1:
                counts["fp"] += 1
            else:
                counts["fn"] += 1
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (
            counts["tp"], counts["tn"], counts["fp"], counts["fn"])
        assert cm.total == 10_000

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, -1], [1])

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1, -1])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(-1, 0, 0, 0)


class TestMetrics:
    def test_perfect_classifier(self):
        r = metrics(ConfusionMatrix(tp=50, tn=50, fp=0, fn=0))
        assert r.acc == 1.0 and r.gmeans == 1.0
        assert r.fmeasure == 1.0 and r.mcc == 1.0

    def test_all_negative_predictor_degenerate_conventions(self):
        # positives exist but none predicted: G-means and MCC go to 0
        r = metrics(ConfusionMatrix(tp=0, tn=90, fp=0, fn=10))
        assert r.gmeans == 0.0
        assert r.mcc == 0.0
        assert r.fmeasure is None  # tpr = ppv undefined-or-zero
        assert r.ppv is None

    def test_mcc_hand_value(self):
        r = metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4))
        assert r.mcc == pytest.approx(10.0 / math.sqrt(600.0), rel=1e-15)

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_identities_over_random_matrices(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 50, size=(100_000, 4))
        counts = counts[counts.sum(axis=1) > 0]
        for tp, tn, fp, fn in counts[:5000]:
            r = metrics(ConfusionMatrix(int(tp), int(tn), int(fp), int(fn)))
            if r.tpr is not None and r.tnr is not None:
                assert r.gmeans**2 == pytest.approx(r.tpr * r.tnr, rel=1e-12, abs=1e-15)
            else:
                assert r.gmeans == 0.0
            if r.fmeasure is not None:
                assert r.fmeasure == pytest.approx(
                    2 * r.tpr * r.ppv / (r.tpr + r.ppv), rel=1e-12)
            assert r.mcc is not None and -1.0 <= r.mcc <= 1.0
            for value in (r.acc, r.tpr, r.tnr, r.ppv, r.npv, r.gmeans, r.fmeasure):
                if value is not None:
                    assert 0.0 <= value <= 1.0

    def test_role_swap_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 30, 4))
            if tp + tn + fp + fn == 0:
                continue
            a = metrics(ConfusionMatrix(tp, tn, fp, fn))
            b = metrics(ConfusionMatrix(tn, tp, fn, fp))
            assert a.acc == b.acc
            assert a.gmeans == b.gmeans
            assert a.mcc == b.mcc
            assert a.tpr == b.tnr and a.tnr == b.tpr
            assert a.ppv == b.npv and a.npv == b.ppv

    def test_report_serializes_none(self):
        r = metrics(ConfusionMatrix(tp=0, tn=5, fp=0, fn=5))
        d = r.as_dict()
        assert d["ppv"] is None
        assert d["gmeans"] == 0.0


def exact_wilcoxon_by_enumeration(a, b):
    """Literal 2^n enumeration oracle with scipy ranking, independent of
    the implementation's dynamic program."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0]
    ranks = rankdata(np.abs(d))
    w_plus = ranks[d > 0].sum()
    n = len(d)
    sums = []
    for signs in itertools.product([0, 1], repeat=n):
        sums.append(sum(r for s, r in zip(signs, ranks) if s))
    sums = np.asarray(sums)
    p_le = np.mean(sums <= w_plus + 1e-12)
    p_ge = np.mean(sums >= w_plus - 1e-12)
    return min(ranks[d > 0].sum(), ranks[d < 0].sum()), min(1.0, 2.0 * min(p_le, p_ge))


@given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0, math.inf]), max_size=30))
def test_average_ranks_equal_scipy_rankdata(values):
    # tied groups average their ranks; -0.0 ties with 0.0
    values = np.array(values)
    assert _average_ranks(values).tobytes() == rankdata(values).astype(np.float64).tobytes()


class TestWilcoxon:
    def test_all_equal_errors(self):
        a = np.arange(8.0)
        with pytest.raises(ValueError, match="zero"):
            wilcoxon_signed_ranks(a, a)

    def test_six_positive_differences(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = np.zeros(6)
        w, p = wilcoxon_signed_ranks(a, b)
        assert w == 0.0
        assert p == 2.0 / 2**6 == 0.03125

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for n in (5, 7, 9, 11, 15):
            for _ in range(8):
                a = rng.standard_normal(n)
                b = rng.standard_normal(n)
                if rng.random() < 0.5:
                    # force rank ties through duplicated difference magnitudes
                    b[1] = a[1] - (a[0] - b[0])
                d = a - b
                if (d == 0).any() or np.count_nonzero(d) < 5:
                    continue
                w_impl, p_impl = wilcoxon_signed_ranks(a, b)
                w_oracle, p_oracle = exact_wilcoxon_by_enumeration(a, b)
                assert w_impl == pytest.approx(w_oracle, abs=1e-12)
                assert p_impl == pytest.approx(p_oracle, abs=1e-12)

    def test_normal_approximation_close_to_exact_at_n15(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal(15)
            b = rng.standard_normal(15)
            _, p_exact = wilcoxon_signed_ranks(a, b, method="exact")
            _, p_normal = wilcoxon_signed_ranks(a, b, method="normal")
            assert abs(p_exact - p_normal) < 0.005

    def test_auto_switches_to_normal_above_20(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(25)
        b = rng.standard_normal(25)
        _, p_auto = wilcoxon_signed_ranks(a, b)
        _, p_normal = wilcoxon_signed_ranks(a, b, method="normal")
        assert p_auto == p_normal

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        w1, p1 = wilcoxon_signed_ranks(a, b)
        w2, p2 = wilcoxon_signed_ranks(1000.0 * a, 1000.0 * b)
        assert w1 == w2 and p1 == p2

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(5, 30))
            a = rng.standard_normal(n)
            b = a + rng.standard_normal(n) * 0.1
            _, p = wilcoxon_signed_ranks(a, b)
            assert 0.0 < p <= 1.0

    def test_insufficient_pairs(self):
        with pytest.raises(ValueError, match="insufficient"):
            wilcoxon_signed_ranks([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])

    def test_mostly_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        b = a.copy()
        b[:3] -= 1.0
        with pytest.raises(ValueError, match="insufficient"):
            wilcoxon_signed_ranks(a, b)


class TestFriedman:
    def test_identical_columns(self):
        scores = np.tile([[0.5], [0.7], [0.8]], (1, 4))
        chi2, p = friedman(scores)
        assert chi2 == 0.0
        assert p == 1.0

    def test_hand_computed_case(self):
        # one algorithm always best, one middle, one worst over 4 datasets
        scores = np.array([[3.0, 2.0, 1.0]] * 4)
        chi2, p = friedman(scores)
        assert chi2 == pytest.approx(8.0, abs=1e-12)
        assert p == pytest.approx(math.exp(-4.0), abs=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal((6, 4))
        chi2, _ = friedman(scores)
        chi2_perm, _ = friedman(scores[:, [2, 0, 3, 1]])
        assert chi2 == pytest.approx(chi2_perm, rel=1e-12)

    def test_degenerate_shapes(self):
        with pytest.raises(ValueError):
            friedman(np.ones((1, 3)))
        with pytest.raises(ValueError):
            friedman(np.ones((3, 1)))

    def test_ties_use_average_ranks(self):
        scores = np.array([[1.0, 1.0, 2.0], [1.0, 2.0, 2.0], [0.0, 1.0, 2.0]])
        chi2, p = friedman(scores)
        ranks = np.vstack([rankdata(row) for row in scores])
        mean_ranks = ranks.mean(axis=0)
        k, n = 3, 3
        expected = 12.0 * n / (k * (k + 1)) * (np.sum(mean_ranks**2) - k * (k + 1) ** 2 / 4)
        assert chi2 == pytest.approx(expected, rel=1e-12)
