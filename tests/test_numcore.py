import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from twinlearn import numcore
from twinlearn.numcore import (
    FactorizationError,
    NumericalError,
    Rng,
    ShapeError,
    mix_seed,
    solve_spd,
)


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(4), [1.0, 2.0, 3.0, 4.0], ridge=0.0)
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0, 4.0], rtol=0, atol=1e-14)

    def test_diagonal(self):
        x = solve_spd([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0], ridge=0.0)
        np.testing.assert_allclose(x, [1.0, 2.0], rtol=0, atol=1e-14)

    def test_multiply_back_residual_many_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = rng.integers(1, 21)
            a = rng.standard_normal((n, n))
            m = a.T @ a + np.eye(n)
            m = (m + m.T) / 2.0
            rhs = rng.standard_normal(n)
            x = solve_spd(m, rhs, ridge=0.0)
            residual = np.max(np.abs(m @ x - rhs))
            assert residual <= 1e-8 * (1.0 + np.max(np.abs(rhs)))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        m = a.T @ a + np.eye(5)
        m = (m + m.T) / 2.0
        rhs = rng.standard_normal((5, 4))
        x = solve_spd(m, rhs, ridge=0.0)
        assert np.max(np.abs(m @ x - rhs)) <= 1e-8 * (1.0 + np.max(np.abs(rhs)))

    def test_non_square(self):
        with pytest.raises(ShapeError):
            solve_spd(np.ones((2, 3)), [1.0, 2.0], ridge=0.0)

    def test_asymmetric(self):
        with pytest.raises(ShapeError):
            solve_spd([[1.0, 5.0], [0.0, 1.0]], [1.0, 1.0], ridge=0.0)

    def test_not_positive_definite_mentions_ridge(self):
        with pytest.raises(FactorizationError, match="ridge"):
            solve_spd([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0], ridge=0.0)

    def test_default_ridge_regularizes_singular(self):
        # rank-deficient + default ridge is solvable
        m = np.ones((3, 3))
        x = solve_spd(m, [1.0, 1.0, 1.0], ridge=numcore.default_ridge(m))
        assert np.all(np.isfinite(x))

    def test_the_ridge_is_required(self):
        # the twin SVM's default ridge is worked out in one place, its caller
        with pytest.raises(TypeError):
            solve_spd(np.eye(2), [1.0, 1.0])

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(2), [1.0, 1.0], ridge=-1e-3)

    @pytest.mark.parametrize("rhs", [[1e308, 1.0], [[1e308, 1.0], [1.0, 1.0]]])
    def test_a_solution_past_float_range_is_refused_without_a_warning(self, rhs):
        # run under pytest's error::RuntimeWarning filter, so a warning fails it
        with pytest.raises(NumericalError, match="passes the float range") as caught:
            solve_spd([[1e-10, 0.0], [0.0, 1.0]], rhs, ridge=0.0)
        assert not isinstance(caught.value, FactorizationError)

    def test_perturbed_solution_refused(self, monkeypatch):
        # a triangular solve that is off by 1e-3 in every entry is no rounding error
        solve = numcore._tri_solve
        monkeypatch.setattr(numcore, "_tri_solve",
                            lambda t, inverses, b, lower: solve(t, inverses, b, lower) + 1e-3)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        m = a.T @ a + np.eye(5)
        m = (m + m.T) / 2.0
        for rhs in (rng.standard_normal(5), rng.standard_normal((5, 3))):
            with pytest.raises(FactorizationError, match="exceeds bound"):
                solve_spd(m, rhs, ridge=0.0)


def _backward_error(a, x, b):
    """Normwise backward error of each right-hand side's solution, the
    largest: |a x - b| / (|a| |x| + |b|) in the infinity norm."""
    n = a.shape[0]
    residual, x_max, b_max = (np.max(np.abs(v.reshape(n, -1)), axis=0) for v in (a @ x - b, x, b))
    return float(np.max(residual / (np.max(np.sum(np.abs(a), axis=1)) * x_max + b_max)))


# one and two rows, and either side of one and of two triangular-solve blocks
_SIZES = [1, 2, numcore.TRI_BLOCK - 1, numcore.TRI_BLOCK, numcore.TRI_BLOCK + 1,
          2 * numcore.TRI_BLOCK + 3]


def _spd(n, seed, log_cond, scale):
    """A random symmetric matrix with eigenvalues from ``scale`` down to
    ``scale / 10**log_cond``, spread evenly on a log scale."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * (scale * np.logspace(0.0, -log_cond, n))) @ q.T
    return (a + a.T) / 2.0, rng


class TestSolveSpdProperties:
    """solve_spd against scipy's Cholesky solve, a test oracle only."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           log_cond=st.floats(0.0, 10.0), scale=st.sampled_from([1e-3, 1.0, 1e4]),
           columns=st.sampled_from([None, 1, 3]), ridge=st.sampled_from([0.0, None]))
    def test_backward_error_within_scipy_cho_solve_bound(self, n, seed, log_cond, scale,
                                                         columns, ridge):
        a, rng = _spd(n, seed, log_cond, scale)
        b = rng.standard_normal(n if columns is None else (n, columns))
        ridge = numcore.default_ridge(a) if ridge is None else ridge
        x = solve_spd(a, b, ridge=ridge)
        assert x.shape == b.shape
        ridged = a + ridge * np.eye(n)
        reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(ridged, lower=True), b)
        eps = np.finfo(np.float64).eps
        # as backward stable as scipy's solve: at most ten times its backward error, or n*eps
        assert _backward_error(ridged, x, b) <= max(10.0 * _backward_error(ridged, reference, b),
                                                    n * eps)
        # so the two solutions differ by no more than the condition number allows
        cond = np.linalg.cond(ridged, np.inf)
        gap = np.max(np.abs(x - reference)) / np.max(np.abs(reference))
        assert gap <= 100.0 * n * eps * cond

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from(_SIZES), seed=st.integers(0, 2**32 - 1),
           log_cond=st.floats(0.0, 10.0), columns=st.sampled_from([None, 3]))
    def test_not_positive_definite_raises(self, n, seed, log_cond, columns):
        a, rng = _spd(n, seed, log_cond, 1.0)
        a -= 1e-3 * np.eye(n) + np.linalg.eigvalsh(a)[0] * np.eye(n)  # smallest eigenvalue -1e-3
        b = rng.standard_normal(n if columns is None else (n, columns))
        with pytest.raises(FactorizationError, match="not positive definite"):
            solve_spd(a, b, ridge=0.0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42)
        b = Rng(42)
        assert [a._next_u64() for _ in range(100)] == [b._next_u64() for _ in range(100)]

    def test_golden_values_pin_the_stream(self):
        # frozen from the reference stream; guards cross-platform drift
        r = Rng(42)
        assert [r.random() for _ in range(3)] == [
            0.08386297105988216,
            0.3789802506626686,
            0.6800434110281394,
        ]
        assert Rng(42)._next_u64() == 1546998764402558742
        shuffled = np.arange(10)
        Rng(123).shuffle(shuffled)
        assert shuffled.tolist() == [2, 0, 1, 6, 5, 4, 3, 8, 9, 7]
        assert mix_seed(42, 0, 1) == 5350072072073812120

    def test_uniform_monte_carlo_mean(self):
        draws = Rng(7).uniform(0.0, 1.0, 100_000)
        assert abs(draws.mean() - 0.5) < 0.01
        assert draws.min() >= 0.0 and draws.max() < 1.0

    def test_uniform_range(self):
        draws = Rng(5).uniform(-2.0, 3.0, 1000)
        assert draws.min() >= -2.0 and draws.max() < 3.0

    def test_uniform_bad_range(self):
        with pytest.raises(ValueError):
            Rng(0).uniform(1.0, 1.0)

    def test_normal_matches_box_muller_recomputation(self):
        # independent re-application of the documented transform
        n = 6
        source = Rng(9)
        raw = [source._next_u64() for _ in range(n)]
        expected = []
        for i in range(0, n, 2):
            u1 = ((raw[i] >> 11) + 1) * 2.0**-53
            u2 = (raw[i + 1] >> 11) * 2.0**-53
            r = np.sqrt(-2.0 * np.log(u1))
            expected.append(r * np.cos(2.0 * np.pi * u2))
            expected.append(r * np.sin(2.0 * np.pi * u2))
        np.testing.assert_array_equal(Rng(9).normal(size=n), expected)

    def test_normal_moments(self):
        draws = Rng(21).normal(3.0, 2.0, 100_000)
        assert abs(draws.mean() - 3.0) < 0.05
        assert abs(draws.std() - 2.0) < 0.05

    def test_normal_bad_std(self):
        with pytest.raises(ValueError):
            Rng(0).normal(0.0, 0.0)

    def test_shuffle_is_permutation(self):
        values = list(range(10))
        r = Rng(3)
        r.shuffle(values)
        assert sorted(values) == list(range(10))

    def test_shuffle_deterministic(self):
        a = list(range(25))
        b = list(range(25))
        Rng(17).shuffle(a)
        Rng(17).shuffle(b)
        assert a == b

    def test_integers_bounds_and_coverage(self):
        r = Rng(11)
        draws = [r.integers(2, 7) for _ in range(500)]
        assert set(draws) == {2, 3, 4, 5, 6}

    def test_integers_bad_range(self):
        with pytest.raises(ValueError):
            Rng(0).integers(3, 3)


class TestMixSeed:
    def test_deterministic_and_key_sensitive(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
        assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
        assert mix_seed(1) != mix_seed(2)

    def test_negative_keys_fold(self):
        assert mix_seed(0, -1) == mix_seed(0, -1)
        assert mix_seed(0, -1) != mix_seed(0, 1)

    def test_numpy_ints_accepted(self):
        assert mix_seed(np.int64(5), np.int64(-2)) == mix_seed(5, -2)
