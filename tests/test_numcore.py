import numpy as np
import pytest

from twinlearn.numcore import (
    FactorizationError,
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
            solve_spd(np.ones((2, 3)), [1.0, 2.0])

    def test_asymmetric(self):
        with pytest.raises(ShapeError):
            solve_spd([[1.0, 5.0], [0.0, 1.0]], [1.0, 1.0])

    def test_not_positive_definite_mentions_ridge(self):
        with pytest.raises(FactorizationError, match="ridge"):
            solve_spd([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0], ridge=0.0)

    def test_default_ridge_regularizes_singular(self):
        # rank-deficient + default ridge is solvable
        m = np.ones((3, 3))
        x = solve_spd(m, [1.0, 1.0, 1.0])
        assert np.all(np.isfinite(x))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(2), [1.0, 1.0], ridge=-1e-3)


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
        assert Rng(123).permutation(10).tolist() == [2, 0, 1, 6, 5, 4, 3, 8, 9, 7]
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
