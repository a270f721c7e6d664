import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinlearn.twsvm as twsvm
from twinlearn.data import Dataset
from twinlearn.harness import ExperimentSpec, run_experiment
from twinlearn.numcore import ConvergenceError, ShapeError
from twinlearn.twsvm import (
    KernelSpec,
    TwsvmModel,
    TwsvmProblem,
    box_kkt_residual,
    dual_matrices,
    dual_objective,
    kernel_matrix,
    projected_gradient_box_max,
    solve_dual,
    twsvm_distances,
    twsvm_predict,
)


def random_problem(rng, n_a=6, n_b=3, m=2, c1=0.5, c2=0.5, ridge=1e-6):
    a = rng.standard_normal((n_a, m)) + np.array([1.5] + [0.0] * (m - 1))
    b = rng.standard_normal((n_b, m)) - np.array([1.5] + [0.0] * (m - 1))
    return TwsvmProblem(a, b, c1=c1, c2=c2, ridge=ridge)


def blob_rows(seed, n_plus, n_minus, centre):
    """Unit-variance blobs around +centre and -centre, drawn in that order."""
    rng = np.random.default_rng(seed)
    centre = np.asarray(centre, dtype=float)
    return (rng.normal(0.0, 1.0, (n_plus, centre.size)) + centre,
            rng.normal(0.0, 1.0, (n_minus, centre.size)) - centre)


class TestKernelMatrix:
    def test_rbf_diagonal_is_ones(self):
        x = np.random.default_rng(0).standard_normal((6, 3))
        k = kernel_matrix(KernelSpec("rbf", gamma=0.7), x, x)
        np.testing.assert_array_equal(np.diag(k), np.ones(6))

    def test_linear_orthonormal_rows_give_identity(self):
        k = kernel_matrix(KernelSpec("linear"), np.eye(4), np.eye(4))
        np.testing.assert_array_equal(k, np.eye(4))

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((4, 3))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=1.3)):
            k = kernel_matrix(spec, x, y)
            for i in range(5):
                for j in range(4):
                    if spec.kind == "linear":
                        expected = float(x[i] @ y[j])
                    else:
                        expected = float(np.exp(-1.3 * np.sum((x[i] - y[j]) ** 2)))
                    assert abs(k[i, j] - expected) <= 1e-12

    def test_gram_symmetric_psd(self):
        x = np.random.default_rng(2).standard_normal((8, 2))
        k = kernel_matrix(KernelSpec("rbf", gamma=2.0), x, x)
        assert np.max(np.abs(k - k.T)) <= 1e-10
        assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_matrix(KernelSpec("linear"), np.ones((2, 3)), np.ones((2, 4)))

    def test_rbf_needs_gamma(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf")


class TestProjectedGradient:
    def test_objective_nondecreasing(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        m = a.T @ a + 0.5 * np.eye(4)
        trace = []
        projected_gradient_box_max(m, c=2.0, trace=trace)
        assert all(y >= x - 1e-15 for x, y in zip(trace, trace[1:]))

    def test_interior_solution_matches_explicit_solve(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5))
        m = a.T @ a + np.eye(5)
        x = projected_gradient_box_max(m, c=1e6)
        explicit = np.linalg.solve(m, np.ones(5))
        assert np.max(np.abs(x - explicit)) <= 1e-6

    def test_iteration_cap_carries_best_iterate(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        m = a.T @ a + 0.1 * np.eye(6)
        with pytest.raises(ConvergenceError, match="iteration cap") as err:
            projected_gradient_box_max(m, c=10.0, max_iter=2)
        assert err.value.best is not None
        assert err.value.residual > 0

    def test_zero_box_returns_origin(self):
        np.testing.assert_array_equal(
            projected_gradient_box_max(np.eye(3), c=0.0), np.zeros(3))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), rank=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           duplicate=st.booleans(), zero=st.booleans(),
           scale=st.floats(0.1, 10.0),
           c=st.floats(0.0, 10.0, exclude_min=True))
    def test_random_psd_duals_reach_kkt_monotonically(self, n, rank, seed, duplicate,
                                                       zero, scale, c):
        # M = F'F: rank-deficient when F has fewer rows than columns, two
        # equal rows and columns from a copied column, a zero row from a
        # zero column
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((rank, n)) * scale
        if duplicate:
            f[:, -1] = f[:, 0]
        if zero:
            f[:, n // 2] = 0.0
        m = f.T @ f
        trace = []
        x = projected_gradient_box_max(m, c, trace=trace)
        assert np.all(x >= 0.0) and np.all(x <= c)
        assert box_kkt_residual(m, x, c) <= 1e-8
        # neither a coordinate step nor the polish can lower the objective;
        # the slack only absorbs rounding in evaluating it
        assert all(later >= earlier - 1e-12 * (1.0 + abs(earlier))
                   for earlier, later in zip(trace, trace[1:]))

    @pytest.mark.parametrize("n_plus, n_minus, centre, kernel, c1, bound", [
        (50, 1000, (1.0, 0.0, 0.0, 0.0), KernelSpec(), 1.0, 50),
        (40, 400, (1.0, 0.0, 0.0, 0.0), KernelSpec(), 1.0, 100),
        (20, 60, (1.0, 0.0), KernelSpec("rbf", gamma=1.0), 1.0, 200),
    ])
    def test_sweep_counts_stay_bounded(self, n_plus, n_minus, centre, kernel, c1, bound):
        # a work count, not a time: one trace entry per sweep
        a, b = blob_rows(0, n_plus, n_minus, centre)
        problem = TwsvmProblem(a, b, c1=c1, c2=1.0, kernel=kernel)
        for m, c in zip(dual_matrices(problem), (c1, 1.0)):
            trace = []
            x = projected_gradient_box_max(m, c, trace=trace)
            assert box_kkt_residual(m, x, c) <= 1e-8
            assert len(trace) <= bound


class TestSolveDual:
    def test_zero_bounds_collapse_to_origin(self):
        rng = np.random.default_rng(6)
        problem = random_problem(rng, c1=0.0, c2=0.0)
        model = solve_dual(problem)
        np.testing.assert_array_equal(model.alpha, np.zeros(3))
        np.testing.assert_array_equal(model.beta, np.zeros(6))
        np.testing.assert_array_equal(model.u, np.zeros(3))
        np.testing.assert_array_equal(model.v, np.zeros(3))

    def test_parallel_lines_toy_geometry(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 2.0], [1.0, 2.0]])
        model = solve_dual(TwsvmProblem(a, b, c1=10.0, c2=10.0, ridge=1e-8))
        # positive plane passes through both class +1 points
        dist_a = np.abs(a @ model.u[:-1] + model.u[-1]) / model.norm_plus
        assert np.max(dist_a) <= 1e-6
        # negative plane passes through both class -1 points
        dist_b = np.abs(b @ model.v[:-1] + model.v[-1]) / model.norm_minus
        assert np.max(dist_b) <= 1e-6

    def test_toy_midpoint_tie_goes_positive(self):
        # the exact geometric solution: plus plane y=0, minus plane y=2
        model = TwsvmModel(
            u=np.array([0.0, -0.5, 0.0]), v=np.array([0.0, 0.5, -1.0]),
            alpha=np.zeros(2), beta=np.zeros(2), kernel=KernelSpec("linear"),
            ridge_alpha=0.0, ridge_beta=0.0, n_features=2, support=None,
            norm_plus=0.5, norm_minus=0.5,
        )
        d_plus, d_minus = twsvm_distances(model, np.array([0.5, 1.0]))
        assert d_plus == d_minus
        assert twsvm_predict(model, np.array([0.5, 1.0])) == 1

    def test_objective_matches_grid_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            problem = random_problem(rng, n_a=6, n_b=3, c1=0.05, c2=0.05)
            model = solve_dual(problem)
            m_alpha, _ = dual_matrices(problem)
            axis = np.arange(0.0, 0.05 + 1e-12, 1e-3)
            grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
            pts = grid.reshape(-1, 3)
            values = pts.sum(axis=1) - 0.5 * np.einsum("ij,jk,ik->i", pts, m_alpha, pts)
            assert abs(dual_objective(m_alpha, model.alpha) - values.max()) <= 1e-5

    def test_kkt_box_complementarity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            problem = random_problem(rng, n_a=5, n_b=4, c1=0.8, c2=0.6)
            model = solve_dual(problem)
            m_alpha, m_beta = dual_matrices(problem)
            assert box_kkt_residual(m_alpha, model.alpha, 0.8) <= 1e-6
            assert box_kkt_residual(m_beta, model.beta, 0.6) <= 1e-6
            assert np.all(model.alpha >= 0) and np.all(model.alpha <= 0.8 + 1e-12)

    def test_duplicating_b_rows_with_halved_c1_keeps_u(self):
        rng = np.random.default_rng(9)
        problem = random_problem(rng, n_a=6, n_b=4, c1=0.9, c2=0.5, ridge=1e-6)
        model = solve_dual(problem)
        doubled = TwsvmProblem(problem.a, np.vstack([problem.b, problem.b]),
                               c1=0.45, c2=0.5, ridge=1e-6)
        model2 = solve_dual(doubled)
        assert np.max(np.abs(model.u - model2.u)) <= 1e-6

    def test_agrees_with_explicit_active_set_solve(self):
        # independent oracle: enumerate every active-set configuration of
        # the box QP, solve the free block by a linear solve, keep the one
        # satisfying the KKT conditions
        import itertools

        def explicit_box_qp_max(m, c):
            n = m.shape[0]
            best = None
            for config in itertools.product((0, 1, 2), repeat=n):
                free = [i for i, s in enumerate(config) if s == 2]
                fixed = [i for i, s in enumerate(config) if s != 2]
                x = np.zeros(n)
                for i, s in enumerate(config):
                    if s == 1:
                        x[i] = c
                if free:
                    rhs = np.ones(len(free))
                    if fixed:
                        rhs = rhs - m[np.ix_(free, fixed)] @ x[fixed]
                    x[free] = np.linalg.solve(m[np.ix_(free, free)], rhs)
                if np.any(x < -1e-9) or np.any(x > c + 1e-9):
                    continue
                g = 1.0 - m @ x
                if any(s == 0 and g[i] > 1e-8 for i, s in enumerate(config)):
                    continue
                if any(s == 1 and g[i] < -1e-8 for i, s in enumerate(config)):
                    continue
                if any(s == 2 and abs(g[i]) > 1e-7 for i, s in enumerate(config)):
                    continue
                value = dual_objective(m, x)
                if best is None or value > best[0]:
                    best = (value, x)
            assert best is not None
            return best[1]

        rng = np.random.default_rng(10)
        for _ in range(5):
            # 3 points per class in 2-D keeps both dual matrices full rank,
            # so every free block of the enumeration is invertible
            problem = random_problem(rng, n_a=3, n_b=3, c1=0.7, c2=0.9, ridge=1e-4)
            model = solve_dual(problem)
            m_alpha, m_beta = dual_matrices(problem)
            alpha = explicit_box_qp_max(m_alpha, 0.7)
            beta = explicit_box_qp_max(m_beta, 0.9)
            h = np.hstack([problem.a, np.ones((3, 1))])
            g = np.hstack([problem.b, np.ones((3, 1))])
            s = h.T @ h + 1e-4 * np.eye(3)
            t = g.T @ g + 1e-4 * np.eye(3)
            u_explicit = -np.linalg.solve(s, g.T @ alpha)
            v_explicit = np.linalg.solve(t, h.T @ beta)
            assert np.max(np.abs(model.u - u_explicit)) <= 1e-6
            assert np.max(np.abs(model.v - v_explicit)) <= 1e-6

    def test_rbf_predictions_evaluate_expansion(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 2)) + [1.5, 0.0]
        b = rng.standard_normal((5, 2)) - [1.5, 0.0]
        spec = KernelSpec("rbf", gamma=0.5)
        model = solve_dual(TwsvmProblem(a, b, c1=1.0, c2=1.0, kernel=spec))
        x = rng.standard_normal((8, 2))
        d_plus, _ = twsvm_distances(model, x)
        # independent recomputation of the kernel expansion
        k = np.exp(-0.5 * ((x[:, None, :] - model.support[None, :, :]) ** 2).sum(-1))
        s_plus = k @ model.u[:-1] + model.u[-1]
        np.testing.assert_allclose(d_plus, np.abs(s_plus) / model.norm_plus, rtol=1e-12)

    def test_rbf_fit_builds_one_gram_matrix(self, monkeypatch):
        calls = []
        build = twsvm.kernel_matrix
        monkeypatch.setattr(twsvm, "kernel_matrix",
                            lambda *args: calls.append(1) or build(*args))
        a, b = blob_rows(13, 6, 9, [1.5, 0.0])
        model = solve_dual(TwsvmProblem(a, b, c1=1.0, c2=1.0,
                                        kernel=KernelSpec("rbf", gamma=0.5)))
        # H, G and both plane norms come from the one support Gram matrix
        assert len(calls) == 1
        gram = build(model.kernel, model.support, model.support)
        for w, norm in ((model.u, model.norm_plus), (model.v, model.norm_minus)):
            assert norm == np.sqrt(w[:-1] @ (gram @ w[:-1]))

    def test_rbf_separates_ring_data(self):
        rng = np.random.default_rng(12)
        inner = rng.standard_normal((30, 2)) * 0.4
        angle = rng.uniform(0, 2 * np.pi, 30)
        outer = np.column_stack([3 * np.cos(angle), 3 * np.sin(angle)])
        outer += rng.standard_normal((30, 2)) * 0.2
        model = solve_dual(TwsvmProblem(inner, outer, c1=2.0, c2=2.0,
                                        kernel=KernelSpec("rbf", gamma=0.8)))
        labels = np.concatenate([np.ones(30), -np.ones(30)]).astype(int)
        features = np.vstack([inner, outer])
        acc = np.mean(twsvm_predict(model, features) == labels)
        assert acc >= 0.95


class TestRbfCrossValidation:
    # RBF duals under the default ridge are badly conditioned; every fold
    # must still converge (the first case is the twsvm_dual benchmark's)
    @pytest.mark.parametrize("n_plus, n_minus, folds", [(20, 60, 2), (40, 120, 5)])
    def test_rbf_cv_has_no_failed_fold(self, n_plus, n_minus, folds):
        a, b = blob_rows(0, n_plus, n_minus, (1.0, 0.0))
        labels = np.concatenate([np.ones(n_plus, dtype=int), -np.ones(n_minus, dtype=int)])
        spec = ExperimentSpec(data_path="", model="twsvm_rbf", grid={"gamma": [1]},
                              folds=folds, seed=0)
        result = run_experiment(spec, Dataset(np.vstack([a, b]), labels))
        assert result.failures == []
        assert not any(fold["failed"] for fold in result.folds)


class TestPredict:
    def test_point_on_positive_plane(self):
        rng = np.random.default_rng(13)
        problem = random_problem(rng, c1=1.0, c2=1.0)
        model = solve_dual(problem)
        w, bias = model.u[:-1], model.u[-1]
        # construct a point exactly on the plus plane
        x = -bias * w / (w @ w)
        assert abs(float(x @ w + bias)) <= 1e-10
        assert twsvm_predict(model, x) == 1

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(14)
        model = solve_dual(random_problem(rng, c1=1.0, c2=1.0))
        scaled = TwsvmModel(
            u=5.0 * model.u, v=model.v, alpha=model.alpha, beta=model.beta,
            kernel=model.kernel, ridge_alpha=model.ridge_alpha,
            ridge_beta=model.ridge_beta, n_features=model.n_features,
            support=None, norm_plus=5.0 * model.norm_plus,
            norm_minus=model.norm_minus,
        )
        x = rng.standard_normal((50, 2))
        np.testing.assert_array_equal(twsvm_predict(model, x),
                                      twsvm_predict(scaled, x))

    def test_zero_norm_plane_errors(self):
        model = TwsvmModel(
            u=np.zeros(3), v=np.array([1.0, 0.0, 0.0]), alpha=np.zeros(1),
            beta=np.zeros(1), kernel=KernelSpec("linear"), ridge_alpha=0.0,
            ridge_beta=0.0, n_features=2, support=None,
            norm_plus=0.0, norm_minus=1.0,
        )
        with pytest.raises(ValueError, match="zero norm"):
            twsvm_predict(model, np.zeros(2))
