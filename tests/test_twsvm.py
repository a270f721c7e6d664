import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twinlearn.twsvm as twsvm
from conftest import box_max_reference, own_plane_distance, sweep_iterates
from twinlearn.data import Dataset
from twinlearn.harness import ExperimentSpec, run_experiment
from twinlearn.models import MODELS
from twinlearn.numcore import ConvergenceError, ShapeError
from twinlearn.twsvm import (
    KernelSpec,
    TwsvmModel,
    TwsvmPlane,
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


def at_cap(sweeps, m, c):
    """``projected_gradient_box_max`` with its sweep cap, ``twsvm.MAX_SWEEPS``,
    set to ``sweeps`` for this one call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twsvm, "MAX_SWEEPS", sweeps)
        return projected_gradient_box_max(m, c)


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

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 5), s=st.integers(1, 5), m=st.integers(1, 4),
           powers=st.lists(st.integers(0, 308), min_size=10, max_size=10),
           copies=st.sets(st.integers(0, 4)), seed=st.integers(0, 2**32 - 1),
           gamma=st.floats(1e-3, 10.0))
    # rows 1e200 (one equal to a row of y) and 1e308 against ordinary rows
    @example(n=2, s=2, m=2, powers=[200, 308, 0, 0, 0, 200, 0, 0, 0, 0], copies={0}, seed=0,
             gamma=0.5)
    def test_rbf_rows_up_to_1e308_match_the_direct_distance(self, n, s, m, powers, copies,
                                                            seed, gamma):
        # row i of x (of y) is uniform in [-1, 1] times 10**powers[i] (10**powers[5 + i])
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, m)) * 10.0 ** np.array(powers[:n], float)[:, None]
        y = rng.uniform(-1, 1, (s, m)) * 10.0 ** np.array(powers[5:5 + s], float)[:, None]
        for j in copies & set(range(min(n, s))):
            y[j] = x[j]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = kernel_matrix(KernelSpec("rbf", gamma=gamma), x, y)
        with np.errstate(over="ignore"):
            want = np.exp(-gamma * np.square(x[:, None] - y[None]).sum(axis=2))
            norms = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :]
        # the expansion ||x||^2 + ||y||^2 - 2x'y rounds by up to about
        # (m + 2) eps (||x||^2 + ||y||^2) in the exponent; where it overflows,
        # the distance is taken directly, so those entries get no slack
        slack = np.where(np.isinf(norms), 0.0,
                         8 * (m + 2) * np.finfo(float).eps * gamma * norms)
        assert np.all((k >= 0.0) & (k <= 1.0))
        assert np.all(np.abs(k - want) <= (1e-12 + slack) * np.maximum(k, want))

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
        with sweep_iterates() as iterates:
            projected_gradient_box_max(m, c=2.0)
        trace = [dual_objective(m, x) for x in iterates]
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
            at_cap(2, m, c=10.0)
        assert err.value.best is not None
        assert err.value.residual > 0

    def test_the_sweep_cap_is_read_at_each_call(self, monkeypatch):
        # the dual needs more than 2 sweeps; every dual solve, alone, in a
        # fit, in a plus plane alone and in a grid, stops at the patched cap
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        m = a.T @ a + 0.1 * np.eye(6)
        problem = TwsvmProblem(*blob_rows(5, 8, 20, [1.0, 0.5]), c1=10.0, c2=10.0)
        monkeypatch.setattr(twsvm, "MAX_SWEEPS", 2)
        for solve in (lambda: projected_gradient_box_max(m, c=10.0),
                      lambda: solve_dual(problem), lambda: twsvm.solve_plus(problem),
                      lambda: twsvm.solve_grid([problem])[0]):
            with pytest.raises(ConvergenceError, match="iteration cap of 2 sweeps"):
                result = solve()
                if isinstance(result, Exception):
                    raise result

    def test_zero_box_returns_origin(self):
        np.testing.assert_array_equal(
            projected_gradient_box_max(np.eye(3), c=0.0), np.zeros(3))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), rank=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           duplicate=st.booleans(), zero=st.booleans(),
           scale=st.floats(0.1, 10.0),
           c=st.floats(0.0, 10.0, exclude_min=True))
    @example(n=4, rank=2, seed=0, duplicate=False, zero=True, scale=1.0, c=0.0)
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
        with sweep_iterates() as iterates:
            x = projected_gradient_box_max(m, c)
        trace = [dual_objective(m, z) for z in iterates]
        assert np.all(x >= 0.0) and np.all(x <= c)
        assert box_kkt_residual(m, x, c) <= 1e-8
        # neither a coordinate step nor the polish can lower the objective;
        # the slack only absorbs rounding in evaluating it
        assert all(later >= earlier - 1e-12 * (1.0 + abs(earlier))
                   for earlier, later in zip(trace, trace[1:]))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), rank=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           duplicate=st.booleans(), zero=st.booleans(), scale=st.floats(0.1, 10.0),
           bounds=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3),
           cap=st.integers(1, 6))
    @example(n=4, rank=2, seed=0, duplicate=True, zero=True, scale=1.0, bounds=[0.0, 1.0],
             cap=1)
    def test_coordinate_loop_gives_the_reference_bits(self, n, rank, seed, duplicate, zero,
                                                      scale, bounds, cap):
        # the same iterates, bit for bit, as the loop that called g.item(i)
        # and min(max(...)) and read a transposed copy of M (F'F is exactly
        # symmetric, so its rows are its columns): solution, every tested
        # iterate and, at a small sweep cap, the ConvergenceError's best
        # iterate and residual
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((rank, n)) * scale
        if duplicate:
            f[:, -1] = f[:, 0]
        if zero:
            f[:, n // 2] = 0.0
        m = f.T @ f

        def run(solve):
            with sweep_iterates() as iterates:
                try:
                    x = solve()
                except ConvergenceError as exc:
                    outcome = "cap", exc.best.tobytes(), exc.residual
                else:
                    outcome = "solved", x.tobytes(), None
            return outcome, np.array(iterates).tobytes()

        for c in bounds:
            for sweeps in (twsvm.MAX_SWEEPS, cap):
                assert (run(lambda: at_cap(sweeps, m, c))
                        == run(lambda: box_max_reference(m, c, sweeps)))

    def test_a_dual_holds_no_copy_of_its_matrix(self):
        # the coordinate loop reads M's rows: above M, a solve holds a few
        # n-vectors and the polish's free block, not a second n x n array
        a, b = blob_rows(0, 40, 1500, (1.0, 0.0, 0.0, 0.0))
        m, _ = dual_matrices(TwsvmProblem(a, b, c1=1.0, c2=1.0))
        tracemalloc.start()
        try:
            x = projected_gradient_box_max(m, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert box_kkt_residual(m, x, 1.0) <= twsvm.KKT_TOL
        assert peak < 0.25 * m.nbytes

    @pytest.mark.parametrize("n_plus, n_minus, centre, kernel, c1, bound", [
        (50, 1000, (1.0, 0.0, 0.0, 0.0), KernelSpec(), 1.0, 50),
        (40, 400, (1.0, 0.0, 0.0, 0.0), KernelSpec(), 1.0, 100),
        (20, 60, (1.0, 0.0), KernelSpec("rbf", gamma=1.0), 1.0, 200),
    ])
    def test_sweep_counts_stay_bounded(self, n_plus, n_minus, centre, kernel, c1, bound):
        # a work count, not a time: one tested iterate per sweep
        a, b = blob_rows(0, n_plus, n_minus, centre)
        problem = TwsvmProblem(a, b, c1=c1, c2=1.0, kernel=kernel)
        for m, c in zip(dual_matrices(problem), (c1, 1.0)):
            with sweep_iterates() as iterates:
                x = projected_gradient_box_max(m, c)
            assert box_kkt_residual(m, x, c) <= 1e-8
            assert len(iterates) <= bound


class TestSolveDual:
    def test_non_positive_bounds_rejected(self):
        # a zero box pins a dual at 0 and its plane at u = 0, whose
        # distances are undefined
        rng = np.random.default_rng(6)
        for c1, c2 in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (-1.0, 0.5)):
            with pytest.raises(ValueError, match="^c[12] must be > 0, got "):
                random_problem(rng, c1=c1, c2=c2)

    @pytest.mark.parametrize("seed", [39, 68])
    def test_ill_conditioned_rbf_gram_solves(self, seed):
        # the ridged 221x221 RBF Gram has condition number near 1e8; a
        # backward-stable Cholesky leaves a residual near 2e-8, which a
        # bound blind to the sizes of the matrix and solution refused
        # (seed 39 with two BLAS threads, seed 68 with one or two)
        rng = np.random.default_rng(seed)
        a = rng.normal(1, 1, (20, 5))
        b = rng.normal(-1, 1, (200, 5))
        problem = TwsvmProblem(a, b, 1, 1, KernelSpec("rbf", 1.0))
        model = solve_dual(problem)
        m_alpha, m_beta = dual_matrices(problem)
        assert box_kkt_residual(m_alpha, model.alpha, 1.0) <= 1e-8
        assert box_kkt_residual(m_beta, model.beta, 1.0) <= 1e-8

    def test_parallel_lines_toy_geometry(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 2.0], [1.0, 2.0]])
        model = solve_dual(TwsvmProblem(a, b, c1=10.0, c2=10.0, ridge=1e-8))
        # positive plane passes through both class +1 points
        u, v = model.plus.u, model.minus.u
        dist_a = np.abs(a @ u[:-1] + u[-1]) / model.plus.norm
        assert np.max(dist_a) <= 1e-6
        # negative plane passes through both class -1 points
        dist_b = np.abs(b @ v[:-1] + v[-1]) / model.minus.norm
        assert np.max(dist_b) <= 1e-6

    def test_toy_midpoint_tie_goes_positive(self):
        # the exact geometric solution: plus plane y=0, minus plane y=2
        model = TwsvmModel(
            plus=TwsvmPlane(np.array([0.0, -0.5, 0.0]), KernelSpec("linear"), None),
            minus=TwsvmPlane(np.array([0.0, 0.5, -1.0]), KernelSpec("linear"), None),
            alpha=np.zeros(2), beta=np.zeros(2), ridge_alpha=0.0, ridge_beta=0.0,
        )
        assert model.plus.norm == 0.5 and model.minus.norm == 0.5
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
        assert np.max(np.abs(model.plus.u - model2.plus.u)) <= 1e-6

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
            assert np.max(np.abs(model.plus.u - u_explicit)) <= 1e-6
            assert np.max(np.abs(model.minus.u - v_explicit)) <= 1e-6

    def test_rbf_predictions_evaluate_expansion(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 2)) + [1.5, 0.0]
        b = rng.standard_normal((5, 2)) - [1.5, 0.0]
        spec = KernelSpec("rbf", gamma=0.5)
        model = solve_dual(TwsvmProblem(a, b, c1=1.0, c2=1.0, kernel=spec))
        x = rng.standard_normal((8, 2))
        d_plus, _ = twsvm_distances(model, x)
        # independent recomputation of the kernel expansion
        plus = model.plus
        k = np.exp(-0.5 * ((x[:, None, :] - plus.support[None, :, :]) ** 2).sum(-1))
        s_plus = k @ plus.u[:-1] + plus.u[-1]
        np.testing.assert_allclose(d_plus, np.abs(s_plus) / plus.norm, rtol=1e-12)

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
        support = model.plus.support
        assert model.minus.support is support
        gram = build(model.plus.kernel, support, support)
        for w, norm in ((model.plus.u, model.plus.norm), (model.minus.u, model.minus.norm)):
            assert norm == np.sqrt(w[:-1] @ (gram @ w[:-1]))

    def test_rbf_pair_builds_one_kernel_block(self, monkeypatch):
        a, b = blob_rows(16, 6, 9, [1.5, 0.0])
        model = solve_dual(TwsvmProblem(a, b, c1=1.0, c2=1.0,
                                        kernel=KernelSpec("rbf", gamma=0.5)))
        x = np.random.default_rng(17).standard_normal((12, 2))
        own = [own_plane_distance("twsvm_rbf", plane)(rows) for rows in (x, x[0])
               for plane in (model.plus, model.minus)]
        calls = []
        build = twsvm._kernel
        monkeypatch.setattr(twsvm, "_kernel",
                            lambda *args: calls.append(1) or build(*args))
        # both planes score the one block's kernel rows, each as one-vs-rest
        # measures it alone
        pair = [*twsvm_distances(model, x), *twsvm_distances(model, x[0])]
        assert len(calls) == 2
        assert [np.asarray(d).tobytes() for d in pair] == [np.asarray(d).tobytes() for d in own]
        assert isinstance(pair[2], float) and isinstance(pair[3], float)

    def test_rbf_plane_needs_its_gram_matrix(self):
        support = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="Gram matrix"):
            TwsvmPlane(np.ones(3), KernelSpec("rbf", gamma=0.5), support)

    @pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec("rbf", gamma=0.5)])
    def test_plus_plane_alone_solves_one_dual(self, kernel, monkeypatch):
        a, b = blob_rows(14, 8, 20, [1.0, 0.5])
        problem = TwsvmProblem(a, b, c1=0.5, c2=1.0, kernel=kernel)
        full = solve_dual(problem)
        solves, paths = [], []
        solve, solve_duals = twsvm.projected_gradient_box_max, twsvm._solve_duals
        monkeypatch.setattr(twsvm, "projected_gradient_box_max",
                            lambda m, c: solves.append(c) or solve(m, c))
        # _solve_duals(own, other, ridge, bounds, sign, plane)
        monkeypatch.setattr(twsvm, "_solve_duals",
                            lambda *args: paths.append(list(args[3])) or solve_duals(*args))
        plane = twsvm.solve_plus(problem)
        assert solves == [0.5]  # the alpha dual only
        assert paths == [[0.5]]  # through the one dual path, at the one bound c1
        assert plane.u.tobytes() == full.plus.u.tobytes() and plane.norm == full.plus.norm
        x = np.random.default_rng(15).standard_normal((12, 2))
        alone = own_plane_distance(f"twsvm_{kernel.kind}", plane)(x)
        assert alone.tobytes() == twsvm_distances(full, x)[0].tobytes()

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


def _grid_data():
    """Blobs for a grid search: 2-D rows with both classes well inside
    every fold and inner split."""
    a, b = blob_rows(21, 16, 40, (1.0, 0.5))
    labels = np.concatenate([np.ones(len(a), dtype=int), -np.ones(len(b), dtype=int)])
    return Dataset(np.vstack([a, b]), labels)


class TestGridReuse:
    """A grid search over c1 and c2 builds each dual matrix once per (gamma,
    ridge) group and solves each dual once per distinct box bound, with
    every result the same, bit for bit, as a fit per grid point."""

    C1, C2 = [0.1, 1.0], [0.5, 2.0, 4.0]

    @pytest.mark.parametrize("kind, group", [("twsvm_linear", {"ridge": [1e-6, 1e-3]}),
                                             ("twsvm_rbf", {"gamma": [0.5, 1.0]})])
    def test_a_selection_builds_one_matrix_per_side_and_group(self, kind, group, monkeypatch):
        sides, solves = [], []
        dual_side, solve = twsvm._dual_side, twsvm.projected_gradient_box_max
        monkeypatch.setattr(twsvm, "_dual_side",
                            lambda *args: sides.append(1) or dual_side(*args))
        monkeypatch.setattr(twsvm, "projected_gradient_box_max",
                            lambda m, c: solves.append(c) or solve(m, c))
        folds = 2
        spec = ExperimentSpec(data_path="", model=kind, folds=folds, seed=3,
                              grid={"c1": self.C1, "c2": self.C2, **group})
        result = run_experiment(spec, _grid_data())
        assert result.failures == []
        # per fold: a selection over 2 groups, then the winner's own fit
        assert len(sides) == folds * (2 * 2 + 2)
        # c1 and c2 take distinct values, so a solve's bound names its dual
        assert sum(c in self.C1 for c in solves) == folds * (2 * len(self.C1) + 1)
        assert sum(c in self.C2 for c in solves) == folds * (2 * len(self.C2) + 1)

    @pytest.mark.parametrize("kind, grid", [
        ("twsvm_linear", {"c1": [0.02, 0.1, 1.0], "c2": [0.1, 0.5, 3.0]}),
        ("twsvm_rbf", {"gamma": [0.5, 2.0], "c1": [0.1, 1.0], "c2": [0.5, 3.0]}),
    ])
    def test_cv_json_is_that_of_a_fit_per_point(self, kind, grid, monkeypatch):
        # duals at two of the box bounds stop at a 2-sweep cap, so some alpha
        # and some beta solves fail, each with its residual in the message
        monkeypatch.setattr(twsvm, "projected_gradient_box_max", lambda m, c: at_cap(
            2 if c in (0.1, 3.0) else twsvm.MAX_SWEEPS, m, c))
        spec = ExperimentSpec(data_path="", model=kind, grid=grid, folds=3, seed=5)
        data = _grid_data()
        shared = run_experiment(spec, data).to_json()
        monkeypatch.setitem(MODELS, kind, dataclasses.replace(MODELS[kind], shared_fit=None))
        per_point = run_experiment(spec, data).to_json()
        assert shared == per_point
        failures = json.loads(shared)["failures"]
        assert any(f["stage"] == "selection" for f in failures)
        assert not all(fold["failed"] for fold in json.loads(shared)["folds"])


class TestPredict:
    def test_point_on_positive_plane(self):
        rng = np.random.default_rng(13)
        problem = random_problem(rng, c1=1.0, c2=1.0)
        model = solve_dual(problem)
        w, bias = model.plus.u[:-1], model.plus.u[-1]
        # construct a point exactly on the plus plane
        x = -bias * w / (w @ w)
        assert abs(float(x @ w + bias)) <= 1e-10
        assert twsvm_predict(model, x) == 1

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(14)
        model = solve_dual(random_problem(rng, c1=1.0, c2=1.0))
        scaled = TwsvmModel(
            plus=TwsvmPlane(5.0 * model.plus.u, model.plus.kernel, None),
            minus=model.minus, alpha=model.alpha, beta=model.beta,
            ridge_alpha=model.ridge_alpha, ridge_beta=model.ridge_beta,
        )
        assert scaled.plus.norm == pytest.approx(5.0 * model.plus.norm, rel=1e-15)
        x = rng.standard_normal((50, 2))
        np.testing.assert_array_equal(twsvm_predict(model, x),
                                      twsvm_predict(scaled, x))

    def test_zero_norm_plane_errors(self):
        model = TwsvmModel(
            plus=TwsvmPlane(np.zeros(3), KernelSpec("linear"), None),
            minus=TwsvmPlane(np.array([1.0, 0.0, 0.0]), KernelSpec("linear"), None),
            alpha=np.zeros(1), beta=np.zeros(1), ridge_alpha=0.0, ridge_beta=0.0,
        )
        assert model.plus.norm == 0.0 and model.minus.norm == 1.0
        with pytest.raises(ValueError, match="zero norm"):
            twsvm_predict(model, np.zeros(2))
