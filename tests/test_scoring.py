"""Batch scoring in row blocks (``numcore.score_rows``): the block plan,
memory bounded by one block, and the same bits as a whole-batch call
where that is promised."""

import functools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twinlearn.numcore import SCORE_BLOCK, score_rows
from twinlearn.twin_nn import RfnnModel, TanhNet, rfnn_decision
from twinlearn.twsvm import KernelSpec, TwsvmProblem, kernel_matrix, solve_dual, twsvm_distances

B = SCORE_BLOCK


def _net(rng, m, h, p):
    return TanhNet(rng.standard_normal((h, m)), rng.standard_normal(h),
                   rng.standard_normal((p, h)), rng.standard_normal(p))


def _whole_planes(net, x):
    """The unblocked plane expression, the reference."""
    return np.tanh(x @ net.weights.T + net.biases) @ net.plane_weights.T + net.plane_biases


def _whole_distance(net, x):
    d = np.abs(_whole_planes(net, x))
    d /= net.plane_norms
    return d.min(axis=-1)


def _twsvm(kernel: KernelSpec, n_plus=20, n_minus=40, m=2):
    rng = np.random.default_rng(33)
    a = rng.standard_normal((n_plus, m)) + 1.0
    b = rng.standard_normal((n_minus, m)) - 1.0
    return solve_dual(TwsvmProblem(a, b, 1.0, 1.0, kernel))


def _whole_twsvm(model, x):
    basis = x if model.plus.kernel.kind == "linear" else kernel_matrix(
        model.plus.kernel, x, model.plus.support)
    return tuple(np.abs(basis @ p.u[:-1] + p.u[-1]) / p.norm for p in (model.plus, model.minus))


class TestBlockPlan:
    @pytest.mark.parametrize("n, sizes", [
        (0, [0]), (1, [1]), (B, [B]), (B + 1, [B + 1]), (B + 2, [B, 2]),
        (2 * B, [B, B]), (2 * B + 1, [B, B + 1]), (3 * B + 5, [B, B, B, 5])])
    def test_blocks_and_a_one_row_tail_merged(self, n, sizes):
        x = np.arange(n * 2, dtype=np.float64).reshape(n, 2)
        seen = []

        def score(rows):
            seen.append(rows.shape[0])
            return rows.sum(axis=1)

        out = score_rows(x, 2, score)
        assert seen == sizes
        np.testing.assert_array_equal(out, x.sum(axis=1))

    def test_at_most_one_block_is_one_call_on_the_input(self):
        x = np.ones((B + 1, 3))
        one = x[0]
        assert score_rows(x, 3, lambda rows: rows) is x
        assert score_rows(one, 3, lambda rows: rows) is one


N = 200_000


def _traced_peak(fn, x):
    """fn(x) and the peak of memory traced during it, in bytes."""
    tracemalloc.start()
    try:
        out = fn(x)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bound(out_bytes: int, width: int) -> int:
    """Twice the output plus four block-sized temporaries of ``width``
    columns; a whole-batch call of N rows holds several (N, width) arrays."""
    return 2 * out_bytes + 4 * B * width * 8


class TestMemory:
    @pytest.mark.parametrize("planes", [1, 2])
    def test_net_distance(self, planes):
        rng = np.random.default_rng(31)
        net = _net(rng, 8, 8, planes)
        out, peak = _traced_peak(net.distance, rng.standard_normal((N, 8)))
        assert out.shape == (N,)
        assert peak <= _bound(out.nbytes, 8)

    def test_rfnn_decision(self):
        rng = np.random.default_rng(32)
        model = RfnnModel(_net(rng, 8, 8, 1), 1e-4, 0.05, 1, 0)
        out, peak = _traced_peak(lambda x: rfnn_decision(model, x), rng.standard_normal((N, 8)))
        assert out.shape == (N,)
        assert peak <= _bound(out.nbytes, 8)

    def test_rbf_twsvm_distances(self):
        model = _twsvm(KernelSpec("rbf", 0.5))
        support = model.plus.support.shape[0]
        x = np.random.default_rng(34).standard_normal((N, 2))
        (d_plus, d_minus), peak = _traced_peak(lambda x: twsvm_distances(model, x), x)
        assert d_plus.shape == d_minus.shape == (N,)
        assert peak <= _bound(2 * N * 8, support)


class TestSameBits:
    @pytest.mark.parametrize("n", [1, 7, B, B + 1])
    def test_one_block_is_the_whole_batch_expression(self, n):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((n, 5))
        for p in (1, 3):
            net = _net(rng, 5, 6, p)
            np.testing.assert_array_equal(net.planes(x), _whole_planes(net, x))
            np.testing.assert_array_equal(net.distance(x), _whole_distance(net, x))
        for kernel in (KernelSpec(), KernelSpec("rbf", 0.5)):
            model = _twsvm(kernel, m=5)
            for got, want in zip(twsvm_distances(model, x), _whole_twsvm(model, x)):
                np.testing.assert_array_equal(got, want)

    def test_stream_shapes_match_the_whole_batch_on_one_blas_thread(self):
        # BLAS splits a whole-batch product over its threads, which can put
        # some rows in another kernel than the blocked call does, so the
        # same bits are promised for one thread, as the benchmark runs
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(tests), "src"), tests]))
        run = subprocess.run(
            [sys.executable, "-c", "import test_scoring; print(test_scoring.stream_mismatches())"],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 30), h=st.integers(1, 32), p=st.integers(1, 3),
           blocks=st.integers(1, 2), offset=st.integers(-2, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_drift_is_bounded(self, m, h, p, blocks, offset, seed):
        # across block boundaries a small tail block can go to another BLAS
        # kernel than the whole batch, which may move last bits
        rng = np.random.default_rng(seed)
        net = _net(rng, m, h, p)
        x = rng.standard_normal((blocks * B + offset, m))
        np.testing.assert_allclose(net.distance(x), _whole_distance(net, x),
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(net.planes(x), _whole_planes(net, x), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec("rbf", 0.5)],
                             ids=["linear", "rbf"])
    def test_twsvm_blocked_drift_is_bounded(self, kernel):
        model = _twsvm(kernel, 60, 240, 5)
        x = np.random.default_rng(37).standard_normal((3 * B + 17, 5))
        for got, want in zip(twsvm_distances(model, x), _whole_twsvm(model, x)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


@functools.cache
def _scorers():
    """name -> batch distance function of one plane of each type on 3
    features: a ``TanhNet``, a linear and an RBF ``TwsvmPlane``, and both
    planes of each twin SVM through ``twsvm_distances``."""
    scorers = {"tanh": _net(np.random.default_rng(38), 3, 4, 2).distance}
    for name, kernel in (("linear", KernelSpec()), ("rbf", KernelSpec("rbf", 0.5))):
        model = _twsvm(kernel, m=3)
        scorers[name] = model.plus.distance
        scorers[f"{name} pair"] = lambda x, model=model: np.stack(twsvm_distances(model, x))
    return scorers


class TestScoringContract:
    """Every plane type scores an empty batch and NaN rows alike."""

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["tanh", "linear", "rbf", "linear pair", "rbf pair"]),
           n=st.integers(0, 12), nan_rows=st.sets(st.integers(0, 11)),
           seed=st.integers(0, 2**32 - 1))
    # an RBF plane built its kernel rows through the checked kernel_matrix,
    # so it raised ShapeError on an empty batch and NumericalError on a
    # batch with one NaN row
    @example(kind="rbf", n=0, nan_rows=set(), seed=0)
    @example(kind="rbf", n=5, nan_rows={2}, seed=0)
    @example(kind="rbf pair", n=0, nan_rows=set(), seed=0)
    @example(kind="rbf pair", n=5, nan_rows={2}, seed=0)
    def test_empty_batch_and_nan_rows(self, kind, n, nan_rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        bad = np.array(sorted(i for i in nan_rows if i < n), dtype=np.intp)
        x[bad, rng.integers(0, 3, bad.size)] = np.nan  # one NaN cell per bad row
        d = np.atleast_2d(_scorers()[kind](x))
        assert d.dtype == np.float64 and d.shape[1:] == (n,)
        for row in d:
            np.testing.assert_array_equal(np.flatnonzero(np.isnan(row)), bad)
            assert np.isfinite(np.delete(row, bad)).all()


def stream_mismatches() -> list:
    """The (hidden, planes, rows) cases of the benchmark's scoring stream
    whose blocked distances differ from the whole-batch expression: 8
    features, a twin side or rfnn net (h = 8, one plane) and a multiclass
    bank (h = 6, two planes), over 400,000 and 400,003 rows."""
    rng = np.random.default_rng(36)
    bad = []
    for hidden, planes in ((8, 1), (6, 2)):
        net = _net(rng, 8, hidden, planes)
        for n in (400_000, 400_003):
            x = rng.normal(0.0, 1.5, (n, 8))
            if not np.array_equal(net.distance(x), _whole_distance(net, x)):
                bad.append((hidden, planes, n))
    return bad
