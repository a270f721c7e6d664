"""Batch scoring in row blocks (``numcore.score_rows``): the block plan,
memory bounded by one block, the same bits as a whole-batch call where
that is promised, one block loop per predict, and each predict's choice
among its model's distances."""

import functools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ensemble_of, own_plane_distance
from twinlearn import harness, multiclass, twin_nn
from twinlearn.harness import ovr_distances, ovr_predict
from twinlearn.multiclass import MCHyper, MulticlassTwinModel, mc_distances, mc_predict
from twinlearn.numcore import SCORE_BLOCK, ShapeError, score_rows
from twinlearn.twin_nn import (RfnnHyper, RfnnModel, TanhBank, TwinHyper, TwinNNModel,
                               decision_values, predict, rfnn_decision, rfnn_predict)
from twinlearn.twsvm import (KernelSpec, TwsvmPlane, TwsvmProblem, kernel_matrix, solve_dual,
                             twsvm_distances)

B = SCORE_BLOCK


def _net(rng, m, h, p):
    """One net drawn at random, as a bank of one."""
    return TanhBank(rng.standard_normal((h, m)), rng.standard_normal(h),
                    rng.standard_normal((1, p, h)), rng.standard_normal((1, p)))


def _planes(net, x):
    """A bank of one's plane outputs through the block loop: (p,) for one
    sample (M,), (N, p) for a batch (N, M)."""
    z = score_rows(x, net.n_features, lambda rows: net.planes(rows)[0].T)
    return z[0] if np.ndim(x) == 1 else z


def _distance(net, x):
    """A bank of one's nearest-plane distances through the block loop: a
    float for one sample (M,), (N,) for a batch (N, M)."""
    d = score_rows(x, net.n_features, lambda rows: net.distances(rows)[0])
    return float(d[0]) if np.ndim(x) == 1 else d


def _whole_planes(net, x):
    """The unblocked feature-major plane expression, the reference: (N, p)."""
    phi = net.weights @ x.T
    phi += net.biases
    np.tanh(phi, out=phi)
    z = net.plane_weights[0] @ phi
    z += net.plane_biases[0]
    return z.T


def _whole_distance(net, x):
    d = np.abs(_whole_planes(net, x).T)
    d /= net.plane_norms[0]
    return d.min(axis=0)


def _row_major_planes(net, x):
    """The plane expression row by row, (N, h) activations, as the
    benchmark's numpy reference labels compute it."""
    return (np.tanh(x @ net.weights.T + net.biases[:, 0]) @ net.plane_weights[0].T
            + net.plane_biases[0, :, 0])


def _row_major_distance(net, x):
    return (np.abs(_row_major_planes(net, x)) / net.plane_norms[0, :, 0]).min(axis=1)


def _close_to_row_major(net, x):
    """Feature-major and row-major scoring sum in other orders, so they
    agree to rounding only."""
    np.testing.assert_allclose(_planes(net, x), _row_major_planes(net, x), rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(_distance(net, x), _row_major_distance(net, x),
                               rtol=1e-12, atol=1e-13)


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
        out, peak = _traced_peak(lambda x: _distance(net, x), rng.standard_normal((N, 8)))
        assert out.shape == (N,)
        assert peak <= _bound(out.nbytes, 8)

    def test_rfnn_decision(self):
        rng = np.random.default_rng(32)
        model = RfnnModel(_net(rng, 8, 8, 1), RfnnHyper(hidden=8, epochs=1))
        out, peak = _traced_peak(lambda x: rfnn_decision(model, x), rng.standard_normal((N, 8)))
        assert out.shape == (N,)
        assert peak <= _bound(out.nbytes, 8)

    @pytest.mark.parametrize("predict_fn, nets", [(predict, 2), (mc_predict, 3)],
                             ids=["twin pair", "multiclass"])
    def test_a_bank_of_nets(self, predict_fn, nets):
        # a model's nets score as one bank: (K*h, block) activations
        twin, _, mc = _models(np.random.default_rng(47), 8)
        model = twin if nets == 2 else mc
        out, peak = _traced_peak(lambda x: predict_fn(model, x),
                                 np.random.default_rng(48).standard_normal((N, 8)))
        assert out.shape == (N,)
        assert peak <= _bound(out.nbytes, nets * 8)

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
            np.testing.assert_array_equal(_planes(net, x), _whole_planes(net, x))
            np.testing.assert_array_equal(_distance(net, x), _whole_distance(net, x))
            _close_to_row_major(net, x)
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
        np.testing.assert_allclose(_distance(net, x), _whole_distance(net, x),
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(_planes(net, x), _whole_planes(net, x), rtol=1e-12, atol=1e-13)
        _close_to_row_major(net, x)

    @pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec("rbf", 0.5)],
                             ids=["linear", "rbf"])
    def test_twsvm_blocked_drift_is_bounded(self, kernel):
        model = _twsvm(kernel, 60, 240, 5)
        x = np.random.default_rng(37).standard_normal((3 * B + 17, 5))
        for got, want in zip(twsvm_distances(model, x), _whole_twsvm(model, x)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


@functools.cache
def _scorers():
    """name -> distance function of one plane of each type on 3 features:
    a ``TanhBank`` of one, a linear and an RBF ``TwsvmPlane`` as one-vs-rest
    scores them, and both planes of each twin SVM through
    ``twsvm_distances``, which gives two results."""
    scorers = {"tanh": functools.partial(_distance, _net(np.random.default_rng(38), 3, 4, 2))}
    for name, kernel in (("linear", KernelSpec()), ("rbf", KernelSpec("rbf", 0.5))):
        model = _twsvm(kernel, m=3)
        scorers[name] = own_plane_distance(f"twsvm_{name}", model.plus)
        scorers[f"{name} pair"] = functools.partial(twsvm_distances, model)
    return scorers


KINDS = ["tanh", "linear", "rbf", "linear pair", "rbf pair"]


class TestScoringContract:
    """Every plane type scores an empty batch, NaN rows and one sample
    alike."""

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(0, 12), nan_rows=st.sets(st.integers(0, 11)),
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
        x, bad = _rows(rng, n, 3, nan_rows)
        d = np.atleast_2d(_scorers()[kind](x))
        assert d.dtype == np.float64 and d.shape[1:] == (n,)
        for row in d:
            np.testing.assert_array_equal(np.flatnonzero(np.isnan(row)), bad)
            assert np.isfinite(np.delete(row, bad)).all()

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), nan=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # feature-major scoring adds the (h,) hidden biases as a column; on an
    # (h,) activation of one sample that broadcast would give (h, h)
    @example(kind="tanh", nan=False, seed=0)
    @example(kind="tanh", nan=True, seed=0)
    def test_one_sample_is_a_scalar_like_a_one_row_batch(self, kind, nan, seed):
        x, _ = _rows(np.random.default_rng(seed), 1, 3, {0} if nan else set())
        one, row = _scorers()[kind](x[0]), _scorers()[kind](x)
        pair = kind.endswith("pair")
        for got, want in zip(one if pair else (one,), row if pair else (row,)):
            assert isinstance(got, float) and want.shape == (1,)
            np.testing.assert_allclose(got, want[0], rtol=1e-12, atol=0)
            assert np.isnan(got) == nan

    @pytest.mark.parametrize("p", [1, 3])
    def test_one_sample_has_p_planes(self, p):
        net = _net(np.random.default_rng(39), 3, 4, p)
        x = np.random.default_rng(40).standard_normal(3)
        assert _planes(net, x).shape == (p,)
        np.testing.assert_allclose(_planes(net, x), _planes(net, x[None])[0], rtol=1e-12, atol=0)


def _rows(rng, n: int, m: int, nan_rows):
    """(n, m) standard normal rows with one NaN cell in each of the
    ``nan_rows`` below n, and the indices of those rows."""
    x = rng.standard_normal((n, m))
    bad = np.array(sorted(i for i in nan_rows if i < n), dtype=np.intp)
    x[bad, rng.integers(0, m, bad.size)] = np.nan
    return x, bad


def _pool(rng, kind: str) -> list:
    """Three own planes of a binary kind on 3 features, drawn at random."""
    nets = [_net(rng, 3, 4, 1) for _ in range(3)]
    if kind == "twin_nn":
        return nets
    if kind == "rfnn":
        return [RfnnModel(net, RfnnHyper(hidden=4, epochs=1)) for net in nets]
    return [TwsvmPlane(rng.standard_normal(4), KernelSpec(), None) for _ in range(3)]


PICKS = st.lists(st.integers(0, 2), min_size=2, max_size=4)
ROWS = {"n": st.integers(0, 20), "nan_rows": st.sets(st.integers(0, 19)),
        "seed": st.integers(0, 2**32 - 1)}


class TestPredicts:
    """Each predict is the nearest of its model's distances, ties and NaN
    rows included: the pools repeat a net, so equal picks tie exactly."""

    @settings(max_examples=60, deadline=None)
    @given(picks=PICKS, **ROWS)
    @example(picks=[1, 0, 1], n=8, nan_rows=set(), seed=0)  # classes 0 and 2 tie
    @example(picks=[2, 2], n=8, nan_rows={0, 5}, seed=0)  # every row ties
    def test_mc_predict_is_the_argmin_of_mc_distances(self, picks, n, nan_rows, seed):
        rng = np.random.default_rng(seed)
        pool = [_net(rng, 3, 4, 2) for _ in range(3)]
        ids = np.sort(rng.choice(100, len(picks), replace=False))
        model = MulticlassTwinModel(ids, TanhBank.join([pool[i] for i in picks]),
                                    MCHyper(subnet_features=4, planes=2))
        x, _ = _rows(rng, n, 3, nan_rows)
        want = model.class_ids[np.argmin(mc_distances(model, x), axis=1)]
        np.testing.assert_array_equal(mc_predict(model, x), want)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["twin_nn", "rfnn", "twsvm_linear"]), picks=PICKS, **ROWS)
    @example(kind="twin_nn", picks=[0, 1, 0], n=8, nan_rows=set(), seed=0)
    @example(kind="rfnn", picks=[1, 1, 1], n=8, nan_rows={3}, seed=0)
    @example(kind="twsvm_linear", picks=[2, 0, 2], n=8, nan_rows={0, 7}, seed=0)
    def test_ovr_predict_is_the_argmin_of_ovr_distances(self, kind, picks, n, nan_rows, seed):
        rng = np.random.default_rng(seed)
        pool = _pool(rng, kind)
        ensemble = ensemble_of(kind, np.arange(len(picks)) * 3 + 1, [pool[i] for i in picks])
        x, _ = _rows(rng, n, 3, nan_rows)
        want = ensemble.class_ids[np.argmin(ovr_distances(ensemble, x), axis=1)]
        np.testing.assert_array_equal(ovr_predict(ensemble, x), want)

    @settings(max_examples=60, deadline=None)
    @given(sides=st.tuples(st.integers(0, 2), st.integers(0, 2)), **ROWS)
    @example(sides=(1, 1), n=8, nan_rows=set(), seed=0)  # a tie everywhere goes to +1
    @example(sides=(0, 2), n=8, nan_rows={2, 3}, seed=0)  # NaN rows go to -1
    def test_twin_predict_compares_decision_values(self, sides, n, nan_rows, seed):
        rng = np.random.default_rng(seed)
        pool = [_net(rng, 3, 4, 1) for _ in range(3)]
        model = TwinNNModel(TanhBank.join([pool[i] for i in sides]), TwinHyper(hidden=4))
        x, _ = _rows(rng, n, 3, nan_rows)
        d_plus, d_minus = decision_values(model, x)
        np.testing.assert_array_equal(predict(model, x), np.where(d_plus <= d_minus, 1, -1))


class TestOneBlockLoop:
    @pytest.mark.parametrize("n", [None, B + 2], ids=["sample", "two blocks"])
    def test_each_predict_makes_one_score_rows_call(self, monkeypatch, n):
        calls = []

        def counted(*args):
            calls.append(args)
            return score_rows(*args)

        for module in (twin_nn, multiclass, harness):
            monkeypatch.setattr(module, "score_rows", counted)
        x = np.random.default_rng(42).standard_normal((n or 1, 3))
        for predict_fn, model, _ in _predicts(np.random.default_rng(41)):
            calls.clear()
            predict_fn(model, x[0] if n is None else x)
            assert len(calls) == 1, predict_fn

    @pytest.mark.parametrize("n, blocks", [(None, 1), (64, 1), (B + 2, 2)],
                             ids=["sample", "64 rows", "two blocks"])
    def test_each_predict_makes_one_kernel_call_per_block(self, monkeypatch, n, blocks):
        # every net of a model is scored in the one pass of its bank, not
        # one pass per net
        calls = []
        kernel = TanhBank.planes

        def counted(bank, rows):
            calls.append(len(bank.plane_weights))
            return kernel(bank, rows)

        monkeypatch.setattr(TanhBank, "planes", counted)
        x = np.random.default_rng(44).standard_normal((n or 1, 3))
        for predict_fn, model, nets in _predicts(np.random.default_rng(45)):
            calls.clear()
            predict_fn(model, x[0] if n is None else x)
            assert calls == ([nets] * blocks if nets else []), predict_fn

    def test_a_model_takes_one_input_width(self):
        # the one block loop checks the rows against the bank's one width,
        # so nets of two widths make no bank: no twin pair, no multiclass
        # model and no one-vs-rest scorer
        rng = np.random.default_rng(43)
        for nets in ((_net(rng, 3, 8, 1), _net(rng, 4, 8, 1)),
                     (_net(rng, 3, 6, 2), _net(rng, 4, 6, 2))):
            with pytest.raises(ShapeError, match="cannot share a bank"):
                TanhBank.join(nets)
            with pytest.raises(ShapeError, match="cannot share a bank"):
                ovr_distances(ensemble_of("twin_nn", np.array([0, 1]), list(nets)), np.ones(3))

    @pytest.mark.parametrize("shapes", [((8, 1), (6, 1)), ((8, 1), (8, 2))],
                             ids=["hidden width", "plane count"])
    def test_a_model_takes_one_net_shape(self, shapes):
        # a model's nets are scored as one bank, which needs one (h, p)
        rng = np.random.default_rng(46)
        first, second = (_net(rng, 3, h, p) for h, p in shapes)
        for nets in ([first, second], [first, first, second]):
            with pytest.raises(ShapeError, match=r"nets of \(M, h, p\) .* cannot share a bank"):
                TanhBank.join(nets)
        models = [RfnnModel(net, RfnnHyper(hidden=8, epochs=1)) for net in (first, second)]
        with pytest.raises(ShapeError, match=r"cannot share a bank"):
            ovr_distances(ensemble_of("rfnn", np.array([0, 1]), models), np.ones(3))


class TestBankKernel:
    """One ``TanhBank`` scores K nets of one shape in one pass: each net's
    slice of its scores is that net's own, and the labels of every predict
    are the nearest of the stacked distances."""

    @settings(max_examples=80, deadline=None)
    @given(picks=st.lists(st.integers(0, 2), min_size=1, max_size=4), p=st.integers(1, 3),
           h=st.integers(1, 16), m=st.integers(1, 12), n=st.sampled_from([1, 64, B + 2]),
           nan_rows=st.sets(st.integers(0, 70), max_size=5), seed=st.integers(0, 2**32 - 1))
    @example(picks=[1, 0, 1], p=2, h=6, m=8, n=64, nan_rows=set(), seed=0)  # banks 0, 2 tie
    @example(picks=[2, 2], p=1, h=8, m=8, n=64, nan_rows={0, 63}, seed=0)  # every row ties
    @example(picks=[0, 1, 2, 0], p=3, h=4, m=3, n=B + 2, nan_rows={1, 5}, seed=1)
    @example(picks=[0], p=2, h=5, m=3, n=1, nan_rows={0}, seed=2)
    def test_each_net_scores_as_alone_and_labels_are_the_argmin(self, picks, p, h, m, n,
                                                                nan_rows, seed):
        rng = np.random.default_rng(seed)
        pool = [_net(rng, m, h, p) for _ in range(3)]
        nets = [pool[i] for i in picks]
        bank = TanhBank.join(nets)
        x, bad = _rows(rng, n, m, nan_rows)
        planes = score_rows(x, m, lambda rows: bank.planes(rows).transpose(2, 0, 1))
        distances = score_rows(x, m, lambda rows: bank.distances(rows).T)
        assert planes.shape == (n, len(nets), p) and distances.shape == (n, len(nets))
        for k, net in enumerate(nets):
            np.testing.assert_allclose(planes[:, k], _whole_planes(net, x),
                                       rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(distances[:, k], _whole_distance(net, x),
                                       rtol=1e-12, atol=1e-13)
        nearest = np.argmin(distances, axis=1)
        ids = np.arange(len(nets)) * 3 + 1
        ensemble = ensemble_of("twin_nn", ids, nets)
        np.testing.assert_array_equal(ovr_predict(ensemble, x), ids[nearest])
        if len(nets) >= 2:
            model = MulticlassTwinModel(ids, bank, MCHyper(subnet_features=h, planes=p))
            np.testing.assert_array_equal(mc_predict(model, x), ids[nearest])
        if len(nets) == 2:
            # a NaN row is no nearer to the plus plane, so it goes to -1
            plus = (nearest == 0) & ~np.isin(np.arange(n), bad)
            np.testing.assert_array_equal(predict(TwinNNModel(bank, TwinHyper(hidden=h)), x),
                                          np.where(plus, 1, -1))


def _predicts(rng):
    """(predict, model, nets) for every predict that scores tanh nets, and
    for one-vs-rest over each binary kind's own planes, on 3 features:
    ``nets`` is the number of tanh nets the model scores (0 for twin SVM
    planes)."""
    twin, rfnn, mc = _models(rng, 3)
    ovr = [(ensemble_of(kind, np.array([1, 4, 7]), _pool(rng, kind)), nets)
           for kind, nets in (("twin_nn", 3), ("rfnn", 3), ("twsvm_linear", 0))]
    return [(predict, twin, 2), (decision_values, twin, 2), (rfnn_predict, rfnn, 1),
            (rfnn_decision, rfnn, 1), (mc_predict, mc, 3), (mc_distances, mc, 3),
            *((fn, ensemble, nets) for fn in (ovr_predict, ovr_distances)
              for ensemble, nets in ovr)]


def _models(rng, m: int):
    """A twin pair (h = 8), an rfnn net (h = 8) and a 3-bank multiclass
    model (h = 6, two planes) on m features, drawn at random."""
    twin = TwinNNModel(TanhBank.join([_net(rng, m, 8, 1), _net(rng, m, 8, 1)]),
                       TwinHyper(hidden=8))
    rfnn = RfnnModel(_net(rng, m, 8, 1), RfnnHyper(hidden=8, epochs=1))
    mc = MulticlassTwinModel([0, 1, 2], TanhBank.join([_net(rng, m, 6, 2) for _ in range(3)]),
                             MCHyper(subnet_features=6, planes=2))
    return twin, rfnn, mc


def stream_mismatches() -> list:
    """The cases of the benchmark's scoring stream, 8 features over
    400,000 and 400,003 rows, where blocked scoring differs from a whole
    call: per net, the blocked distances of a twin side or rfnn net (h =
    8, one plane) and of a multiclass bank (h = 6, two planes) against the
    whole-batch expression; per model, the labels of a twin pair, an rfnn
    net and a 3-bank multiclass model in 64-row calls against one
    whole-stream call."""
    rng = np.random.default_rng(36)
    bad = []
    for hidden, planes in ((8, 1), (6, 2)):
        net = _net(rng, 8, hidden, planes)
        for n in (400_000, 400_003):
            x = rng.normal(0.0, 1.5, (n, 8))
            if not np.array_equal(_distance(net, x), _whole_distance(net, x)):
                bad.append((hidden, planes, n))
    models = dict(zip(("twin_nn", "rfnn", "twin_nn_mc"), _models(rng, 8)))
    for n in (400_000, 400_003):
        x = rng.normal(0.0, 1.5, (n, 8))
        for name, model in models.items():
            fn = {"twin_nn": predict, "rfnn": rfnn_predict, "twin_nn_mc": mc_predict}[name]
            batched = np.concatenate([fn(model, x[i:i + 64]) for i in range(0, n, 64)])
            if not np.array_equal(batched, fn(model, x)):
                bad.append((name, n))
    return bad
