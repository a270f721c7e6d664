import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twinlearn.twin_nn as twin_nn
from conftest import (
    assert_matches_reference,
    central_difference,
    flatten_nets,
    gaussian_blobs,
    max_relative_error,
    params_from_flat,
    two_block_rfnn_objective,
    two_block_side_objective,
)
from twinlearn.data import DataError, Dataset
from twinlearn.evalstats import confusion, metrics
from twinlearn.numcore import DivergenceError, Rng, ShapeError
from twinlearn.twin_nn import (
    TanhBank,
    TwinHyper,
    TwinNNModel,
    _design,
    _init_net,
    decision_values,
    predict,
    rfnn_decision,
    rfnn_objective,
    rfnn_predict,
    side_objective,
    train,
    train_rfnn_baseline,
)


def zero_params(hidden, n_features):
    return params_from_flat(np.zeros(hidden * n_features + 2 * hidden + 1), hidden, n_features)


def random_params(rng, hidden, n_features, scale=0.7):
    vec = rng.standard_normal(hidden * n_features + 2 * hidden + 1) * scale
    return params_from_flat(vec, hidden, n_features)


def random_side(rng, hidden, n_features):
    """A twin side's net drawn at random, as a bank of one."""
    hidden_wc, plane_w, plane_b = random_params(rng, hidden, n_features)
    return TanhBank(hidden_wc[:, :-1], hidden_wc[:, -1], plane_w, plane_b)


def plus_objective(params, a, b, c):
    """Positive side: margin over B rows (target -1) + proximal over A."""
    return side_objective(params, _design(b, a), b.shape[0], c, -1.0)


def minus_objective(params, a, b, c):
    """Negative side: margin over A rows (target +1) + proximal over B."""
    return side_objective(params, _design(a, b), a.shape[0], c, 1.0)


class TestLosses:
    def test_zero_parameters_analytic_value(self):
        # all outputs are 0, so each margin residual is the unit target
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((6, 2))
        params = zero_params(3, 2)
        assert plus_objective(params, a, b, 1.0)[0] == pytest.approx(0.5, abs=1e-15)
        assert minus_objective(params, a, b, 1.0)[0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_c_drops_proximal_term(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((5, 2))
        params = random_params(rng, 3, 2)
        hidden, w, head_b = params
        r = np.tanh(np.tanh(b @ hidden[:, :-1].T + hidden[:, -1]) @ w[0, 0] + head_b[0, 0]) + 1.0
        loss, grads = plus_objective(params, a, b, 0.0)
        assert loss == float(r @ r) / (2.0 * len(b))
        # with c = 0 the own rows leave no trace in the gradient either
        for g, g_other in zip(grads, plus_objective(params, 3.0 * a, b, 0.0)[1]):
            np.testing.assert_array_equal(g, g_other)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(2)
        m, h = 2, 3
        a = rng.standard_normal((4, m))
        b = rng.standard_normal((4, m))
        params = random_params(rng, h, m)
        hw, hb, w, head_b = params[0][:, :-1], params[0][:, -1], params[1][0, 0], params[2][0, 0]
        c = 0.7

        def phi(x):
            return np.tanh(hw @ x + hb)

        margin = 0.0
        for x in b:
            y = np.tanh(w @ phi(x) + head_b)
            margin += (-1.0 - y) ** 2
        margin /= 2 * len(b)
        prox = 0.0
        for x in a:
            prox += (w @ phi(x) + head_b) ** 2
        prox *= c / (2 * len(a))
        assert plus_objective(params, a, b, c)[0] == pytest.approx(margin + prox, rel=1e-12)


class TestGradients:
    def test_zero_parameters(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((5, 2))
        params = zero_params(3, 2)
        g = plus_objective(params, a, b, 1.0)[1]
        # hidden map is zero at zero parameters, so dw vanishes; the
        # proximal gradient is zero and the margin residual is +1
        np.testing.assert_array_equal(g[1], np.zeros((1, 1, 3)))
        assert g[2][0, 0] == pytest.approx(1.0, abs=1e-15)
        for with_c, without_c in zip(g, plus_objective(params, a, b, 0.0)[1]):
            np.testing.assert_array_equal(with_c, without_c)

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_agreement(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        h = int(rng.integers(1, 6))
        n_a = int(rng.integers(1, 7))
        n_b = int(rng.integers(1, 7))
        a = rng.standard_normal((n_a, m))
        b = rng.standard_normal((n_b, m))
        c = float(rng.uniform(0.0, 2.0))
        params = random_params(rng, h, m)
        for objective in (plus_objective, minus_objective):
            fd = central_difference(
                lambda vec: objective(params_from_flat(vec, h, m), a, b, c)[0],
                flatten_nets(params),
            )
            assert max_relative_error(flatten_nets(objective(params, a, b, c)[1]), fd) <= 1e-5

    def test_proximal_component_exactly_linear_in_c(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 3))
        params = random_params(rng, 4, 3)
        # a head bias of 30 saturates tanh on every row, so the margin
        # term's gradient is exactly zero and only the proximal one is left
        params[2] = np.array([[30.0]])
        b = rng.standard_normal((3, 3))
        g1 = plus_objective(params, a, b, 0.65)[1]
        g2 = plus_objective(params, a, b, 1.3)[1]
        assert g1[2][0, 0] != 0.0
        for x1, x2 in zip(g1, g2):
            np.testing.assert_array_equal(x2, 2.0 * x1)


# a head bias of +-40 saturates tanh on every row
HEAD_BIAS = st.floats(-2.0, 2.0) | st.sampled_from([-40.0, 40.0])


class TestFusedObjectives:
    """One pass over the stacked design with folded biases against the
    two-block reference objectives."""

    @settings(max_examples=150, deadline=None)
    @given(n_own=st.integers(1, 12), n_other=st.integers(1, 12), m=st.integers(1, 4),
           h=st.integers(1, 6), c=st.just(0.0) | st.floats(0.0, 3.0), head_bias=HEAD_BIAS,
           target=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2**32 - 1))
    @example(n_own=1, n_other=1, m=2, h=3, c=0.7, head_bias=0.1, target=-1.0, seed=0)
    @example(n_own=1, n_other=5, m=2, h=3, c=0.0, head_bias=0.1, target=1.0, seed=1)
    @example(n_own=4, n_other=6, m=3, h=4, c=1.3, head_bias=40.0, target=-1.0, seed=2)
    @example(n_own=4, n_other=6, m=3, h=4, c=1.3, head_bias=-40.0, target=1.0, seed=3)
    def test_side_objective_matches_two_block_reference(self, n_own, n_other, m, h, c,
                                                        head_bias, target, seed):
        rng = np.random.default_rng(seed)
        own = rng.standard_normal((n_own, m))
        other = rng.standard_normal((n_other, m))
        params = random_params(rng, h, m)
        params[2] = np.array([[head_bias]])
        assert_matches_reference(side_objective(params, _design(other, own), n_other, c, target),
                                 two_block_side_objective(params, own, other, c, target))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 4), h=st.integers(1, 6),
           l2=st.just(0.0) | st.floats(0.0, 1.0), head_bias=HEAD_BIAS,
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, m=2, h=3, l2=0.0, head_bias=0.1, seed=0)
    @example(n=5, m=3, h=4, l2=0.25, head_bias=40.0, seed=1)
    def test_rfnn_objective_matches_two_block_reference(self, n, m, h, l2, head_bias, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, m))
        targets = rng.choice([-1.0, 1.0], size=n)
        params = random_params(rng, h, m)
        params[2] = np.array([[head_bias]])
        assert_matches_reference(rfnn_objective(params, _design(rows), targets, l2),
                                 two_block_rfnn_objective(params, rows, targets, l2))


def general_backprop(plane_w, design, phi, delta):
    """``_backprop``'s p-plane expression net by net, with (1 - phi^2) *
    (plane_w.T @ delta) formed out of place."""
    dpre = np.stack([(1.0 - f * f) * (w.T @ d) for w, f, d in zip(plane_w, phi, delta)])
    return [np.vstack(dpre) @ design.T, np.stack([d @ f.T for f, d in zip(phi, delta)]),
            delta.sum(axis=2)], dpre


class TestFeatureMajorLayout:
    """Training runs on an (M+1, N) design with (K, h, N) activations."""

    def test_design_is_feature_major_with_the_ones_row_last(self):
        rng = np.random.default_rng(40)
        other, own = rng.standard_normal((5, 3)), rng.standard_normal((2, 3))
        design = _design(other, own)
        assert design.shape == (4, 7) and design.flags.c_contiguous
        np.testing.assert_array_equal(design[:-1], np.vstack((other, own)).T)
        np.testing.assert_array_equal(design[-1], np.ones(7))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 80), m=st.integers(1, 8), h=st.integers(1, 16),
           p=st.integers(1, 3), k=st.integers(1, 3), w_scale=st.floats(-3.0, 3.0),
           d_scale=st.floats(-6.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_one_plane_case_matches_the_general_form(self, n, m, h, p, k, w_scale, d_scale,
                                                     seed):
        rng = np.random.default_rng(seed)
        design = _design(rng.standard_normal((n, m)))
        phi = np.tanh(3.0 * rng.standard_normal((k, h, n)))
        plane_w = rng.standard_normal((k, p, h)) * 10.0**w_scale
        delta = rng.standard_normal((k, p, n)) * 10.0**d_scale
        got = twin_nn._backprop(plane_w, design, phi.copy(), delta)
        want, dpre = general_backprop(plane_w, design, phi, delta)
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
        if p > 1:
            np.testing.assert_array_equal(got[0], want[0])
        else:
            # two in-place broadcasts round (1 - phi^2) * delta * w in another
            # order than the product; the sum over N then differs by a few
            # ulps of its terms, so the scale is that of the terms, which
            # cancellation can put far above the signed gradient's
            scale = np.max(np.abs(np.vstack(dpre)) @ np.abs(design).T)
            assert np.max(np.abs(got[0] - want[0])) <= 1e-15 * scale


class TestInitNet:
    def test_golden_values_pin_the_draw(self):
        # frozen from the one initializer's stream: W and c, each plane,
        # then the plane biases; every trained model starts here
        hidden = [[-0.5885066301327597, -0.17114777082784638, 0.6955157656059248],
                  [0.2546198336919083, 0.6006065231233384, 0.38146920325330647]]
        one = _init_net(Rng(42), 2, 2, 1)
        assert [a.tolist() for a in one] == [
            hidden, [[[0.31007845450158555, 0.4949866883240004]]], [[0.3696391944752233]]]
        two = _init_net(Rng(42), 2, 2, 2)
        assert [a.tolist() for a in two] == [
            hidden,
            [[[0.31007845450158555, 0.4949866883240004],
              [0.3696391944752233, 0.11787372424506593]]],
            [[0.2580273226999147, -0.29602634821930146]]]


def separable_blobs(seed=0, n=20):
    return gaussian_blobs([(2.5, 0.0), (-2.5, 0.0)], [n, n], std=0.8,
                          seed=seed, labels=[1, -1])


class TestTrain:
    def test_separable_blobs_reach_full_training_accuracy(self):
        ds = separable_blobs(seed=1)
        model = train(ds, TwinHyper(hidden=6, lr=0.05, epochs=500, seed=2))
        assert np.mean(predict(model, ds.features) == ds.labels) == 1.0
        assert len(model.bank.final_loss) == 2 and None not in model.bank.final_loss

    def test_imbalanced_blobs_beat_rfnn_on_gmeans(self):
        ds = gaussian_blobs([(1.6, 0.0), (-1.6, 0.0)], [15, 300], std=1.0,
                            seed=3, labels=[1, -1])
        twin = train(ds, TwinHyper(hidden=8, lr=0.1, epochs=400, seed=4))
        rfnn = train_rfnn_baseline(ds, hidden=8, lr=0.1, epochs=400, l2=1e-4, seed=4)
        g_twin = metrics(confusion(ds.labels, predict(twin, ds.features))).gmeans
        g_rfnn = metrics(confusion(ds.labels, rfnn_predict(rfnn, ds.features))).gmeans
        assert g_twin >= g_rfnn

    def test_zero_epochs_returns_initialized_model(self):
        ds = separable_blobs(seed=5)
        model = train(ds, TwinHyper(hidden=4, epochs=0, seed=6))
        assert model.bank.plane_norms.shape == (2, 1, 1) and (model.bank.plane_norms > 0).all()
        labels = predict(model, ds.features)
        assert set(np.unique(labels)) <= {-1, 1}

    def test_single_class_rejected(self):
        ds = Dataset(np.random.default_rng(0).standard_normal((5, 2)), [1] * 5)
        with pytest.raises(DataError, match="both classes"):
            train(ds, TwinHyper())

    def test_non_pm1_labels_rejected(self):
        ds = Dataset(np.ones((4, 2)), [0, 1, 0, 1])
        with pytest.raises(DataError, match="make_imbalanced"):
            train(ds, TwinHyper())

    def test_divergence_names_side_and_epoch(self):
        ds = separable_blobs(seed=7)
        with pytest.raises(DivergenceError) as err:
            train(ds, TwinHyper(hidden=4, lr=1e9, epochs=50, seed=8))
        assert err.value.side in ("plus", "minus")
        assert err.value.epoch is not None

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_one_side_alone_is_that_side_of_train(self, side):
        ds = separable_blobs(seed=11)
        hyper = TwinHyper(hidden=5, lr=0.05, epochs=60, seed=12)
        alone, full = twin_nn.train_side(ds, hyper, side), train(ds, hyper).bank
        # the side's slice of the twin pair's bank of two (h = 5)
        k = ["plus", "minus"].index(side)
        hidden, net = slice(5 * k, 5 * k + 5), slice(k, k + 1)
        for name, rows in (("weights", hidden), ("biases", hidden), ("plane_weights", net),
                           ("plane_biases", net)):
            assert getattr(alone, name).tobytes() == getattr(full, name)[rows].tobytes()
        assert alone.final_loss == full.final_loss[k:k + 1]

    def test_bit_reproducible(self):
        ds = separable_blobs(seed=9)
        hyper = TwinHyper(hidden=5, lr=0.05, epochs=60, seed=10)
        m1 = train(ds, hyper)
        m2 = train(ds, hyper)
        np.testing.assert_array_equal(m1.bank.weights, m2.bank.weights)
        np.testing.assert_array_equal(m1.bank.plane_weights, m2.bank.plane_weights)
        assert m1.bank.final_loss == m2.bank.final_loss

    def test_label_and_c_swap_flips_every_prediction(self):
        ds = gaussian_blobs([(1.5, 0.5), (-1.0, -0.5)], [12, 30], std=1.2,
                            seed=11, labels=[1, -1])
        hyper = TwinHyper(c_plus=0.4, c_minus=0.9, hidden=5, lr=0.05,
                          epochs=120, seed=12)
        model = train(ds, hyper)
        swapped_data = Dataset(ds.features, -ds.labels)
        swapped_hyper = TwinHyper(c_plus=hyper.c_minus, c_minus=hyper.c_plus,
                                  hidden=5, lr=0.05, epochs=120, seed=12)
        swapped = train(swapped_data, swapped_hyper)
        grid = np.random.default_rng(13).standard_normal((200, 2)) * 2.0
        d = decision_values(model, grid)
        d_swapped = decision_values(swapped, grid)
        np.testing.assert_array_equal(d_swapped[0], d[1])
        np.testing.assert_array_equal(d_swapped[1], d[0])
        np.testing.assert_array_equal(predict(swapped, grid), -predict(model, grid))

    def test_loss_decreases_with_small_lr(self):
        ds = separable_blobs(seed=14, n=8)
        a = ds.features[ds.labels == 1]
        b = ds.features[ds.labels == -1]
        hyper = TwinHyper(hidden=3, lr=0.01, epochs=200, seed=15, tol=0.0)
        model = train(ds, hyper)
        # walk the plus-side trajectory by hand and count loss increases
        params = _init_net(Rng(hyper.seed), 2, 3, 1)
        losses = []
        for _ in range(200):
            loss, grads = plus_objective(params, a, b, hyper.c_plus)
            losses.append(loss)
            params = [p - hyper.lr * g for p, g in zip(params, grads)]
        increases = sum(1 for x, y in zip(losses, losses[1:]) if y > x)
        assert increases <= 0.05 * len(losses)
        assert model.bank.final_loss[0] <= losses[0]
        # with tol = 0 training takes exactly these steps; the plus side is
        # the bank's first net
        np.testing.assert_array_equal(model.bank.weights[:3], params[0][:, :-1])
        assert model.bank.plane_biases[0, 0, 0] == params[2][0, 0]

    @pytest.mark.parametrize("epochs", [0, 1, 7])
    def test_one_objective_call_per_epoch(self, epochs, monkeypatch):
        calls = {-1.0: 0, 1.0: 0}

        def counted(params, design, n_other, c, target):
            calls[target] += 1
            return core(params, design, n_other, c, target)

        core = twin_nn.side_objective
        monkeypatch.setattr(twin_nn, "side_objective", counted)
        train(separable_blobs(seed=26, n=6), TwinHyper(hidden=3, epochs=epochs, tol=0.0))
        # one forward pass per epoch plus one for the final loss, per side
        assert calls == {-1.0: epochs + 1, 1.0: epochs + 1}

    def test_tol_stops_early(self, monkeypatch):
        calls = []
        core = twin_nn.side_objective
        monkeypatch.setattr(twin_nn, "side_objective",
                            lambda *args: calls.append(1) or core(*args))
        hyper = TwinHyper(hidden=3, lr=0.2, epochs=5000, tol=1e-4, seed=27)
        train(separable_blobs(seed=26, n=6), hyper)
        assert 2 < len(calls) < 2 * (hyper.epochs + 1)

    def test_design_built_once_per_side(self, monkeypatch):
        calls = []
        build = twin_nn._design
        monkeypatch.setattr(twin_nn, "_design",
                            lambda *blocks: calls.append(len(blocks)) or build(*blocks))
        train(separable_blobs(seed=26, n=6), TwinHyper(hidden=3, epochs=7, tol=0.0))
        # one stacked [other; own | 1] design per side, none per epoch
        assert calls == [2, 2]


class TestPredict:
    def test_identical_sides_tie_goes_positive(self):
        rng = np.random.default_rng(16)
        side = random_side(rng, 3, 2)
        model = TwinNNModel(TanhBank.join([side, side]), TwinHyper(hidden=3))
        x = rng.standard_normal((50, 2))
        assert np.all(predict(model, x) == 1)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(17)
        plus = random_side(rng, 4, 3)
        minus = random_side(rng, 4, 3)
        model = TwinNNModel(TanhBank.join([plus, minus]), TwinHyper(hidden=4))
        lam = 37.5
        scaled_plus = TanhBank(plus.weights, plus.biases[:, 0], lam * plus.plane_weights,
                               lam * plus.plane_biases[:, :, 0])
        scaled = TwinNNModel(TanhBank.join([scaled_plus, minus]), TwinHyper(hidden=4))
        x = rng.standard_normal((100, 3))
        np.testing.assert_array_equal(predict(model, x), predict(scaled, x))

    def test_point_on_positive_plane_wins(self):
        # zero hidden biases and zero head bias put x=0 on the plus plane
        pair = TanhBank(np.ones((4, 2)), np.zeros(4), [[[1.0, 1.0]], [[1.0, 1.0]]], [[0.0], [0.5]])
        model = TwinNNModel(pair, TwinHyper(hidden=2))
        assert predict(model, np.zeros(2)) == 1
        d_plus, d_minus = decision_values(model, np.zeros(2))
        assert d_plus == 0.0 and d_minus > 0.0

    def test_zero_norm_head_errors(self):
        # a plane without weights has no distance, so no bank holds one,
        # whichever of its nets has it
        with pytest.raises(ValueError, match=r"planes \(net, plane\) \[\[1, 0\]\] have zero or "
                                             "overflowing norm"):
            TanhBank(np.ones((4, 2)), np.zeros(4), [[[1.0, 1.0]], [[0.0, 0.0]]], [[0.0], [1.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("array", range(4))
    def test_non_finite_parameters_error(self, array, value):
        params = [np.ones((4, 2)), np.zeros(4), np.ones((2, 1, 2)), np.zeros((2, 1))]
        params[array].flat[-1] = value
        with pytest.raises(ValueError, match="parameters must be finite"):
            TanhBank(*params)

    def test_overflowing_norm_errors(self):
        with pytest.raises(ValueError, match="zero or overflowing norm"):
            TanhBank(np.ones((2, 2)), np.zeros(2), [[[1e200, 1e200]]], [[0.0]])

    @pytest.mark.parametrize("shapes", [
        ((4, 2), (4,), (2, 1, 3), (2, 1)),  # K*h rows, but planes of width 3
        ((4, 2), (3,), (2, 1, 2), (2, 1)),  # one hidden bias short
        ((4, 2), (4,), (2, 1, 2), (2, 2)),  # two plane biases per one-plane net
        ((4, 2), (4,), (1, 2), (1,)),  # a net's (p, h) planes without the bank axis
        ((0, 2), (0,), (0, 1, 0), (0, 1)),  # no nets
        ((4, 0), (4,), (2, 1, 2), (2, 1)),  # no features
    ])
    def test_shapes_that_disagree_error(self, shapes):
        with pytest.raises(ShapeError, match="needs \\(K\\*h, M\\) weights"):
            TanhBank(*(np.ones(shape) for shape in shapes))


class TestRfnn:
    def test_separable_blobs_full_accuracy(self):
        ds = separable_blobs(seed=20)
        model = train_rfnn_baseline(ds, hidden=6, lr=0.05, epochs=500, l2=0.0, seed=21)
        assert np.mean(rfnn_predict(model, ds.features) == ds.labels) == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_check(self, seed):
        rng = np.random.default_rng(seed + 100)
        m, h, n = 3, 4, 6
        rows = rng.standard_normal((n, m))
        targets = rng.choice([-1.0, 1.0], size=n)
        l2 = float(rng.uniform(0.0, 0.5))
        vec = rng.standard_normal(h * m + 2 * h + 1) * 0.6

        design = _design(rows)
        g = rfnn_objective(params_from_flat(vec, h, m), design, targets, l2)[1]
        fd = central_difference(
            lambda v: rfnn_objective(params_from_flat(v, h, m), design, targets, l2)[0], vec)
        assert max_relative_error(flatten_nets(g), fd) <= 1e-5

    def test_divergence_names_side_and_epoch(self):
        ds = separable_blobs(seed=7)
        with pytest.raises(DivergenceError) as err:
            train_rfnn_baseline(ds, hidden=4, lr=1e9, epochs=50, seed=8)
        assert err.value.side == "rfnn"
        assert err.value.epoch is not None

    def test_one_objective_call_per_epoch(self, monkeypatch):
        calls = []
        core = twin_nn.rfnn_objective
        monkeypatch.setattr(twin_nn, "rfnn_objective",
                            lambda *args: calls.append(1) or core(*args))
        train_rfnn_baseline(separable_blobs(seed=26, n=6), hidden=3, epochs=9)
        assert len(calls) == 10

    def test_design_built_once(self, monkeypatch):
        calls = []
        build = twin_nn._design
        monkeypatch.setattr(twin_nn, "_design",
                            lambda *blocks: calls.append(len(blocks)) or build(*blocks))
        train_rfnn_baseline(separable_blobs(seed=26, n=6), hidden=3, epochs=9)
        assert calls == [1]

    def test_extreme_l2_drives_weights_and_outputs_down(self):
        # lr * l2 = 1 keeps the penalty step stable and collapses the
        # weights immediately; outputs settle at the unpenalized bias,
        # far inside the +-1 targets
        ds = separable_blobs(seed=22, n=15)
        model = train_rfnn_baseline(ds, hidden=4, lr=1e-6, epochs=200, l2=1e6, seed=23)
        assert np.max(np.abs(model.bank.plane_weights)) < 1e-3
        assert np.max(np.abs(model.bank.weights)) < 1e-3
        outputs = rfnn_decision(model, ds.features)
        assert np.max(np.abs(outputs)) < 0.7
        assert np.max(np.abs(outputs - model.bank.plane_biases[0, 0, 0])) < 1e-3

    def test_deterministic(self):
        ds = separable_blobs(seed=24, n=10)
        m1 = train_rfnn_baseline(ds, hidden=3, epochs=40, seed=25)
        m2 = train_rfnn_baseline(ds, hidden=3, epochs=40, seed=25)
        np.testing.assert_array_equal(m1.bank.plane_weights, m2.bank.plane_weights)
        assert m1.bank.final_loss == m2.bank.final_loss and m1.bank.final_loss[0] is not None
