import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twinlearn.multiclass as multiclass
from conftest import (
    assert_matches_reference,
    central_difference,
    flatten,
    gaussian_blobs,
    max_relative_error,
    two_block_mc_objective,
)
from twinlearn.data import DataError, Dataset, make_imbalanced
from twinlearn.multiclass import (
    MCHyper,
    MulticlassTwinModel,
    loss_from_mins,
    mc_distances,
    mc_objective,
    mc_predict,
    mc_train,
)
from twinlearn.twin_nn import TanhNet, TwinHyper, predict, train


def random_bank(rng, n_features, n, p, scale=0.8):
    return TanhNet(
        rng.standard_normal((n, n_features)) * scale,
        rng.standard_normal(n) * scale,
        rng.standard_normal((p, n)) * scale,
        rng.standard_normal(p) * scale,
    )


def random_model(rng, class_ids, n_features=2, n=2, p=2, hyper=None):
    banks = tuple(random_bank(rng, n_features, n, p) for _ in class_ids)
    return MulticlassTwinModel(sorted(class_ids), banks,
                               hyper or MCHyper(subnet_features=n, planes=p), n_features)


def flatten_model(model):
    parts = []
    for bank in model.banks:
        parts += [bank.weights.ravel(), bank.biases,
                  bank.plane_weights.ravel(), bank.plane_biases]
    return np.concatenate(parts)


def model_from_flat(model, vec):
    banks = []
    i = 0
    for bank in model.banks:
        n, m = bank.weights.shape
        p = bank.plane_weights.shape[0]
        sw = vec[i:i + n * m].reshape(n, m); i += n * m
        sb = vec[i:i + n]; i += n
        pw = vec[i:i + p * n].reshape(p, n); i += p * n
        pb = vec[i:i + p]; i += p
        banks.append(TanhNet(sw, sb, pw, pb))
    return MulticlassTwinModel(model.class_ids, tuple(banks), model.hyper, model.n_features)


def activations(bank, x):
    """tanh plane outputs of a bank, in (-1, 1)."""
    return np.tanh(bank.planes(x))


class TestClassDistance:
    def test_point_on_plane_has_zero_distance(self):
        # zero subnet biases and zero plane bias put x=0 on plane 0
        bank = TanhNet(
            np.ones((2, 2)), np.zeros(2),
            np.array([[1.0, 1.0], [2.0, 0.5]]),
            np.array([0.0, 3.0]),
        )
        assert bank.distance(np.zeros(2)) == 0.0

    def test_single_plane_reduces_to_normalized_activation(self):
        rng = np.random.default_rng(0)
        bank = random_bank(rng, 3, 2, 1)
        x = rng.standard_normal(3)
        z = bank.planes(x)
        expected = abs(float(z[0])) / np.linalg.norm(bank.plane_weights[0])
        assert bank.distance(x) == pytest.approx(expected, rel=1e-15)

    def test_matches_exhaustive_min_oracle(self):
        rng = np.random.default_rng(1)
        bank = random_bank(rng, 2, 3, 3)
        for _ in range(20):
            x = rng.standard_normal(2)
            z = bank.planes(x)
            norms = np.linalg.norm(bank.plane_weights, axis=1)
            explicit = min(abs(float(z[j])) / norms[j] for j in range(3))
            assert bank.distance(x) == pytest.approx(explicit, rel=1e-15)

    def test_zero_norm_plane_errors(self):
        with pytest.raises(ValueError, match=r"planes \[0\] have zero or overflowing norm"):
            TanhNet(np.ones((2, 2)), np.zeros(2), np.array([[0.0, 0.0]]), np.array([1.0]))

    def test_nonnegative_and_zero_iff_on_a_plane(self):
        rng = np.random.default_rng(30)
        bank = random_bank(rng, 2, 2, 3)
        for _ in range(50):
            x = rng.standard_normal(2)
            d = bank.distance(x)
            assert d >= 0.0
            z = bank.planes(x)
            assert (d == 0.0) == bool((z == 0.0).any())


class TestLoss:
    def test_both_targets_met_gives_zero(self):
        assert loss_from_mins(0.0, 1.0, margin_weight=2.0) == 0.0

    def test_clamp_beyond_unit_target(self):
        assert loss_from_mins(0.3, 1.5, margin_weight=2.0) == 2.0 * 0.09

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(2)
        hyper = MCHyper(subnet_features=2, planes=2, margin_weight=0.8)
        model = random_model(rng, [0, 1, 2], hyper=hyper)
        x = rng.standard_normal((6, 2))
        y = np.array([0, 1, 2, 0, 1, 2])
        total = 0.0
        for xi, yi in zip(x, y):
            own = min(abs(float(a)) for a in activations(model.banks[yi], xi))
            other = min(
                abs(float(a))
                for k, bank in enumerate(model.banks) if k != yi
                for a in activations(bank, xi)
            )
            total += loss_from_mins(own, other, 0.8)
        assert mc_objective(model, x, y)[0] == pytest.approx(total / 6.0, rel=1e-12)

    def test_unknown_class_rejected(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, [0, 1])
        with pytest.raises(DataError, match="unknown"):
            mc_objective(model, np.zeros((1, 2)), [5])


def resample_until_clear_of_ties(rng, class_ids, gap=1e-3):
    """Random instance whose per-sample min activations are unambiguous."""
    while True:
        model = random_model(rng, class_ids)
        x = rng.standard_normal((5, 2))
        y = np.array([rng.choice(class_ids) for _ in range(5)])
        acts = np.abs(np.stack([activations(b, x) for b in model.banks]))
        k, n, p = acts.shape
        ok = True
        for i in range(n):
            own = np.sort(acts[list(model.class_ids).index(y[i]), i])
            mask = np.ones(k, dtype=bool)
            mask[list(model.class_ids).index(y[i])] = False
            others = np.sort(acts[mask, i, :].ravel())
            if own.size > 1 and own[1] - own[0] < gap:
                ok = False
            if others[1] - others[0] < gap:
                ok = False
            # keep the hinge clamp inactive region unambiguous too
            if abs(others[0] - 1.0) < gap:
                ok = False
        if ok:
            return model, x, y


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_agreement_away_from_ties(self, seed):
        rng = np.random.default_rng(seed + 10)
        model, x, y = resample_until_clear_of_ties(rng, [0, 1, 2])
        grads = mc_objective(model, x, y)[1]
        fd = central_difference(
            lambda vec: mc_objective(model_from_flat(model, vec), x, y)[0],
            flatten_model(model), eps=1e-6)
        assert max_relative_error(flatten(grads), fd, floor=1e-6) <= 1e-5

    def test_min_routes_to_single_plane(self):
        rng = np.random.default_rng(20)
        model, x, y = resample_until_clear_of_ties(rng, [0, 1])
        grads = mc_objective(model, x[:1], y[:1])[1]
        # exactly one plane per group receives gradient in plane space
        plane_biases = grads[3::4]
        touched = [int(np.count_nonzero(np.abs(g) > 0)) for g in plane_biases]
        assert sum(touched) <= 2


def clear_of_near_ties(acts, class_idx, gap=1e-6):
    """True when every row's own and foreign min |activation| and the
    hinge at 1 are each unambiguous by ``gap``."""
    for i, k in enumerate(class_idx):
        own = np.sort(acts[k, i])
        others = np.sort(np.delete(acts[:, i, :], k, axis=0).ravel())
        if (own.size > 1 and own[1] - own[0] < gap) or abs(others[0] - 1.0) < gap:
            return False
        if others.size > 1 and others[1] - others[0] < gap:
            return False
    return True


class TestFusedObjective:
    """One design with folded subnet biases and the shared backprop against
    the two-block reference objective."""

    @settings(max_examples=150, deadline=None)
    @given(n_banks=st.integers(2, 4), planes=st.integers(1, 3), m=st.integers(1, 4),
           n=st.integers(1, 5), others=st.lists(st.integers(1, 6), min_size=3, max_size=3),
           margin_weight=st.just(0.0) | st.floats(0.0, 3.0), tie=st.just("none"),
           seed=st.integers(0, 2**32 - 1))
    @example(n_banks=2, planes=1, m=2, n=3, others=[4, 1, 1], margin_weight=0.0,
             tie="none", seed=0)
    @example(n_banks=3, planes=2, m=3, n=4, others=[5, 2, 1], margin_weight=1.0,
             tie="banks", seed=1)
    @example(n_banks=4, planes=3, m=2, n=3, others=[3, 3, 2], margin_weight=0.5,
             tie="planes", seed=2)
    @example(n_banks=2, planes=2, m=1, n=1, others=[1, 1, 1], margin_weight=2.0,
             tie="banks", seed=3)
    def test_mc_objective_matches_two_block_reference(self, n_banks, planes, m, n, others,
                                                      margin_weight, tie, seed):
        rng = np.random.default_rng(seed)
        # class 0 has a single row; rows arrive in shuffled class order
        labels = rng.permutation(np.repeat(np.arange(n_banks), [1] + others[:n_banks - 1]))
        x = rng.standard_normal((labels.size, m))
        model = random_model(rng, range(n_banks), n_features=m, n=n, p=planes,
                             hyper=MCHyper(subnet_features=n, planes=planes,
                                           margin_weight=margin_weight))
        if tie == "banks":  # every bank the same: foreign mins tie across banks
            model = MulticlassTwinModel(model.class_ids, (model.banks[0],) * n_banks,
                                        model.hyper, m)
        if tie == "planes":  # every plane of a bank the same: mins tie within it
            model = MulticlassTwinModel(model.class_ids, tuple(
                TanhNet(b.weights, b.biases, np.repeat(b.plane_weights[:1], planes, axis=0),
                        np.repeat(b.plane_biases[:1], planes)) for b in model.banks),
                model.hyper, m)
        params = [a for b in model.banks
                  for a in (b.weights, b.biases, b.plane_weights, b.plane_biases)]
        reference = two_block_mc_objective(params, x, labels, margin_weight)
        if tie == "none":
            acts = np.abs(np.stack([activations(b, x) for b in model.banks]))
            assume(clear_of_near_ties(acts, labels))
        assert_matches_reference(mc_objective(model, x, labels), reference)


class TestTrain:
    def test_three_blob_accuracy(self):
        ds = gaussian_blobs([(3, 0), (-3, 0), (0, 3)], [60, 60, 60], std=0.7, seed=4)
        rng = np.random.default_rng(5)
        order = rng.permutation(ds.n_samples)
        train_idx, test_idx = order[:135], order[135:]
        model = mc_train(ds.rows(train_idx),
                         MCHyper(subnet_features=6, planes=2, lr=0.1, epochs=600, seed=6))
        test = ds.rows(test_idx)
        acc = np.mean(mc_predict(model, test.features) == test.labels)
        assert acc >= 0.95

    def test_two_class_agrees_with_binary_twin(self):
        ds = gaussian_blobs([(2.5, 0), (-2.5, 0)], [40, 40], std=0.8, seed=7,
                            labels=[0, 1])
        mc_model = mc_train(ds, MCHyper(subnet_features=5, planes=1, lr=0.1,
                                        epochs=500, seed=8))
        binary = make_imbalanced(ds, 0)
        twin = train(binary, TwinHyper(hidden=5, lr=0.1, epochs=500, seed=8))
        mc_labels = mc_predict(mc_model, ds.features)
        twin_labels = predict(twin, ds.features)
        agreement = np.mean((mc_labels == 0) == (twin_labels == 1))
        assert agreement >= 0.9

    def test_zero_epochs_model_is_usable(self):
        ds = gaussian_blobs([(1, 0), (-1, 0), (0, 1)], [5, 5, 5], seed=9)
        model = mc_train(ds, MCHyper(subnet_features=3, planes=2, epochs=0, seed=10))
        labels = mc_predict(model, ds.features)
        assert set(labels.tolist()) <= {0, 1, 2}

    def test_one_objective_call_per_epoch(self, monkeypatch):
        calls = []
        core = multiclass._mc_objective
        monkeypatch.setattr(multiclass, "_mc_objective",
                            lambda *args: calls.append(1) or core(*args))
        ds = gaussian_blobs([(1, 0), (-1, 0), (0, 1)], [5, 5, 5], seed=9)
        mc_train(ds, MCHyper(subnet_features=3, planes=2, epochs=6, seed=10))
        assert len(calls) == 7

    def test_design_built_once(self, monkeypatch):
        calls = []
        build = multiclass._design
        monkeypatch.setattr(multiclass, "_design",
                            lambda *blocks: calls.append(len(blocks)) or build(*blocks))
        ds = gaussian_blobs([(1, 0), (-1, 0), (0, 1)], [5, 5, 5], seed=9)
        mc_train(ds, MCHyper(subnet_features=3, planes=2, epochs=6, seed=10))
        # one [rows | 1] design for all banks, none per epoch
        assert calls == [1]

    def test_single_class_rejected(self):
        ds = Dataset(np.ones((4, 2)), [3, 3, 3, 3])
        with pytest.raises(DataError, match=">= 2 classes"):
            mc_train(ds, MCHyper())

    def test_class_block_permutation_leaves_model_unchanged(self):
        ds = gaussian_blobs([(2, 0), (-2, 0), (0, 2)], [10, 12, 8], seed=11)
        labels = ds.labels
        reordered = np.concatenate([np.flatnonzero(labels == c) for c in (2, 0, 1)])
        ds2 = ds.rows(reordered)
        hyper = MCHyper(subnet_features=3, planes=2, lr=0.05, epochs=40, seed=12)
        m1 = mc_train(ds, hyper)
        m2 = mc_train(ds2, hyper)
        np.testing.assert_array_equal(m1.class_ids, m2.class_ids)
        for b1, b2 in zip(m1.banks, m2.banks):
            np.testing.assert_array_equal(b1.weights, b2.weights)
            np.testing.assert_array_equal(b1.plane_weights, b2.plane_weights)
        grid = np.random.default_rng(13).standard_normal((50, 2))
        np.testing.assert_array_equal(mc_predict(m1, grid), mc_predict(m2, grid))

    def test_bank_seeds_keyed_to_class_id(self):
        ds = gaussian_blobs([(2, 0), (-2, 0)], [6, 6], seed=14, labels=[5, 9])
        model = mc_train(ds, MCHyper(subnet_features=3, planes=1, epochs=0, seed=15))
        # retraining with one extra class leaves existing banks' init alone
        ds3 = gaussian_blobs([(2, 0), (-2, 0), (0, 2)], [6, 6, 6], seed=14,
                             labels=[5, 9, 7])
        model3 = mc_train(ds3, MCHyper(subnet_features=3, planes=1, epochs=0, seed=15))
        by_id = dict(zip(model3.class_ids.tolist(), model3.banks))
        for class_id, bank in zip(model.class_ids.tolist(), model.banks):
            np.testing.assert_array_equal(bank.weights, by_id[class_id].weights)


class TestPredict:
    def test_point_on_own_plane_wins(self):
        rng = np.random.default_rng(16)
        on_plane = TanhNet(np.ones((2, 2)), np.zeros(2),
                           np.array([[1.0, 0.5]]), np.array([0.0]))
        off_plane = random_bank(rng, 2, 2, 1)
        while off_plane.distance(np.zeros(2)) == 0.0:
            off_plane = random_bank(rng, 2, 2, 1)
        model = MulticlassTwinModel([0, 1], (on_plane, off_plane),
                                    MCHyper(subnet_features=2, planes=1), 2)
        assert mc_predict(model, np.zeros(2)) == 0

    def test_per_bank_rescaling_invariance(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, [0, 1, 2], n_features=3, n=3, p=2)
        scaled_banks = []
        for bank, lam in zip(model.banks, (13.0, 0.25, 400.0)):
            scaled_banks.append(TanhNet(
                bank.weights, bank.biases,
                lam * bank.plane_weights, lam * bank.plane_biases))
        scaled = MulticlassTwinModel(model.class_ids, tuple(scaled_banks), model.hyper, 3)
        x = rng.standard_normal((100, 3))
        np.testing.assert_array_equal(mc_predict(model, x), mc_predict(scaled, x))

    def test_matches_argmin_oracle(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, [2, 5, 9], n_features=2, n=2, p=3)
        x = rng.standard_normal((40, 2))
        d = mc_distances(model, x)
        expected = np.array([model.class_ids[np.argmin(row)] for row in d])
        np.testing.assert_array_equal(mc_predict(model, x), expected)

    def test_tie_goes_to_lowest_class_id(self):
        bank = TanhNet(np.ones((2, 2)), np.zeros(2), np.array([[1.0, 1.0]]), np.array([0.0]))
        bank2 = TanhNet(np.ones((2, 2)), np.zeros(2), np.array([[1.0, 1.0]]), np.array([0.0]))
        model = MulticlassTwinModel([3, 7], (bank, bank2),
                                    MCHyper(subnet_features=2, planes=1), 2)
        assert mc_predict(model, np.zeros(2)) == 3
