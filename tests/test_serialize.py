import json

import numpy as np
import pytest

from conftest import gaussian_blobs
from twinlearn.multiclass import MCHyper, mc_predict, mc_train
from twinlearn.serialize import load_model, model_from_dict, model_to_dict, save_model
from twinlearn.twin_nn import (
    TwinHyper,
    decision_values,
    predict,
    rfnn_decision,
    train,
    train_rfnn_baseline,
)
from twinlearn.twsvm import KernelSpec, TwsvmProblem, solve_dual, twsvm_distances


def binary_blobs(seed=0):
    return gaussian_blobs([(2, 0), (-2, 0)], [12, 12], std=0.8, seed=seed,
                          labels=[1, -1])


class TestTwinNNRoundTrip:
    def test_schema_keys(self):
        model = train(binary_blobs(), TwinHyper(hidden=3, epochs=20, seed=1))
        d = model_to_dict(model)
        assert {"version", "M", "h", "hyper", "plus", "minus"} <= set(d)
        assert {"hidden_w", "hidden_b", "w", "b"} == set(d["plus"])

    def test_exact_roundtrip_through_file(self, tmp_path):
        model = train(binary_blobs(), TwinHyper(hidden=4, epochs=30, seed=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.plus.weights, model.plus.weights)
        np.testing.assert_array_equal(back.minus.plane_weights, model.minus.plane_weights)
        assert back.hyper == model.hyper
        x = np.random.default_rng(0).standard_normal((40, 2))
        np.testing.assert_array_equal(predict(back, x), predict(model, x))
        np.testing.assert_array_equal(decision_values(back, x)[0],
                                      decision_values(model, x)[0])

    def test_floats_survive_json_text(self):
        model = train(binary_blobs(), TwinHyper(hidden=3, epochs=25, seed=3))
        text = json.dumps(model_to_dict(model))
        back = model_from_dict(json.loads(text))
        np.testing.assert_array_equal(back.plus.plane_weights, model.plus.plane_weights)


class TestOtherKinds:
    def test_multiclass_roundtrip(self, tmp_path):
        ds = gaussian_blobs([(2, 0), (-2, 0), (0, 2)], [8, 8, 8], seed=4)
        model = mc_train(ds, MCHyper(subnet_features=3, planes=2, epochs=20, seed=5))
        path = tmp_path / "mc.json"
        save_model(model, path)
        back = load_model(path)
        assert back.class_ids.tolist() == model.class_ids.tolist()
        x = np.random.default_rng(1).standard_normal((30, 2))
        np.testing.assert_array_equal(mc_predict(back, x), mc_predict(model, x))

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"),
                                        KernelSpec("rbf", gamma=0.9)])
    def test_twsvm_roundtrip(self, tmp_path, kernel):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 2)) + [1.5, 0]
        b = rng.standard_normal((5, 2)) - [1.5, 0]
        model = solve_dual(TwsvmProblem(a, b, c1=1.0, c2=1.0, kernel=kernel))
        path = tmp_path / "twsvm.json"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.u, model.u)
        assert back.norm_plus == pytest.approx(model.norm_plus, rel=1e-15)
        x = rng.standard_normal((20, 2))
        np.testing.assert_array_equal(twsvm_distances(back, x)[0],
                                      twsvm_distances(model, x)[0])

    def test_rfnn_roundtrip(self, tmp_path):
        model = train_rfnn_baseline(binary_blobs(7), hidden=3, epochs=25, seed=8)
        path = tmp_path / "rfnn.json"
        save_model(model, path)
        back = load_model(path)
        x = np.random.default_rng(2).standard_normal((15, 2))
        np.testing.assert_array_equal(rfnn_decision(back, x), rfnn_decision(model, x))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            model_from_dict({"version": 1, "kind": "mystery"})

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({"version": 99, "kind": "twin_nn"})
