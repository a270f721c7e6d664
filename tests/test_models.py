"""Every entry of the model-kind table fits, saves, reloads and predicts."""

import json

import numpy as np
import pytest

from conftest import gaussian_blobs
from twinlearn.cli import main
from twinlearn.data import save_csv
from twinlearn.harness import BINARY_MODELS, MODEL_KINDS, fit_model
from twinlearn.models import MODELS
from twinlearn.serialize import model_from_dict, model_to_dict

# small budgets keep the fits fast; kinds not listed train with defaults
PARAMS = {
    "twin_nn": {"hidden": 3, "epochs": 30},
    "rfnn": {"hidden": 3, "epochs": 30},
    "twsvm_rbf": {"gamma": 0.5},
    "twin_nn_mc": {"subnet_features": 3, "epochs": 30},
}


def _dataset(kind):
    if MODELS[kind].task == "binary":
        return gaussian_blobs([(2, 0), (-2, 0)], [12, 12], std=0.8, seed=3, labels=[1, -1])
    return gaussian_blobs([(2, 0), (-2, 0), (0, 2)], [8, 8, 8], std=0.8, seed=4)


def test_kind_lists_come_from_the_table():
    assert MODEL_KINDS == tuple(MODELS)
    assert BINARY_MODELS == tuple(k for k, v in MODELS.items() if v.task == "binary")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_roundtrip_predict(kind):
    ds = _dataset(kind)
    entry = MODELS[kind]
    model = fit_model(kind, ds, PARAMS.get(kind, {}), seed=1)
    d = model_to_dict(model)
    assert d["kind"] == entry.codec
    back = model_from_dict(json.loads(json.dumps(d)))
    assert type(back) is entry.model_type
    assert model_to_dict(back) == d
    np.testing.assert_array_equal(entry.predict(back, ds.features),
                                  entry.predict(model, ds.features))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_cli_train_then_predict(tmp_path, kind):
    ds = _dataset(kind)
    data = str(tmp_path / "data.csv")
    save_csv(ds, data)
    model_path = str(tmp_path / "model.json")
    grid = [arg for key, value in PARAMS.get(kind, {}).items()
            for arg in ("--grid", f"{key}={value}")]
    assert main(["train", "--data", data, "--model", kind, "--seed", "1",
                 "--out", model_path] + grid) == 0
    preds_path = str(tmp_path / "preds.txt")
    assert main(["predict", "--data", data, "--model-file", model_path,
                 "--out", preds_path]) == 0
    expected = MODELS[kind].predict(fit_model(kind, ds, PARAMS.get(kind, {}), seed=1),
                                    ds.features)
    assert [int(line) for line in open(preds_path)] == expected.tolist()
