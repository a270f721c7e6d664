"""Every entry of the model-kind table fits, saves, reloads and predicts,
and refuses input of the wrong width through its plane type's one check."""

import json

import numpy as np
import pytest

from conftest import gaussian_blobs
from twinlearn.cli import main
from twinlearn.data import Dataset, save_csv
from twinlearn.harness import BINARY_MODELS, MODEL_KINDS, fit_model, fit_onevsrest, ovr_predict
from twinlearn.models import MODELS
from twinlearn.numcore import ShapeError
from twinlearn.serialize import model_from_dict, model_to_dict
from twinlearn.twin_nn import TanhNet
from twinlearn.twsvm import KernelSpec, TwsvmProblem, solve_plus

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
def test_batch_labels_are_int64(kind):
    ds = _dataset(kind)
    labels = MODELS[kind].predict(fit_model(kind, ds, PARAMS.get(kind, {}), seed=1),
                                  ds.features)
    assert labels.dtype == np.int64
    assert labels.shape == (ds.features.shape[0],)


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


def _wider(ds):
    """The dataset's rows with one more column."""
    return np.column_stack((ds.features, np.ones(ds.features.shape[0])))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_refuses_the_wrong_width(kind):
    ds = _dataset(kind)
    model = fit_model(kind, ds, PARAMS.get(kind, {}), seed=1)
    m = ds.n_features
    for x in (_wider(ds), _wider(ds)[0]):
        with pytest.raises(ShapeError, match=f"^expected {m} features, got {m + 1}$"):
            MODELS[kind].predict(model, x)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_cli_predict_refuses_the_wrong_width(tmp_path, capsys, kind):
    ds = _dataset(kind)
    data, wide = str(tmp_path / "data.csv"), str(tmp_path / "wide.csv")
    save_csv(ds, data)
    save_csv(Dataset(_wider(ds), ds.labels), wide)
    model_path = str(tmp_path / "model.json")
    grid = [arg for key, value in PARAMS.get(kind, {}).items()
            for arg in ("--grid", f"{key}={value}")]
    assert main(["train", "--data", data, "--model", kind, "--out", model_path] + grid) == 0
    capsys.readouterr()
    assert main(["predict", "--data", wide, "--model-file", model_path]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: expected {ds.n_features} features, got {ds.n_features + 1}\n"


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_takes_only_a_sample_or_a_batch(kind):
    ds = _dataset(kind)
    model = fit_model(kind, ds, PARAMS.get(kind, {}), seed=1)
    for x in (np.float64(1.0), ds.features.reshape(2, -1, ds.n_features)):
        with pytest.raises(ShapeError, match=r"^expected one sample \(M,\) or a batch"):
            MODELS[kind].predict(model, x)


@pytest.mark.parametrize("kind", BINARY_MODELS)
def test_one_vs_rest_refuses_the_wrong_width(kind):
    ds = gaussian_blobs([(2, 0), (-2, 0), (0, 2)], [8, 8, 8], std=0.8, seed=4)
    ensemble = fit_onevsrest(ds, kind, PARAMS.get(kind, {}), seed=2)
    with pytest.raises(ShapeError, match="^expected 2 features, got 3$"):
        ovr_predict(ensemble, _wider(ds))
    with pytest.raises(ShapeError, match=r"^expected one sample \(M,\) or a batch"):
        ovr_predict(ensemble, ds.features.reshape(2, -1, 2))


def _planes():
    """A 1-plane and a 3-plane ``TanhNet`` and a linear and an RBF
    ``TwsvmPlane``, all on 3 features."""
    rng = np.random.default_rng(21)
    nets = [TanhNet(rng.standard_normal((5, 3)), rng.standard_normal(5),
                    rng.standard_normal((p, 5)), rng.standard_normal(p)) for p in (1, 3)]
    a, b = rng.standard_normal((10, 3)) + 1.0, rng.standard_normal((14, 3)) - 1.0
    return nets + [solve_plus(TwsvmProblem(a, b, 1.0, 1.0, kernel))
                   for kernel in (KernelSpec(), KernelSpec("rbf", 0.5))]


@pytest.mark.parametrize("plane", _planes(), ids=["net1", "net3", "linear", "rbf"])
def test_one_sample_distance_is_a_batch_of_one(plane):
    # one sample is measured as a batch of one, bit for bit; against a row
    # of a larger batch it agrees to rounding only, since BLAS reduces one
    # row and many rows in different orders
    x = np.random.default_rng(22).standard_normal((40, 3))
    batch = plane.distance(x)
    assert batch.shape == (40,)
    for i in range(40):
        one = plane.distance(x[i])
        assert np.ndim(one) == 0
        assert one == plane.distance(x[i:i + 1])[0]
        np.testing.assert_allclose(one, batch[i], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("plane", _planes(), ids=["net1", "net3", "linear", "rbf"])
@pytest.mark.parametrize("shape", [(), (2, 5, 3), (2, 3, 5)])
def test_distance_takes_only_a_sample_or_a_batch(plane, shape):
    # a (2, 5, 3) array used to give (2, 5) net distances, a 0-d one an
    # IndexError, and a (2, 3, 5) one a matmul ValueError from a twin SVM plane
    with pytest.raises(ShapeError, match=r"^expected one sample \(M,\) or a batch \(N, M\), "
                                         rf"got shape \({', '.join(map(str, shape))}\)$"):
        plane.distance(np.ones(shape))


@pytest.mark.parametrize("plane", _planes()[:3], ids=["net1", "net3", "linear"])
def test_an_empty_batch_has_no_distances(plane):
    assert plane.distance(np.empty((0, 3))).shape == (0,)
