"""Every entry of the model-kind table fits, saves, reloads and predicts,
and refuses input of the wrong width through its plane type's one check.
Each model kind checks its hyperparameters with its one hyperparameter
type, in the table, the fits and the model files alike."""

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import gaussian_blobs, own_plane_distance
from twinlearn.cli import main
from twinlearn.data import Dataset, save_csv
from twinlearn.harness import (BINARY_MODELS, MODEL_KINDS, ExperimentSpec, fit_model,
                               fit_onevsrest, ovr_predict)
from twinlearn.models import MODELS
from twinlearn.multiclass import MCHyper
from twinlearn.numcore import ShapeError
from twinlearn.serialize import model_from_dict, model_to_dict
from twinlearn.twin_nn import RfnnHyper, TanhBank, TwinHyper, train_rfnn_baseline
from twinlearn.twsvm import KernelSpec, TwsvmHyper, TwsvmProblem, solve_plus

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
def test_one_sample_label_is_an_int_like_a_batch_of_one(kind):
    # every predict, one-vs-rest included, labels one sample (M,) with an
    # int; ovr_predict used to give numpy.int64
    ds = _dataset(kind)
    predicts = [(MODELS[kind].predict, fit_model(kind, ds, PARAMS.get(kind, {}), seed=1), ds)]
    if kind in BINARY_MODELS:
        three = gaussian_blobs([(2, 0), (-2, 0), (0, 2)], [8, 8, 8], std=0.8, seed=4)
        predicts.append((ovr_predict, fit_onevsrest(three, kind, PARAMS.get(kind, {}), 2), three))
    for predict, model, data in predicts:
        for row in data.features:
            label = predict(model, row)
            assert type(label) is int and label == predict(model, row[None])[0]


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


NETWORK_HYPERS = {"twin_nn": TwinHyper, "rfnn": RfnnHyper, "twin_nn_mc": MCHyper}
HYPERS = {**NETWORK_HYPERS, "twsvm_linear": TwsvmHyper, "twsvm_rbf": TwsvmHyper}

# the range of every hyperparameter but the seed, which has none; each
# must also be a finite number
RANGES = {"hidden": (">=", 1), "subnet_features": (">=", 1), "planes": (">=", 1),
          "lr": (">", 0), "epochs": (">=", 0), "l2": (">=", 0), "c_plus": (">=", 0),
          "c_minus": (">=", 0), "tol": (">=", 0), "margin_weight": (">=", 0),
          "c1": (">", 0), "c2": (">", 0), "ridge": (">=", 0), "gamma": (">", 0)}


def _fields(hyper) -> set:
    return {f.name for f in dataclasses.fields(hyper)} - {"seed"}


def _declared(hyper, name: str) -> str:
    """The annotation of field ``name``: "int", "float" or "float | None"."""
    return {f.name: f.type for f in dataclasses.fields(hyper)}[name]


@pytest.mark.parametrize("kind", NETWORK_HYPERS)
def test_a_network_kind_checks_with_its_hyper_type(kind):
    hyper = NETWORK_HYPERS[kind]
    assert MODELS[kind].check is hyper
    assert MODELS[kind].params == _fields(hyper)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_kind_checks_with_a_frozen_hyper_type(kind):
    hyper = MODELS[kind].check
    assert hyper is HYPERS[kind] and hyper.__dataclass_params__.frozen
    # the linear twin SVM takes every twin SVM field but the RBF bandwidth
    assert MODELS[kind].params == _fields(hyper) - ({"gamma"} if kind == "twsvm_linear" else set())


def test_every_network_hyperparameter_has_a_stated_range():
    # the twin SVM's hyper type included
    assert set().union(*map(_fields, HYPERS.values())) == set(RANGES)


@pytest.mark.parametrize("hyper, name", [(hyper, name) for hyper in dict.fromkeys(HYPERS.values())
                                         for name in sorted(_fields(hyper))])
def test_every_field_is_a_finite_number_in_its_range(hyper, name):
    op, bound = RANGES[name]
    integral = _declared(hyper, name) == "int"
    step = 1 if integral else np.nextafter(float(bound), np.inf) - bound
    lowest = bound if op == ">=" else bound + step
    assert getattr(hyper(**{name: lowest}), name) == lowest
    with pytest.raises(ValueError, match=f"^{name} must be {op} {bound}, got "):
        hyper(**{name: lowest - step})
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            hyper(**{name: value})
    for value in (True, "x"):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
            hyper(**{name: value})
    # a value is stored as its field's declared type
    stored = getattr(hyper(**{name: np.float64(lowest + 2)}), name)
    assert type(stored) is (int if integral else float) and stored == lowest + 2
    if integral:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 1.5$"):
            hyper(**{name: 1.5})


@pytest.mark.parametrize("kind, name, value, message", [
    ("twin_nn", "hidden", 0, "hidden must be >= 1, got 0"),
    ("twin_nn", "lr", 0.0, "lr must be > 0, got 0.0"),
    ("twin_nn", "lr", np.nan, "lr must be finite, got nan"),
    ("twin_nn", "c_minus", -1.0, "c_minus must be >= 0, got -1.0"),
    ("twin_nn", "tol", np.inf, "tol must be finite, got inf"),
    ("rfnn", "hidden", 0, "hidden must be >= 1, got 0"),
    ("rfnn", "epochs", -1, "epochs must be >= 0, got -1"),
    ("rfnn", "l2", np.nan, "l2 must be finite, got nan"),
    ("twin_nn_mc", "planes", 0, "planes must be >= 1, got 0"),
    ("twin_nn_mc", "epochs", -1, "epochs must be >= 0, got -1"),
    ("twin_nn_mc", "margin_weight", np.nan, "margin_weight must be finite, got nan"),
])
def test_the_table_and_the_fit_refuse_alike(kind, name, value, message):
    ds, params = _dataset(kind), {**PARAMS[kind], name: value}
    for refuse in (lambda: MODELS[kind].check_params(params),
                   lambda: fit_model(kind, ds, params, seed=1),
                   lambda: MODELS[kind].fit(ds, params, 1)):
        with pytest.raises(ValueError) as refused:
            refuse()
        assert str(refused.value) == message


def _refused_values(hyper, name: str) -> list:
    """(value, message) pairs that field ``name`` of ``hyper`` refuses:
    nan and +-inf, a bool, a string, None unless the field is optional, a
    fraction in a counting field, and the first value past its bound."""
    cases = [(value, f"{name} must be finite, got {value}") for value in (np.nan, np.inf, -np.inf)]
    cases += [(value, f"{name} must be a number, got {value!r}") for value in (True, "x")]
    declared = _declared(hyper, name)
    if declared != "float | None":
        cases.append((None, f"{name} must be a number, got None"))
    if declared == "int":
        cases.append((2.5, f"{name} must be an integer, got 2.5"))
    if name in RANGES:
        op, bound = RANGES[name]
        past = (bound - 1 if declared == "int" else float(bound) if op == ">"
                else np.nextafter(float(bound), -np.inf))
        cases.append((past, f"{name} must be {op} {bound}, got {past}"))
    return cases


def _file_path(kind: str, name: str):
    """Where a model file of ``kind`` stores hyperparameter ``name``, or
    None: a twin SVM file keeps only the RBF bandwidth, an rfnn file its
    hidden width as ``h``."""
    if kind.startswith("twsvm"):
        return ["kernel", "gamma"] if (kind, name) == ("twsvm_rbf", "gamma") else None
    return ["h"] if (kind, name) == ("rfnn", "hidden") else ["hyper", name]


REFUSALS = [(kind, name, value, message) for kind in MODEL_KINDS
            for name in sorted(MODELS[kind].params | {"seed"})
            if name in MODELS[kind].params or _file_path(kind, name)
            for value, message in _refused_values(MODELS[kind].check, name)]


@functools.lru_cache(maxsize=None)
def _saved(kind: str) -> str:
    """A model file of ``kind``, trained on ``_dataset(kind)``, as JSON."""
    return json.dumps(model_to_dict(fit_model(kind, _dataset(kind), PARAMS.get(kind, {}), 1)))


def _route_refusals(kind: str, name: str, value) -> list:
    """What each library route that takes hyperparameter ``name`` does
    with ``value``: its ValueError message, or None where it took it."""
    ds, params = _dataset(kind), {**PARAMS.get(kind, {}), name: value}
    calls = [lambda: MODELS[kind].check_params(params),
             lambda: ExperimentSpec("never-read.csv", model=kind, grid={name: [value]}),
             lambda: fit_model(kind, ds, params, 1),
             lambda: MODELS[kind].fit(ds, params, 1)]
    if kind in BINARY_MODELS:
        three = gaussian_blobs([(2, 0), (-2, 0), (0, 2)], [8, 8, 8], std=0.8, seed=4)
        calls += [lambda: fit_onevsrest(three, kind, params, 1),
                  lambda: MODELS[kind].own_plane.fit(ds, params, 1)]
    refusals = []
    for call in calls if name in MODELS[kind].params else []:
        try:
            call()
            refusals.append(None)
        except ValueError as refused:
            refusals.append(str(refused))
    return refusals


def _file_refusal(kind: str, name: str, value) -> tuple[int, str]:
    """Exit code and stderr of ``predict`` with a saved model of ``kind``
    whose ``name`` is set to ``value``."""
    d = json.loads(_saved(kind))
    *parents, key = _file_path(kind, name)
    functools.reduce(lambda node, k: node[k], parents, d)[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        data, model = f"{tmp}/data.csv", f"{tmp}/model.json"
        save_csv(_dataset(kind), data)
        with open(model, "w") as fh:
            json.dump(d, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["predict", "--data", data, "--model-file", model])
        return code, err.getvalue().replace(model, "MODEL")


@settings(max_examples=len(REFUSALS), deadline=None)
@given(case=st.sampled_from(REFUSALS))
# model files took these values: a fractional or boolean count or seed, a
# string seed, and an RBF bandwidth that is a bool, inf or a string
@example(case=("twin_nn", "epochs", 2.5, "epochs must be an integer, got 2.5"))
@example(case=("twin_nn", "seed", "x", "seed must be a number, got 'x'"))
@example(case=("twin_nn", "seed", -1.5, "seed must be an integer, got -1.5"))
@example(case=("twin_nn", "epochs", True, "epochs must be a number, got True"))
@example(case=("twsvm_rbf", "gamma", True, "gamma must be a number, got True"))
@example(case=("twsvm_rbf", "gamma", np.inf, "gamma must be finite, got inf"))
@example(case=("twsvm_rbf", "gamma", "x", "gamma must be a number, got 'x'"))
# one-vs-rest trained hidden = 2 from 2.5, and the twin SVM took nan and
# inf box bounds, ridges and bandwidths
@example(case=("twin_nn", "hidden", 2.5, "hidden must be an integer, got 2.5"))
@example(case=("twsvm_linear", "ridge", np.nan, "ridge must be finite, got nan"))
@example(case=("twsvm_linear", "c1", np.inf, "c1 must be finite, got inf"))
@example(case=("twsvm_rbf", "gamma", np.nan, "gamma must be finite, got nan"))
def test_every_route_refuses_a_bad_value_with_one_message(case):
    kind, name, value, message = case
    refusals = _route_refusals(kind, name, value)
    assert refusals == [message] * len(refusals)
    if _file_path(kind, name):
        assert _file_refusal(kind, name, value) == (
            3, f"data error: model file MODEL: malformed {MODELS[kind].codec} model: {message}\n")


def test_the_rfnn_fit_takes_its_hyper_type_by_keyword():
    # callers pass the rfnn hyperparameters by keyword, and a layer trace
    # reads the bound epochs
    signature = inspect.signature(train_rfnn_baseline)
    defaults = {name: p.default for name, p in signature.parameters.items() if name != "data"}
    assert defaults == dataclasses.asdict(RfnnHyper())
    ds = _dataset("rfnn")
    assert signature.bind(ds, hidden=3, epochs=5).arguments["epochs"] == 5
    model = train_rfnn_baseline(ds, hidden=3, epochs=5, l2=0.0, seed=2)
    assert model.hyper == RfnnHyper(hidden=3, epochs=5, l2=0.0, seed=2)


@pytest.mark.parametrize("kind, nets", [("twin_nn", 2), ("rfnn", 1), ("twin_nn_mc", 3)])
def test_a_network_model_holds_one_bank(kind, nets):
    # the bank is the one network type: each network model holds all of
    # its nets as one TanhBank field, and no other field holds a net
    model_type = MODELS[kind].model_type
    hints = typing.get_type_hints(model_type)
    banks = [f.name for f in dataclasses.fields(model_type) if hints[f.name] is TanhBank]
    assert banks == ["bank"]
    model = fit_model(kind, _dataset(kind), PARAMS[kind], seed=1)
    assert type(model.bank) is TanhBank and len(model.bank.plane_weights) == nets
    assert len(model.bank.final_loss) == nets and None not in model.bank.final_loss


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
    """The one-vs-rest distances of a 1-plane and a 3-plane net, each a
    ``TanhBank`` of one, and of a linear and an RBF ``TwsvmPlane``, all on
    3 features."""
    rng = np.random.default_rng(21)
    nets = [TanhBank(rng.standard_normal((5, 3)), rng.standard_normal(5),
                     rng.standard_normal((1, p, 5)), rng.standard_normal((1, p))) for p in (1, 3)]
    a, b = rng.standard_normal((10, 3)) + 1.0, rng.standard_normal((14, 3)) - 1.0
    kernels = {"twsvm_linear": KernelSpec(), "twsvm_rbf": KernelSpec("rbf", 0.5)}
    return [own_plane_distance("twin_nn", net) for net in nets] + [
        own_plane_distance(kind, solve_plus(TwsvmProblem(a, b, 1.0, 1.0, kernel)))
        for kind, kernel in kernels.items()]


@pytest.mark.parametrize("plane", _planes(), ids=["net1", "net3", "linear", "rbf"])
def test_one_sample_distance_is_a_batch_of_one(plane):
    # one sample is measured as a batch of one, bit for bit; against a row
    # of a larger batch it agrees to rounding only, since BLAS reduces one
    # row and many rows in different orders
    x = np.random.default_rng(22).standard_normal((40, 3))
    batch = plane(x)
    assert batch.shape == (40,)
    for i in range(40):
        one = plane(x[i])
        assert np.ndim(one) == 0
        assert one == plane(x[i:i + 1])[0]
        np.testing.assert_allclose(one, batch[i], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("plane", _planes(), ids=["net1", "net3", "linear", "rbf"])
@pytest.mark.parametrize("shape", [(), (2, 5, 3), (2, 3, 5)])
def test_distance_takes_only_a_sample_or_a_batch(plane, shape):
    # a (2, 5, 3) array used to give (2, 5) net distances, a 0-d one an
    # IndexError, and a (2, 3, 5) one a matmul ValueError from a twin SVM plane
    with pytest.raises(ShapeError, match=r"^expected one sample \(M,\) or a batch \(N, M\), "
                                         rf"got shape \({', '.join(map(str, shape))}\)$"):
        plane(np.ones(shape))


@pytest.mark.parametrize("plane", _planes()[:3], ids=["net1", "net3", "linear"])
def test_an_empty_batch_has_no_distances(plane):
    assert plane(np.empty((0, 3))).shape == (0,)
