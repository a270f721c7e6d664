import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twinlearn.harness as harness
import twinlearn.twsvm as twsvm
from conftest import fold_data_error_csv, gaussian_blobs
from twinlearn.cli import main
from twinlearn.data import Dataset, load_csv, save_csv
from twinlearn.models import MODELS
from twinlearn.multiclass import MCHyper, mc_train
from twinlearn.serialize import load_model, model_to_dict
from twinlearn.twin_nn import TwinHyper, train, train_rfnn_baseline


@pytest.fixture
def blob_csv(tmp_path):
    ds = gaussian_blobs([(2.2, 0), (-2.2, 0)], [20, 20], std=0.9, seed=0,
                        labels=[1, -1])
    path = tmp_path / "blobs.csv"
    save_csv(ds, path)
    return str(path), ds


@pytest.fixture
def three_csv(tmp_path):
    ds = gaussian_blobs([(3, 0), (-3, 0), (0, 3)], [12, 12, 12], std=0.7, seed=1)
    path = tmp_path / "three.csv"
    save_csv(ds, path)
    return str(path), ds


class TestTrainPredict:
    def test_train_then_predict(self, tmp_path, blob_csv, capsys):
        path, ds = blob_csv
        model_path = str(tmp_path / "model.json")
        rc = main(["train", "--data", path, "--model", "twin_nn",
                   "--grid", "hidden=4", "--grid", "epochs=150",
                   "--seed", "5", "--out", model_path])
        assert rc == 0
        preds_path = str(tmp_path / "preds.txt")
        rc = main(["predict", "--data", path, "--model-file", model_path,
                   "--out", preds_path])
        assert rc == 0
        preds = np.array([int(line) for line in open(preds_path)])
        assert np.mean(preds == ds.labels) >= 0.9

    def test_train_requires_out(self, blob_csv):
        path, _ = blob_csv
        assert main(["train", "--data", path]) == 2

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["impute"],
        ["gen-imbalance", "--positive-class", "1"],
    ])
    def test_out_checked_before_loading(self, argv):
        # a missing --out is a usage error even when the data cannot load
        assert main(argv + ["--data", "/does/not/exist.csv"]) == 2

    def test_train_rejects_multivalued_grid(self, tmp_path, blob_csv):
        path, _ = blob_csv
        rc = main(["train", "--data", path, "--grid", "hidden=3,5",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_train_refuses_to_save_a_model_predict_would_refuse(self, tmp_path, capsys):
        # all-zero features fit planes with no weights; predict could not
        # use them, so train exits 3 and writes nothing
        ds = Dataset(np.zeros((6, 2)), np.array([1, 1, -1, -1, -1, -1]))
        data, model_path = tmp_path / "zeros.csv", tmp_path / "m.json"
        save_csv(ds, data)
        assert main(["train", "--data", str(data), "--model", "twsvm_linear",
                     "--out", str(model_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(model_path) in err and "zero" in err
        assert not model_path.exists()

    def test_multiclass_train_predict(self, tmp_path, three_csv):
        path, ds = three_csv
        model_path = str(tmp_path / "mc.json")
        rc = main(["train", "--data", path, "--model", "twin_nn_mc",
                   "--grid", "subnet_features=4", "--grid", "epochs=200",
                   "--grid", "lr=0.1", "--out", model_path, "--seed", "2"])
        assert rc == 0
        preds_path = str(tmp_path / "p.txt")
        assert main(["predict", "--data", path, "--model-file", model_path,
                     "--out", preds_path]) == 0
        preds = np.array([int(line) for line in open(preds_path)])
        assert np.mean(preds == ds.labels) >= 0.9

    def test_rbf_rows_beyond_float_range_take_the_kernel_zero_label(self, tmp_path, capsys):
        # every kernel value of these rows is 0, as for a row at distance
        # 1e3; the second row's expansion x @ y.T overflows (inf - inf)
        ds = gaussian_blobs([(1.5, 0, 0), (-1.5, 0, 0)], [40, 40], seed=3, labels=[1, -1])
        save_csv(ds, tmp_path / "train.csv")
        model_path, rows_path = str(tmp_path / "rbf.json"), tmp_path / "far.csv"
        assert main(["train", "--data", str(tmp_path / "train.csv"), "--model", "twsvm_rbf",
                     "--grid", "gamma=0.5", "--out", model_path]) == 0
        rows_path.write_text("a,b,c,label\n1e3,0,0,1\n1e200,0,0,1\n1e308,1e308,0,1\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["predict", "--data", str(rows_path), "--model-file", model_path]) == 0
        out, err = capsys.readouterr()
        assert caught == [] and err == ""
        model = load_model(model_path)
        plus, minus = model.plus, model.minus
        label = 1 if abs(plus.u[-1]) / plus.norm <= abs(minus.u[-1]) / minus.norm else -1
        assert out.split() == [str(label)] * 3


class TestNearTheFloatLimit:
    """A finite cell near the float limit: 42 rows, 3 features, one 1e308."""

    @staticmethod
    def _data(tmp_path, row):
        ds = gaussian_blobs([(2, 0, 0), (-2, 0, 0)], [14, 28], seed=4, labels=[1, -1])
        feats = ds.features.copy()
        feats[row, 1] = 1e308
        path = str(tmp_path / "huge.csv")
        save_csv(Dataset(feats, ds.labels), path)
        return path

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_cv_scales_it_without_a_warning(self, tmp_path, capsys, model):
        grid = [] if model.startswith("twsvm") else ["--grid", "epochs=30"]
        assert main(["cv", "--data", self._data(tmp_path, 3), "--model", model,
                     "--folds", "3"] + grid) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("row", [3, 30])  # a class +1 row, a class -1 row
    def test_a_linear_twin_svm_fit_fails_on_one_line(self, tmp_path, capsys, row):
        assert main(["train", "--data", self._data(tmp_path, row), "--model", "twsvm_linear",
                     "--out", str(tmp_path / "m.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1


class TestNonUtf8Files:
    @pytest.mark.parametrize("argv", [
        ["cv"], ["cv", "--format", "libsvm"], ["bench", "--model", "twin_nn"],
        ["train", "--out", "never-written.json"], ["predict"],
        ["impute", "--out", "never-written.csv"],
        ["gen-imbalance", "--positive-class", "1", "--out", "never-written.csv"],
        ["compare"],
    ])
    def test_exits_3_on_one_line_naming_the_file(self, tmp_path, capsys, blob_csv, argv):
        bad = tmp_path / "bad.txt"
        # valid up to a 0xff byte in the second data line
        bad.write_bytes(b"1 1:0.5\n-1 1:\xff\n" if "libsvm" in argv
                        else b"f0,label\n1.0,1\n\xff,-1\n")
        if argv[0] == "predict":
            model = str(tmp_path / "m.json")
            assert main(["train", "--data", blob_csv[0], "--model", "twsvm_linear",
                         "--out", model]) == 0
            argv = argv + ["--model-file", model]
        capsys.readouterr()
        flag = "--scores" if argv[0] == "compare" else "--data"
        assert main(argv + [flag, str(bad)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {bad}: not UTF-8 text (invalid start byte)\n"


class TestLongCsvFields:
    """A cell longer than the csv module's field limit (131,072 characters)."""

    @pytest.mark.parametrize("argv", [["cv"], ["compare"]])
    def test_exits_3_on_one_line_naming_the_file(self, tmp_path, capsys, argv):
        wide = tmp_path / "wide.csv"
        wide.write_text("f0,label\n" + "1" * 200_000 + ",1\n2.0,-1\n")
        flag = "--scores" if argv[0] == "compare" else "--data"
        assert main(argv + [flag, str(wide)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {wide}: line 2: field larger than field limit (131072)\n")


def _drop(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _set(path, value):
    def mutate(d):
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return d
    return mutate


def _one_hidden_unit_less(d, net):
    """``d`` with the last hidden unit of ``net``, one of its nets, taken
    out: its hidden weights and bias and its weight in every plane."""
    for key in ("hidden_w", "hidden_b", "subnet_w", "subnet_b", "w"):
        if key in net:
            net[key] = net[key][:-1]
    for plane in net.get("planes", []):
        plane["w"] = plane["w"][:-1]
    return d


class TestKnnK:
    """An imputation neighbour count below 1 is a usage error raised
    before any data is loaded, whatever the data."""

    @pytest.fixture(params=["complete", "gaps", "missing-file"])
    def data_path(self, request, tmp_path, blob_csv):
        path, ds = blob_csv
        if request.param == "missing-file":
            return str(tmp_path / "absent.csv")
        if request.param == "gaps":
            features = ds.features.copy()
            features[::7, 0] = np.nan
            path = tmp_path / "gaps.csv"
            save_csv(Dataset(features, ds.labels, np.isnan(features)), path)
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["cv", "--model", "twsvm_linear", "--folds", "2"],
        ["bench", "--model", "twsvm_linear", "--folds", "2"],
    ], ids=["cv", "bench"])
    def test_knn_k_zero_exits_2(self, tmp_path, capsys, data_path, argv):
        out = tmp_path / "r.json"
        assert main(argv + ["--data", data_path, "--knn-k", "0", "--out", str(out)]) == 2
        assert "knn_k must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_impute_knn_k_zero_exits_2(self, tmp_path, capsys, data_path):
        out = tmp_path / "full.csv"
        assert main(["impute", "--data", data_path, "--knn-k", "0", "--out", str(out)]) == 2
        assert "--knn-k must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


# every array field of a saved model of each kind (TestModelFiles.saved):
# a twin SVM's RBF support, a multiclass model's three classes and two
# planes, and the twin SVM ridges and the class ids, which are numbers
_NET = ("hidden_w", "hidden_b", "w", "b")
_TWSVM = ("u", "v", "alpha", "beta", "ridge_alpha", "ridge_beta")
ARRAY_FIELDS = [
    *(("twin_nn", (side, key)) for side in ("plus", "minus") for key in _NET),
    *(("rfnn", (key,)) for key in _NET),
    *(("twin_nn_mc", ("banks", k, key)) for k in range(3) for key in ("subnet_w", "subnet_b")),
    *(("twin_nn_mc", ("banks", k, "planes", j, key)) for k in range(3) for j in range(2)
      for key in ("w", "b")),
    *(("twin_nn_mc", ("banks", k, "class_id")) for k in range(3)),
    *(("twsvm_linear", (key,)) for key in _TWSVM),
    *(("twsvm_rbf", (key,)) for key in (*_TWSVM, "support")),
]
DEFECTS = ["drop", "wrap", "unwrap", "empty", "cell"]
CELL_VALUES = st.sampled_from([float("nan"), float("inf"), float("-inf"), "1.5", "x", True,
                               False, None, 10**400])


def _defective(value, defect, cell_value, cell):
    """``value``, a number or nested lists of numbers, with one defect:
    wrapped in one more list, unwrapped to its first entry (a number stays
    a number), emptied, or with the cell that ``cell`` picks set to
    ``cell_value``; "drop" leaves it to the caller."""
    if defect == "wrap":
        return [value]
    if defect == "unwrap":
        return value[0] if isinstance(value, list) else [value]
    if defect == "empty":
        return []
    if defect == "cell" and isinstance(value, list):
        row, rest = divmod(cell, len(value))
        value[rest] = _defective(value[rest], defect, cell_value, row)
        return value
    return cell_value if defect == "cell" else value


class TestModelFiles:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """A 3-feature CSV and saved network and twin SVM models as dicts."""
        ds = gaussian_blobs([(2, 0, 0), (-2, 0, 0), (0, 2, 0)], [10, 10, 10], seed=3)
        path = tmp_path_factory.mktemp("models") / "three.csv"
        save_csv(ds, path)
        binary = gaussian_blobs([(2, 0, 0), (-2, 0, 0)], [5, 15], seed=4, labels=[1, -1])
        return str(path), {
            "twin_nn": model_to_dict(train(binary, TwinHyper(hidden=3, epochs=5))),
            "rfnn": model_to_dict(train_rfnn_baseline(binary, hidden=3, epochs=5)),
            "twin_nn_mc": model_to_dict(mc_train(ds, MCHyper(subnet_features=3, epochs=5))),
            "twsvm_linear": model_to_dict(MODELS["twsvm_linear"].fit(binary, {}, 0)),
            "twsvm_rbf": model_to_dict(MODELS["twsvm_rbf"].fit(binary, {"gamma": 0.5}, 0)),
        }

    @pytest.mark.parametrize("kind, mutate", [
        ("twin_nn", _drop("plus")),
        ("twin_nn", _set(["hyper", "bogus"], 1)),
        ("twin_nn", _set(["plus", "b"], None)),
        ("twin_nn", lambda d: [d]),
        ("twin_nn", lambda d: "not json {"),
        ("twin_nn", _set(["M"], 5)),
        ("twin_nn", _set(["version"], 99)),
        ("twin_nn", _set(["kind"], "mystery")),
        ("twin_nn_mc", _set(["banks", 1, "planes", 0, "w", 1], float("inf"))),
        ("twin_nn_mc", _set(["banks", 0, "planes", 1, "b"], float("nan"))),
        ("twsvm_linear", _set(["u", 0], float("nan"))),
        ("twsvm_linear", lambda d: {**d, "u": d["u"][:2]}),
        ("twsvm_linear", _set(["M"], 7)),
        ("twsvm_linear", lambda d: {**d, "u": [0.0] * 3 + d["u"][-1:]}),
        ("twsvm_linear", _set(["beta"], [[1.0]])),
        ("twsvm_rbf", _set(["M"], 7)),
        ("twsvm_rbf", lambda d: {**d, "v": d["v"][1:]}),
        ("twsvm_rbf", _set(["support", 0, 1], float("inf"))),
    ], ids=["no-plus", "unknown-hyper", "null-bias", "list", "not-json", "wrong-M",
            "version", "unknown-kind", "inf-plane-weight", "nan-plane-bias",
            "twsvm-nan-u", "twsvm-short-u", "twsvm-wrong-M", "twsvm-zero-plane",
            "twsvm-2d-beta", "rbf-wrong-M", "rbf-short-v", "rbf-inf-support"])
    def test_malformed_model_file_exits_3(self, tmp_path, saved, capsys, kind, mutate):
        data, models = saved
        content = mutate(json.loads(json.dumps(models[kind])))
        model_path = tmp_path / "model.json"
        model_path.write_text(content if isinstance(content, str) else json.dumps(content))
        assert main(["predict", "--data", data, "--model-file", str(model_path)]) == 3
        assert f"data error: model file {model_path}" in capsys.readouterr().err


    @pytest.mark.parametrize("kind, mutate", [
        ("twin_nn", lambda d: _one_hidden_unit_less(d, d["minus"])),
        ("twin_nn_mc", lambda d: _one_hidden_unit_less(d, d["banks"][1])),
        ("twin_nn_mc", lambda d: d["banks"][2]["planes"].append(
            dict(d["banks"][2]["planes"][0])) or d),
    ], ids=["twin-hidden-width", "mc-hidden-width", "mc-plane-count"])
    def test_nets_of_another_shape_exit_3_on_one_line(self, tmp_path, saved, capsys, kind,
                                                      mutate):
        # the file has one h (and p) for all its nets, and a model scores
        # them as one bank, which refuses nets of another shape
        data, models = saved
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(mutate(json.loads(json.dumps(models[kind])))))
        assert main(["predict", "--data", data, "--model-file", str(model_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: model file {model_path}: malformed {kind} model: ")
        assert "cannot share a bank" in err and err.count("\n") == 1

    @pytest.mark.parametrize("kind, path, value, message", [
        # a hyper block is checked by the kind's hyperparameter type, as a
        # grid value is
        ("twin_nn", ["hyper", "lr"], float("nan"), "lr must be finite, got nan"),
        ("twin_nn", ["hyper", "c_plus"], float("nan"), "c_plus must be finite, got nan"),
        ("twin_nn", ["hyper", "tol"], -1.0, "tol must be >= 0, got -1.0"),
        ("rfnn", ["hyper", "l2"], float("nan"), "l2 must be finite, got nan"),
        ("rfnn", ["hyper", "epochs"], -1, "epochs must be >= 0, got -1"),
        ("twin_nn_mc", ["hyper", "margin_weight"], float("nan"),
         "margin_weight must be finite, got nan"),
        ("twin_nn_mc", ["hyper", "epochs"], -1, "epochs must be >= 0, got -1"),
        # every size field, the hyper's widths included, is that of the weights
        ("twin_nn", ["h"], 99, "h is 99 but the weights have 3"),
        ("twin_nn", ["hyper", "hidden"], 99, "hidden is 99 but the weights have 3"),
        ("twin_nn", ["hyper", "hidden"], 3.5, "hidden must be an integer, got 3.5"),
        ("rfnn", ["h"], 99, "h is 99 but the weights have 3"),
        ("rfnn", ["M"], 5, "M is 5 but the weights have 3"),
        ("twin_nn_mc", ["K"], 4, "K is 4 but the weights have 3"),
        ("twin_nn_mc", ["M"], 5, "M is 5 but the weights have 3"),
        ("twin_nn_mc", ["n"], 99, "n is 99 but the weights have 3"),
        ("twin_nn_mc", ["p"], 9, "p is 9 but the weights have 2"),
        ("twin_nn_mc", ["hyper", "subnet_features"], 99,
         "subnet_features is 99 but the weights have 3"),
        ("twin_nn_mc", ["hyper", "planes"], 9, "planes is 9 but the weights have 2"),
    ], ids=["twin-nan-lr", "twin-nan-c-plus", "twin-negative-tol", "rfnn-nan-l2",
            "rfnn-negative-epochs", "mc-nan-margin-weight", "mc-negative-epochs",
            "twin-h", "twin-hidden", "twin-fractional-hidden", "rfnn-h", "rfnn-M", "mc-K",
            "mc-M", "mc-n", "mc-p", "mc-subnet-features", "mc-planes"])
    def test_a_refused_hyper_value_or_size_exits_3_on_one_line(self, tmp_path, saved, capsys,
                                                               kind, path, value, message):
        data, models = saved
        model_path = tmp_path / "model.json"
        mutated = _set(path, value)(json.loads(json.dumps(models[kind])))
        model_path.write_text(json.dumps(mutated))
        assert main(["predict", "--data", data, "--model-file", str(model_path)]) == 3
        assert capsys.readouterr().err == (f"data error: model file {model_path}: "
                                           f"malformed {kind} model: {message}\n")

    @pytest.mark.parametrize("kind, path, value, message", [
        # numpy would read a string or a bool in a parameter array as a
        # number, and a saved model would then write it back
        ("twin_nn", ["plus", "b"], "1.5", "b must be a finite number"),
        ("twin_nn", ["minus", "b"], True, "b must be a finite number"),
        ("twin_nn", ["plus", "hidden_w", 1, 0], "0.25",
         "hidden_w must be a non-empty 2-D array of finite numbers"),
        ("rfnn", ["w", 0], False, "w must be a non-empty 1-D array of finite numbers"),
        ("twin_nn_mc", ["banks", 2, "subnet_b", 0], "1",
         "subnet_b must be a non-empty 1-D array of finite numbers"),
        ("twin_nn_mc", ["banks", 0, "planes", 1, "b"], True,
         "plane b must be a non-empty 1-D array of finite numbers"),
        ("twsvm_linear", ["u", 0], "1.5", "u must be a non-empty 1-D array of finite numbers"),
        ("twsvm_linear", ["alpha", 1], True,
         "alpha must be a non-empty 1-D array of finite numbers"),
        ("twsvm_rbf", ["support", 0, 1], "2", "support must be a non-empty 2-D array of "
         "finite numbers"),
        # the ridges are finite numbers >= 0
        ("twsvm_linear", ["ridge_alpha"], "x", "ridge_alpha must be a finite number"),
        ("twsvm_linear", ["ridge_beta"], None, "ridge_beta must be a finite number"),
        ("twsvm_rbf", ["ridge_alpha"], float("nan"), "ridge_alpha must be a finite number"),
        ("twsvm_rbf", ["ridge_beta"], -1.0, "ridge_alpha and ridge_beta must be >= 0, got "),
    ], ids=["twin-string-b", "twin-bool-b", "twin-string-hidden-w", "rfnn-bool-w",
            "mc-string-subnet-b", "mc-bool-plane-b", "twsvm-string-u", "twsvm-bool-alpha",
            "rbf-string-support", "twsvm-string-ridge", "twsvm-null-ridge", "rbf-nan-ridge",
            "rbf-negative-ridge"])
    def test_a_non_number_in_an_array_exits_3_on_one_line(self, tmp_path, saved, capsys, kind,
                                                         path, value, message):
        data, models = saved
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(_set(path, value)(json.loads(json.dumps(models[kind])))))
        assert main(["predict", "--data", data, "--model-file", str(model_path)]) == 3
        err = capsys.readouterr().err
        codec = "twsvm" if kind.startswith("twsvm") else kind
        assert err.startswith(f"data error: model file {model_path}: malformed {codec} model: "
                              f"{message}") and err.count("\n") == 1

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from(ARRAY_FIELDS), defect=st.sampled_from(DEFECTS),
           value=CELL_VALUES, cell=st.integers(0, 2**16))
    # each was read as a number, and saved back as the file gave it
    @example(case=("twin_nn", ("plus", "b")), defect="cell", value="1.5", cell=0)
    @example(case=("twin_nn", ("minus", "b")), defect="cell", value=True, cell=0)
    @example(case=("twin_nn", ("plus", "hidden_w")), defect="cell", value="1.5", cell=5)
    @example(case=("twsvm_linear", ("u",)), defect="cell", value="1.5", cell=1)
    @example(case=("twsvm_rbf", ("alpha",)), defect="cell", value="1.5", cell=3)
    @example(case=("twsvm_linear", ("ridge_alpha",)), defect="cell", value="x", cell=0)
    # an int past float range raised OverflowError, a traceback
    @example(case=("rfnn", ("hidden_w",)), defect="cell", value=10**400, cell=2)
    # a class id of true was read as 1; a fraction or a string is refused too
    @example(case=("twin_nn_mc", ("banks", 1, "class_id")), defect="cell", value=True, cell=0)
    @example(case=("twin_nn_mc", ("banks", 0, "class_id")), defect="cell", value=False, cell=0)
    @example(case=("twin_nn_mc", ("banks", 1, "class_id")), defect="cell", value=1.5, cell=0)
    @example(case=("twin_nn_mc", ("banks", 1, "class_id")), defect="cell", value="1", cell=0)
    def test_a_saved_model_with_one_bad_array_exits_3_on_one_line(self, saved, case, defect,
                                                                 value, cell):
        # a valid saved model of each kind, with one array field dropped,
        # reshaped, or with one cell made non-finite or not a number
        data, models = saved
        kind, path = case
        d = json.loads(json.dumps(models[kind]))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], d)
        parent[path[-1]] = _defective(parent[path[-1]], defect, value, cell)
        if defect == "drop":
            del parent[path[-1]]
        with tempfile.TemporaryDirectory() as tmp:
            model_path = os.path.join(tmp, "model.json")
            with open(model_path, "w") as fh:
                json.dump(d, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["predict", "--data", data, "--model-file", model_path])
        assert code == 3
        assert err.getvalue().startswith(f"data error: model file {model_path}: ")
        assert err.getvalue().count("\n") == 1 and out.getvalue() == ""


class TestCv:
    def test_cv_writes_result_json(self, tmp_path, blob_csv, capsys):
        path, _ = blob_csv
        out = str(tmp_path / "result.json")
        rc = main(["cv", "--data", path, "--model", "twin_nn",
                   "--grid", "hidden=4", "--grid", "epochs=100",
                   "--folds", "2", "--seed", "7", "--out", out])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert payload["schema_version"] == 1
        assert payload["aggregates"]["acc"]["n"] == 2
        assert "metric" in capsys.readouterr().out

    def test_cv_byte_identical_given_seed(self, tmp_path, blob_csv):
        path, _ = blob_csv
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        argv = ["cv", "--data", path, "--model", "rfnn", "--grid", "hidden=3",
                "--grid", "epochs=60", "--folds", "2", "--seed", "11"]
        assert main(argv + ["--out", out1]) == 0
        assert main(argv + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_cv_one_vs_rest(self, tmp_path, three_csv):
        path, _ = three_csv
        out = str(tmp_path / "ovr.json")
        rc = main(["cv", "--data", path, "--model", "twin_nn", "--one-vs-rest",
                   "--grid", "hidden=4", "--grid", "epochs=100",
                   "--folds", "2", "--seed", "3", "--out", out])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert payload["task"] == "multiclass"

    def test_huge_box_bound_fits_without_a_warning(self, tmp_path, capsys):
        # run under pytest's error::RuntimeWarning filter: at c1 = 1e308 the
        # polish's distance to the box's upper bound overflows to +inf
        data, out = tmp_path / "d.csv", tmp_path / "r.json"
        save_csv(gaussian_blobs([(2, 2), (-2, -2)], [20, 20], seed=3, labels=[1, -1]), data)
        assert main(["cv", "--data", str(data), "--model", "twsvm_linear", "--folds", "3",
                     "--grid", "c1=1e308", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["failures"] == []

    def test_usage_error_exit_code(self, blob_csv):
        path, _ = blob_csv
        assert main(["cv", "--data", path, "--grid", "nonsense"]) == 2

    @pytest.mark.parametrize("one_vs_rest", [False, True])
    def test_cv_json_and_table_do_not_depend_on_workers(self, tmp_path, three_csv, capsys,
                                                        monkeypatch, one_vs_rest):
        monkeypatch.setattr(harness, "worth_forking", lambda *args: True)
        path, _ = three_csv
        argv = ["cv", "--data", path, "--model", "twin_nn", "--grid", "hidden=3,4",
                "--grid", "epochs=40", "--folds", "3", "--seed", "5"]
        argv += ["--one-vs-rest"] if one_vs_rest else []
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(harness, "usable_cpus", lambda: workers)
            out = tmp_path / f"w{workers}.json"
            assert main(argv + ["--out", str(out)]) == 0
            table = capsys.readouterr().out.splitlines()
            assert table[-1].startswith("wall clock: ")
            outputs.append((out.read_bytes(), table[:-1]))
        assert outputs[0] == outputs[1]

    def test_a_data_error_in_a_worker_is_reported_as_in_serial(self, tmp_path, capsys,
                                                               monkeypatch):
        # job 1, forked, raises the error
        path = fold_data_error_csv(tmp_path / "fold_error.csv")
        monkeypatch.setattr(harness, "worth_forking", lambda *args: True)
        argv = ["cv", "--data", path, "--grid", "epochs=20", "--folds", "3", "--seed", "44"]
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(harness, "usable_cpus", lambda: workers)
            assert main(argv) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "data error: features [2] have no observed values to fit scaling on\n")

    def test_missing_file_exit_code(self, blob_csv):
        assert main(["cv", "--data", "/does/not/exist.csv"]) == 3
        # a path whose parent is a regular file: NotADirectoryError
        path, _ = blob_csv
        under_file = os.path.join(path, "x")
        assert main(["cv", "--data", under_file]) == 3
        assert main(["cv", "--data", path, "--grid", "epochs=5", "--folds", "2",
                     "--out", under_file]) == 3
        assert main(["train", "--data", path, "--grid", "epochs=5",
                     "--out", under_file]) == 3
        assert main(["predict", "--data", path, "--model-file", under_file]) == 3
        assert main(["compare", "--scores", under_file]) == 3

    def test_numerical_failure_exit_code(self, tmp_path, blob_csv):
        # single diverging grid point: every fold fails, training errors
        # surface as fold failures, so force the failure through train
        path, _ = blob_csv
        rc = main(["train", "--data", path, "--model", "twin_nn",
                   "--grid", "lr=1e9", "--grid", "epochs=60",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 4

    @pytest.mark.parametrize("bound", ["c1=0", "c2=0"])
    def test_zero_box_bound_is_a_usage_error(self, tmp_path, bound):
        # a zero box would save a twin SVM whose plane has no weights
        ds = gaussian_blobs([(1, 1, 1), (-1, -1, -1)], [20, 60], seed=5, labels=[1, -1])
        path, model_path = tmp_path / "blobs3.csv", tmp_path / "m.json"
        save_csv(ds, path)
        rc = main(["train", "--data", str(path), "--model", "twsvm_linear",
                   "--grid", bound, "--out", str(model_path)])
        assert rc == 2
        assert not model_path.exists()

    @pytest.mark.parametrize("model, grid", [
        ("twsvm_linear", "c1=0"), ("twin_nn", "hidden=0"), ("rfnn", "l2=-1"),
        ("twsvm_rbf", "gamma=-1"), ("twin_nn", "hidden=4,0"), ("rfnn", "epochs=-1"),
        ("twin_nn_mc", "epochs=-1"),
    ])
    @pytest.mark.parametrize("command", ["train", "cv", "bench"])
    def test_out_of_range_value_exits_2_before_any_fold(self, tmp_path, monkeypatch,
                                                        command, model, grid):
        ds = gaussian_blobs([(1, 1, 1), (-1, -1, -1)], [20, 60], seed=5, labels=[1, -1])
        path, out = tmp_path / "blobs3.csv", tmp_path / "out.json"
        save_csv(ds, path)
        monkeypatch.setattr(harness, "make_folds", lambda *args: pytest.fail("a fold ran"))
        argv = [command, "--data", str(path), "--model", model, "--out", str(out)]
        if command == "train":
            argv += ["--grid", grid.split(",")[-1]]
        else:
            argv += ["--folds", "3", "--grid", f"{model}:{grid}" if command == "bench" else grid]
        assert main(argv) == 2
        assert not out.exists()

    def test_divergence_fails_its_folds(self, tmp_path, blob_csv):
        # lr = 1e9 is in range: each fit diverges, and each fold records it
        path, _ = blob_csv
        out = tmp_path / "r.json"
        rc = main(["cv", "--data", path, "--model", "twin_nn", "--grid", "lr=1e9",
                   "--grid", "epochs=60", "--folds", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert all(fold["failed"] for fold in payload["folds"])
        assert [f["stage"] for f in payload["failures"]] == ["train", "train"]
        assert "diverged" in payload["failures"][0]["error"]

    def test_multiclass_runaway_weights_exit_4(self, tmp_path, three_csv):
        # the tanh-bounded loss stays finite while lr = 1e300 drives the
        # weights towards 1e299 and the plane norms past float range
        path, _ = three_csv
        model_path = tmp_path / "mc.json"
        rc = main(["train", "--data", path, "--model", "twin_nn_mc",
                   "--grid", "lr=1e300", "--grid", "epochs=5", "--out", str(model_path)])
        assert rc == 4
        assert not model_path.exists()

    def test_multiclass_runaway_weights_fail_their_folds(self, tmp_path, three_csv):
        path, _ = three_csv
        out = tmp_path / "r.json"
        rc = main(["cv", "--data", path, "--model", "twin_nn_mc", "--grid", "lr=1e300",
                   "--grid", "epochs=20", "--folds", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert all(fold["failed"] for fold in payload["folds"])
        assert [f["stage"] for f in payload["failures"]] == ["train", "train"]
        assert "diverged" in payload["failures"][0]["error"]

    def test_model_that_cannot_predict_fails_its_folds(self, tmp_path, monkeypatch):
        # a fit whose positive plane has no weights succeeds, but its
        # test-fold distances are undefined
        solve = twsvm.solve_dual
        def zero_plus(problem):
            model = solve(problem)
            plus = dataclasses.replace(model.plus, u=np.zeros(problem.a.shape[1] + 1))
            assert plus.norm == 0.0
            return dataclasses.replace(model, plus=plus)

        monkeypatch.setattr(twsvm, "solve_dual", zero_plus)
        ds = gaussian_blobs([(2, 2, 2), (0, 0, 0)], [3, 27], seed=4, labels=[1, -1])
        path, out = tmp_path / "small.csv", tmp_path / "r.json"
        save_csv(ds, path)
        rc = main(["cv", "--data", str(path), "--model", "twsvm_linear",
                   "--folds", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert all(fold["failed"] for fold in payload["folds"])
        assert [f["stage"] for f in payload["failures"]] == ["predict", "predict"]
        assert "zero norm" in payload["failures"][0]["error"]


class TestBench:
    def test_bench_two_models(self, tmp_path, blob_csv, capsys):
        path, _ = blob_csv
        out = str(tmp_path / "bench.json")
        rc = main(["bench", "--data", path, "--model", "twin_nn,rfnn",
                   "--grid", "twin_nn:hidden=4", "--grid", "twin_nn:epochs=80",
                   "--grid", "rfnn:hidden=4", "--grid", "rfnn:epochs=80",
                   "--folds", "2", "--seed", "13", "--out", out])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert set(payload) == {"twin_nn", "rfnn"}
        text = capsys.readouterr().out
        assert "== twin_nn" in text and "== rfnn" in text

    def test_bench_rejects_unknown_prefix(self, blob_csv):
        path, _ = blob_csv
        rc = main(["bench", "--data", path, "--model", "twin_nn",
                   "--grid", "rfnn:hidden=4"])
        assert rc == 2

    def test_bench_rejects_a_kind_listed_twice(self, capsys):
        # the data file does not exist: loading it first would exit 3
        assert main(["bench", "--data", "/does/not/exist.csv",
                     "--model", "twin_nn,rfnn,twin_nn"]) == 2
        assert "'twin_nn,rfnn,twin_nn' lists a model kind twice" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [["twin_nn=4"], ["twin_nn=4", "twin_nn:hidden=4"],
                                      ["twin_nn:hidden=4", "twin_nn=4"]])
    def test_bench_grid_key_needs_a_model_prefix(self, grid):
        argv = ["bench", "--data", "/does/not/exist.csv", "--model", "twin_nn"]
        assert main(argv + [arg for entry in grid for arg in ("--grid", entry)]) == 2


class TestImputeAndImbalance:
    def test_impute_roundtrip(self, tmp_path):
        rows = [["f0", "f1", "label"],
                ["1.0", "2.0", "1"],
                ["", "2.5", "-1"],
                ["3.0", "", "1"],
                ["4.0", "5.0", "-1"]]
        path = tmp_path / "gaps.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = str(tmp_path / "full.csv")
        rc = main(["impute", "--data", str(path), "--knn-k", "2", "--out", out])
        assert rc == 0
        completed = load_csv(out)
        assert completed.missing is None
        assert np.all(np.isfinite(completed.features))

    def test_gen_imbalance(self, tmp_path, three_csv):
        path, ds = three_csv
        out = str(tmp_path / "imb.csv")
        rc = main(["gen-imbalance", "--data", path, "--positive-class", "2",
                   "--out", out])
        assert rc == 0
        binary = load_csv(out)
        counts = binary.class_counts()
        assert counts[1] == 12 and counts[-1] == 24

    def test_gen_imbalance_requires_class(self, three_csv):
        path, _ = three_csv
        assert main(["gen-imbalance", "--data", path, "--out", "/tmp/x.csv"]) == 2

    def test_gen_imbalance_unknown_class(self, tmp_path, three_csv):
        path, _ = three_csv
        rc = main(["gen-imbalance", "--data", path, "--positive-class", "9",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3


class TestGridValidation:
    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_non_finite_grid_value_exits_2(self, tmp_path, blob_csv, command, token):
        path, _ = blob_csv
        argv = [command, "--data", path, "--grid", f"hidden={token}"]
        if command == "train":
            argv += ["--out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("key", ["foo", "seed", "gamma"])
    @pytest.mark.parametrize("command", [
        ["train", "--out", "never-written.json"],
        ["cv"],
        ["bench", "--model", "rfnn,twin_nn"],
    ])
    def test_unknown_grid_key_exits_2_before_loading(self, command, key):
        # the data file does not exist: loading it first would exit 3
        prefix = "twin_nn:" if command[0] == "bench" else ""
        argv = command + ["--data", "/does/not/exist.csv", "--grid", f"{prefix}{key}=1"]
        assert main(argv) == 2

    @pytest.mark.parametrize("model, key", [
        ("twin_nn", "hidden"), ("rfnn", "epochs"),
        ("twin_nn_mc", "subnet_features"), ("twin_nn_mc", "planes"),
    ])
    @pytest.mark.parametrize("command", [["train", "--out", "never-written.json"], ["cv"],
                                         ["bench"]])
    def test_fractional_integer_value_exits_2_before_loading(self, command, model, key):
        # the data file does not exist: loading it first would exit 3
        grid = f"{model}:{key}=2,2.5" if command[0] == "bench" else f"{key}=2.5"
        argv = command + ["--model", model, "--data", "/does/not/exist.csv", "--grid", grid]
        assert main(argv) == 2

    @pytest.mark.parametrize("command", [["train", "--out", "never-written.json"], ["cv"]])
    def test_repeated_grid_key_exits_2_before_loading(self, capsys, command):
        # the data file does not exist: loading it first would exit 3
        argv = command + ["--data", "/does/not/exist.csv",
                          "--grid", "hidden=4", "--grid", "hidden=8"]
        assert main(argv) == 2
        assert "'hidden=8'" in capsys.readouterr().err

    def test_bench_repeated_grid_key_is_per_model(self, tmp_path, blob_csv):
        argv = ["bench", "--data", "/does/not/exist.csv", "--model", "twin_nn,rfnn",
                "--grid", "twin_nn:hidden=4", "--grid", "twin_nn:hidden=8"]
        assert main(argv) == 2
        path, _ = blob_csv
        assert main(["bench", "--data", path, "--model", "twin_nn,rfnn", "--folds", "2",
                     "--grid", "twin_nn:hidden=4", "--grid", "rfnn:hidden=4",
                     "--grid", "twin_nn:epochs=5", "--grid", "rfnn:epochs=5"]) == 0

    def test_integral_float_value_is_accepted(self, tmp_path, blob_csv):
        path, _ = blob_csv
        out = tmp_path / "m.json"
        assert main(["train", "--data", path, "--grid", "hidden=3.0", "--grid", "epochs=5",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["hyper"]["hidden"] == 3

    def test_every_hyperparameter_of_a_kind_is_accepted(self, tmp_path, blob_csv):
        path, _ = blob_csv
        rc = main(["cv", "--data", path, "--model", "twsvm_rbf", "--folds", "2",
                   "--grid", "c1=0.5", "--grid", "c2=0.5", "--grid", "gamma=1",
                   "--grid", "ridge=1e-6", "--out", str(tmp_path / "r.json")])
        assert rc == 0

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(MODELS)),
           key=st.text(st.characters(exclude_categories=("Cs",), exclude_characters="="),
                       min_size=1, max_size=8))
    def test_any_key_outside_the_kind_exits_2(self, kind, key):
        assume(key.strip() and key.strip() not in MODELS[kind].params)
        assert main(["train", "--data", "/does/not/exist.csv", "--model", kind,
                     f"--grid={key}=1", "--out", "never-written.json"]) == 2


@pytest.fixture(scope="module")
def edge_csvs(tmp_path_factory):
    """name -> (path, smallest class size): a binary CSV of 8 and 12 rows,
    and a 3-class one of 6, 7 and 8 rows with four empty cells."""
    tmp = tmp_path_factory.mktemp("edge")
    binary = gaussian_blobs([(2.2, 0), (-2.2, 0)], [8, 12], std=0.9, seed=2, labels=[1, -1])
    three = gaussian_blobs([(3, 0, 0), (-3, 0, 0), (0, 3, 0)], [6, 7, 8], std=0.7, seed=3)
    mask = np.zeros(three.features.shape, dtype=bool)
    mask[[1, 8, 15, 20], [0, 2, 1, 0]] = True
    three = Dataset(np.where(mask, np.nan, three.features), three.labels, mask)
    paths = {}
    for name, ds, smallest in (("binary", binary, 8), ("three", three, 6)):
        paths[name] = str(tmp / f"{name}.csv"), smallest
        save_csv(ds, paths[name][0])
    return paths


def _cv(argv, out: str) -> tuple[int, str]:
    """``main(argv)`` writing its result to ``out``: its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv + ["--out", out]), err.getvalue()


class TestCvEdgeValues:
    # small values at and past each flag's limits; none asks for a large
    # allocation or many processes, and the network kinds train 3 epochs
    @settings(max_examples=150, deadline=None)
    @given(data=st.sampled_from(["binary", "three"]), kind=st.sampled_from(sorted(MODELS)),
           ovr=st.booleans(), folds=st.sampled_from([-1, 0, 1, 2, "smallest", "past"]),
           repeats=st.integers(-1, 2), knn_k=st.sampled_from([-1, 0, 1, 10**6]),
           seed=st.sampled_from([2**70, -2**70, -1, 0]),
           token=st.one_of(st.none(), st.sampled_from(
               ["hidden=0", "hidden=2.5", "lr=1e300", "lr=1,,2", "=1", "lr=", "c1=1e-320"])))
    # every kind and one-vs-rest run, so the repeat is compared for each
    @example(data="three", kind="twin_nn", ovr=True, folds="smallest", repeats=2, knn_k=10**6,
             seed=2**70, token="lr=1,,2")
    @example(data="binary", kind="twin_nn", ovr=False, folds="smallest", repeats=2, knn_k=1,
             seed=-2**70, token="lr=1e300")
    @example(data="three", kind="rfnn", ovr=True, folds=2, repeats=1, knn_k=1, seed=-1,
             token=None)
    @example(data="three", kind="twin_nn_mc", ovr=False, folds="smallest", repeats=2,
             knn_k=10**6, seed=0, token="lr=1e300")
    @example(data="binary", kind="twsvm_linear", ovr=False, folds="smallest", repeats=2, knn_k=1,
             seed=2**70, token="c1=1e-320")
    @example(data="three", kind="twsvm_rbf", ovr=True, folds="smallest", repeats=2, knn_k=10**6,
             seed=-2**70, token="c1=1e-320")
    def test_cv_exits_with_a_code_and_repeats_its_bytes(self, edge_csvs, data, kind, ovr, folds,
                                                         repeats, knn_k, seed, token):
        path, smallest = edge_csvs[data]
        folds = {"smallest": smallest, "past": smallest + 1}.get(folds, folds)
        argv = ["cv", "--data", path, "--model", kind, f"--folds={folds}",
                f"--repeats={repeats}", f"--knn-k={knn_k}", f"--seed={seed}"]
        argv += ["--one-vs-rest"] if ovr else []
        argv += ["--grid", "epochs=3"] if "epochs" in MODELS[kind].params else []
        argv += ["--grid", token] if token else []
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
            code, err = _cv(argv, first)
            assert code in (0, 2, 3, 4)
            if code:
                assert len(err.splitlines()) == 1, err
                return
            assert _cv(argv, second)[0] == 0
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()


def _write_labeled(path, fmt: str, labels) -> None:
    """Five one-feature rows, labels as given, in CSV or LibSVM format."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(["f0", "label"])
            writer.writerows([[repr(float(i)), label] for i, label in enumerate(labels)])
        else:
            fh.writelines(f"{label} 1:{float(i)!r}\n" for i, label in enumerate(labels))


def _train_exit_code(token: str, fmt: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data")
        _write_labeled(data, fmt, ["1", "-1", "1", "-1", token])
        return main(["train", "--data", data, "--format", fmt, "--grid", "hidden=2",
                     "--grid", "epochs=2", "--out", os.path.join(tmp, "m.json")])


class TestLabelTokens:
    @pytest.mark.parametrize("fmt, token, code", [
        # CSV: non-integral tokens are class names, mapped to dense ids
        ("csv", "inf", 0), ("csv", "-inf", 0), ("csv", "nan", 0), ("csv", "1e19", 0),
        # LibSVM labels must be int64 integers
        ("libsvm", "nan", 3), ("libsvm", "inf", 3), ("libsvm", "-inf", 3),
        ("libsvm", "1e19", 3),
    ])
    def test_non_finite_and_huge_labels(self, fmt, token, code):
        assert _train_exit_code(token, fmt) == code

    @settings(max_examples=60, deadline=None)
    @given(token=st.one_of(
        st.sampled_from(["inf", "-inf", "nan", "1e400", "9223372036854775807", "1.5", ""]),
        st.floats().map(repr),
        st.integers().map(str),
        st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
    ), fmt=st.sampled_from(["csv", "libsvm"]))
    def test_any_label_token_maps_to_an_exit_code(self, token, fmt):
        assert _train_exit_code(token, fmt) in (0, 2, 3, 4)


class TestLabelColumn:
    """``--label-column`` names a header column; a headerless file loads
    only through the library's ``load_csv(..., has_header=False)``."""

    @pytest.mark.parametrize("header, column", [(False, "-1"), (True, "2")])
    def test_column_index_exits_3(self, tmp_path, capsys, header, column):
        path = tmp_path / "data.csv"
        rows = [f"{0.25 * i},{0.5 * i},{i % 2}" for i in range(1, 9)]
        path.write_text("\n".join((["f0,f1,label"] if header else []) + rows) + "\n")
        rc = main(["train", "--data", str(path), "--label-column", column,
                   "--out", str(tmp_path / "m.json")])
        assert rc == 3
        assert f"unknown label column '{column}'" in capsys.readouterr().err
        if not header:
            ds = load_csv(path, label_column=-1, has_header=False)
            assert ds.features.shape == (8, 2) and ds.labels.tolist() == [1, 0] * 4


class TestCompare:
    def test_compare_table_and_json(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "twin_nn", "rfnn"])
            for i in range(6):
                writer.writerow([f"d{i}", 0.9 + 0.001 * i, 0.8 + 0.001 * i])
        out = str(tmp_path / "report.json")
        rc = main(["compare", "--scores", str(path), "--reference", "twin_nn",
                   "--out", out])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert payload["wilcoxon"]["rfnn"]["p"] == 0.03125
        assert "Friedman" in capsys.readouterr().out

    def test_compare_unknown_reference(self, tmp_path):
        path = tmp_path / "scores.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "a", "b"])
            for i in range(5):
                writer.writerow([f"d{i}", 0.5, 0.6])
        assert main(["compare", "--scores", str(path), "--reference", "zzz"]) == 2

    def test_compare_too_few_datasets(self, tmp_path):
        path = tmp_path / "scores.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "a", "b"])
            writer.writerow(["d0", 0.5, 0.6])
        assert main(["compare", "--scores", str(path)]) == 3

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_compare_non_finite_score_is_data_error(self, tmp_path, capsys, token):
        path = tmp_path / "scores.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "a", "b"])
            for i in range(4):
                writer.writerow([f"d{i}", 0.5, token if i == 2 else 0.6])
        assert main(["compare", "--scores", str(path)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err and "row 4" in err

    @pytest.mark.parametrize("header, name", [
        (["dataset", "a", "a", "b"], "column 3 names algorithm 'a'"),
        (["dataset", "a", "b", "b"], "column 4 names algorithm 'b'"),
        (["dataset", "a", " a ", "b"], "column 3 names algorithm 'a'"),
        (["dataset", "a", "", "b"], "column 3 names algorithm ''"),
        (["dataset", "a", "b", " "], "column 4 names algorithm ''"),
    ])
    def test_compare_refuses_repeated_or_empty_names(self, tmp_path, capsys, header, name):
        path = tmp_path / "scores.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(5):
                writer.writerow([f"d{i}", 0.5 + 0.01 * i, 0.6, 0.7])
        assert main(["compare", "--scores", str(path)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err and name in err


class TestArgparse:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["cv"])
        assert err.value.code == 2
