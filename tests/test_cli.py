import csv
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gaussian_blobs
from twinlearn.cli import main
from twinlearn.data import load_csv, save_csv
from twinlearn.models import MODELS
from twinlearn.multiclass import MCHyper, mc_train
from twinlearn.serialize import model_to_dict
from twinlearn.twin_nn import TwinHyper, train


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


class TestModelFiles:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """A 3-feature CSV and saved twin_nn and twin_nn_mc models as dicts."""
        ds = gaussian_blobs([(2, 0, 0), (-2, 0, 0), (0, 2, 0)], [10, 10, 10], seed=3)
        path = tmp_path_factory.mktemp("models") / "three.csv"
        save_csv(ds, path)
        binary = gaussian_blobs([(2, 0, 0), (-2, 0, 0)], [5, 15], seed=4, labels=[1, -1])
        return str(path), {
            "twin_nn": model_to_dict(train(binary, TwinHyper(hidden=3, epochs=5))),
            "twin_nn_mc": model_to_dict(mc_train(ds, MCHyper(subnet_features=3, epochs=5))),
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
    ], ids=["no-plus", "unknown-hyper", "null-bias", "list", "not-json", "wrong-M",
            "version", "unknown-kind", "inf-plane-weight", "nan-plane-bias"])
    def test_malformed_model_file_exits_3(self, tmp_path, saved, capsys, kind, mutate):
        data, models = saved
        content = mutate(json.loads(json.dumps(models[kind])))
        model_path = tmp_path / "model.json"
        model_path.write_text(content if isinstance(content, str) else json.dumps(content))
        assert main(["predict", "--data", data, "--model-file", str(model_path)]) == 3
        assert f"data error: model file {model_path}" in capsys.readouterr().err


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

    def test_usage_error_exit_code(self, blob_csv):
        path, _ = blob_csv
        assert main(["cv", "--data", path, "--grid", "nonsense"]) == 2

    def test_missing_file_exit_code(self):
        assert main(["cv", "--data", "/does/not/exist.csv"]) == 3

    def test_numerical_failure_exit_code(self, tmp_path, blob_csv):
        # single diverging grid point: every fold fails, training errors
        # surface as fold failures, so force the failure through train
        path, _ = blob_csv
        rc = main(["train", "--data", path, "--model", "twin_nn",
                   "--grid", "lr=1e9", "--grid", "epochs=60",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 4

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

    def test_model_that_cannot_predict_fails_its_folds(self, tmp_path):
        # c1 = 0 pins the positive plane at u = 0: the fit succeeds, but
        # its test-fold distances are undefined
        ds = gaussian_blobs([(2, 2, 2), (0, 0, 0)], [3, 27], seed=4, labels=[1, -1])
        path, out = tmp_path / "small.csv", tmp_path / "r.json"
        save_csv(ds, path)
        rc = main(["cv", "--data", str(path), "--model", "twsvm_linear", "--grid", "c1=0",
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


class TestArgparse:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["cv"])
        assert err.value.code == 2
