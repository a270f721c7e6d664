"""The benchmark's own tests: every correctness check rejects a corrupted
output, and the traced run leaves no wrapper behind."""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from twinlearn import cli, data, harness, multiclass, serialize, twin_nn, twsvm  # noqa: E402
from workloads import _operations  # noqa: E402


def _blobs(seed, sizes, centres, labels):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(0.0, 1.0, (n, len(c))) + c for n, c in zip(sizes, centres)])
    y = np.concatenate([np.full(n, lab) for n, lab in zip(sizes, labels)])
    return x, y


def _cv(tmp_path, x, y, *flags):
    path = str(tmp_path / "data.csv")
    data.save_csv(data.Dataset(x, y), path)
    out = str(tmp_path / "result.json")
    assert cli.main(["cv", "--data", path, "--out", out, "--folds", "5", "--seed", "3",
                     *flags]) == 0
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _binary_result(tmp_path):
    x, y = _blobs(1, [10, 30], [np.array([1.5, 0.0]), np.array([-1.5, 0.0])], [1, -1])
    return _cv(tmp_path, x, y, "--model", "twin_nn", "--grid", "epochs=5")


def test_fold_checks_reject_moved_and_flipped_rows(tmp_path):
    result = _binary_result(tmp_path)
    sizes = {1: 10, -1: 30}
    assert checks.fold_counts(result, sizes) == []
    assert checks.fold_metrics(result) == []

    moved = copy.deepcopy(result)
    moved["folds"][0]["confusion"]["tn"] += 1
    moved["folds"][1]["confusion"]["tn"] -= 1
    assert checks.fold_counts(moved, sizes)

    flipped = copy.deepcopy(result)
    cm = flipped["folds"][0]["confusion"]
    if cm["tp"]:
        cm["tp"], cm["fn"] = cm["tp"] - 1, cm["fn"] + 1
    else:
        cm["fn"], cm["tp"] = cm["fn"] - 1, cm["tp"] + 1
    assert checks.fold_counts(flipped, sizes) == []
    assert checks.fold_metrics(flipped)


def test_multiclass_fold_checks_reject_a_wrong_accuracy(tmp_path):
    x, y = _blobs(2, [10, 10, 10], [np.eye(2)[0] * 3, np.eye(2)[1] * 3, -np.ones(2) * 3],
                  [0, 1, 2])
    result = _cv(tmp_path, x, y, "--model", "twin_nn_mc", "--grid", "epochs=5")
    assert checks.fold_counts(result, {0: 10, 1: 10, 2: 10}) == []
    assert checks.fold_metrics(result) == []
    result["folds"][2]["metrics"]["acc"] += 0.01
    assert checks.fold_metrics(result)


def _aggregates(**means):
    return {"aggregates": {k: {"mean": v, "std": 0.0, "n": 5} for k, v in means.items()}}


def test_claim_rejects_a_weaker_twin():
    rfnn = _aggregates(gmeans=0.5, fmeasure=0.4, mcc=0.3)
    assert checks.twin_beats_rfnn(_aggregates(gmeans=0.9, fmeasure=0.6, mcc=0.5), rfnn) == []
    assert checks.twin_beats_rfnn(_aggregates(gmeans=0.9, fmeasure=0.6, mcc=0.2), rfnn)
    assert checks.twin_beats_rfnn(_aggregates(gmeans=0.8, fmeasure=0.6, mcc=0.5), rfnn)


def test_identical_rejects_a_changed_byte():
    assert checks.identical([b"{}", b"{}"], "result") == []
    assert checks.identical([b"{}", b"{ }"], "result")


def test_kkt_rejects_a_perturbed_dual():
    x, y = _blobs(3, [12, 30], [np.array([1.0, 0.0]), np.array([-1.0, 0.0])], [1, -1])
    a, b = x[y == 1], x[y == -1]
    model = twsvm.solve_dual(twsvm.TwsvmProblem(a, b, 0.1, 1.0))
    assert checks.twsvm_kkt(a, b, 0.1, 1.0, model.alpha, model.beta) == []
    alpha = model.alpha.copy()
    alpha[np.argmin(alpha)] += 1e-3
    assert checks.twsvm_kkt(a, b, 0.1, 1.0, alpha, model.beta)


def test_convergence_check_rejects_a_failure_without_cause():
    cause = "projected gradient hit the 200000-iteration cap at residual 2.3e-01"
    result = {"folds": [{"repeat": 0, "fold": f, "failed": True} for f in range(2)],
              "failures": [{"repeat": 0, "fold": f, "stage": "train", "error": cause,
                            "grid_index": 0} for f in range(2)]}
    assert checks.convergence_failures(result) == []
    other = copy.deepcopy(result)
    other["failures"][1]["error"] = "matrix is not positive definite"
    assert checks.convergence_failures(other)
    unrecorded = copy.deepcopy(result)
    del unrecorded["failures"][1]
    assert checks.convergence_failures(unrecorded)
    # a fixed solver: no fold fails, nothing to explain
    assert checks.convergence_failures({"folds": [{"repeat": 0, "fold": 0, "failed": False}],
                                        "failures": []}) == []


def test_centroid_check_rejects_a_poor_classifier():
    x, y = _blobs(4, [20, 20, 20], [np.eye(3)[c] * 4 for c in range(3)], [0, 1, 2])
    assignment = np.arange(60) % 5
    centroid = checks.nearest_centroid_accuracy(x, y, assignment)
    assert centroid > 0.9
    assert checks.beats_centroid("mc", _aggregates(acc=centroid - 0.01), centroid) == []
    assert checks.beats_centroid("mc", _aggregates(acc=centroid - 0.2), centroid)


def test_imputation_check_rejects_a_wrong_cell():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 4))
    x[rng.random(x.shape) < 0.15] = np.nan
    missing = np.isnan(x)
    train = data.Dataset(x[:30], np.zeros(30), missing[:30])
    test = data.Dataset(x[30:], np.zeros(10), missing[30:])
    done_train = data.knn_impute(train, 3)
    done_test = data.knn_impute_from(test, done_train, 3)
    ref_train = checks.knn_fill(x[:30], x[:30], 3, self_donor=True)
    ref_test = checks.knn_fill(x[30:], ref_train, 3, self_donor=False)
    cells_train, cells_test = np.argwhere(missing[:30]), np.argwhere(missing[30:])
    assert checks.imputed_cells(done_train.features, ref_train, cells_train) == []
    assert checks.imputed_cells(done_test.features, ref_test, cells_test) == []
    wrong = done_test.features.copy()
    i, j = cells_test[0]
    wrong[i, j] += 1e-6
    assert checks.imputed_cells(wrong, ref_test, cells_test)


def test_label_checks_reject_a_flipped_label(tmp_path):
    x, y = _blobs(6, [20, 40], [np.array([1.5, 0.0]), np.array([-1.5, 0.0])], [1, -1])
    xm, ym = _blobs(7, [15, 15, 15], [np.eye(2)[0] * 3, np.eye(2)[1] * 3, -np.ones(2) * 3],
                    [0, 1, 2])
    stream = np.random.default_rng(8).normal(0.0, 1.5, (500, 2))
    binary, classes = data.Dataset(x, y), data.Dataset(xm, ym)
    cases = [
        (twin_nn.train(binary, twin_nn.TwinHyper(hidden=4, epochs=20)),
         twin_nn.predict, checks.twin_labels),
        (twin_nn.train_rfnn_baseline(binary, hidden=4, epochs=20),
         twin_nn.rfnn_predict, checks.rfnn_labels),
        (multiclass.mc_train(classes, multiclass.MCHyper(subnet_features=4, epochs=20)),
         multiclass.mc_predict, checks.multiclass_labels),
    ]
    for model, predict, reference in cases:
        path = str(tmp_path / "model.json")
        serialize.save_model(model, path)
        with open(path, encoding="utf-8") as fh:
            params = json.load(fh)
        labels = predict(serialize.load_model(path), stream)
        assert checks.same_labels("labels", labels, reference(params, stream)) == []
        flipped = labels.copy()
        flipped[7] = labels[8] if labels[8] != labels[7] else labels[7] + 1
        assert checks.same_labels("labels", flipped, reference(params, stream))


def test_operation_counts_include_inner_fits():
    result = {"spec": {"grid": {"hidden": [4, 8], "lr": [0.1]}}, "folds": [{}] * 5,
              "failures": [{"grid_index": 1}, {"grid_index": None}]}
    assert _operations(result) == (5 * 3 - 1, 1)


def _twinlearn_bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "twinlearn" or name.startswith("twinlearn.")
            for attr, value in vars(module).items()}


def test_tracer_times_layers_and_removes_its_wrappers(tmp_path):
    before = _twinlearn_bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert hasattr(harness.knn_impute, "bench_layer")
        assert hasattr(twsvm.solve_spd, "bench_layer")
        _binary_result(tmp_path)
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer.snapshot())
    assert metrics["harness.fits"] == 5
    assert metrics["twin_nn.predict_calls"] == 5
    assert metrics["twin_nn.rows_scored"] == 40
    assert 0 < metrics["twin_nn.epoch_s"] < metrics["twin_nn.train_s"]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) | {"trace.overhead_s"} == listed
    assert layers.leftover_wrappers() == []
    after = _twinlearn_bindings()
    assert all(after[key] is value for key, value in before.items())


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("work"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "nn_imbalanced", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
