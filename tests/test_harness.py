import concurrent.futures
import dataclasses
import functools
import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

import twinlearn.harness as harness
import twinlearn.twin_nn as twin_nn
import twinlearn.twsvm as twsvm
from conftest import fold_data_error_csv, gaussian_blobs
from twinlearn.data import DataError, Dataset, make_folds, make_imbalanced, save_csv
from twinlearn.harness import (
    _OVR_TAG,
    BINARY_MODELS,
    POOL_START_S,
    ExperimentSpec,
    RunResult,
    compare_algorithms,
    expand_grid,
    fit_model,
    fit_onevsrest,
    format_result_table,
    ovr_distances,
    ovr_predict,
    prepare_fold,
    run_experiment,
    run_onevsrest,
    usable_cpus,
    worth_forking,
)
from twinlearn.models import MODELS
from twinlearn.numcore import DivergenceError, mix_seed


def binary_blob_csv(tmp_path, seed=0, counts=(25, 25), name="blobs.csv"):
    ds = gaussian_blobs([(2.2, 0), (-2.2, 0)], list(counts), std=0.9, seed=seed,
                        labels=[1, -1])
    path = tmp_path / name
    save_csv(ds, path)
    return path, ds


def three_class_csv(tmp_path, seed=1, name="three.csv"):
    ds = gaussian_blobs([(3, 0), (-3, 0), (0, 3)], [30, 30, 30], std=0.7,
                        seed=seed)
    path = tmp_path / name
    save_csv(ds, path)
    return path, ds


class TestExpandGrid:
    def test_empty_grid_is_single_default_point(self):
        assert expand_grid({}) == [{}]

    def test_cartesian_product_sorted_keys(self):
        points = expand_grid({"b": [1, 2], "a": [3]})
        assert points == [{"a": 3, "b": 1}, {"a": 3, "b": 2}]


class TestPrepareFold:
    def test_two_fold_aggregate_is_mean(self, tmp_path):
        path, _ = binary_blob_csv(tmp_path)
        spec = ExperimentSpec(data_path=str(path), model="twin_nn",
                              grid={"hidden": [4], "epochs": [120]},
                              folds=2, repeats=1, seed=3)
        result = run_experiment(spec)
        accs = [f["metrics"]["acc"] for f in result.folds]
        assert len(accs) == 2
        assert result.aggregates["acc"]["mean"] == pytest.approx(np.mean(accs), abs=1e-15)

    def test_fit_never_reads_test_rows(self):
        # corrupting the test rows must not change anything fitted on train
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((30, 3))
        mask = rng.random((30, 3)) < 0.15
        mask[:, mask.all(axis=0)] = False
        feats = np.where(mask, np.nan, feats)
        ds = Dataset(feats, rng.choice([1, -1], 30), mask if mask.any() else None)
        plan = make_folds(ds, 3, 1, seed=5)
        train_idx, test_idx = plan.fold_indices(0, 0)

        corrupted_feats = feats.copy()
        corrupted_feats[test_idx] = np.where(
            np.isnan(corrupted_feats[test_idx]), np.nan, 1e6)
        corrupted = Dataset(corrupted_feats, ds.labels,
                            ds.missing, ds.label_names)

        train_a, _, params_a = prepare_fold(ds, train_idx, test_idx)
        train_b, _, params_b = prepare_fold(corrupted, train_idx, test_idx)
        np.testing.assert_array_equal(params_a.minimum, params_b.minimum)
        np.testing.assert_array_equal(params_a.maximum, params_b.maximum)
        np.testing.assert_array_equal(train_a.features, train_b.features)

    def test_fold_preprocessing_completes_missing(self, tmp_path):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((40, 2))
        mask = rng.random((40, 2)) < 0.1
        mask[:, mask.all(axis=0)] = False
        feats = np.where(mask, np.nan, feats)
        ds = Dataset(feats, rng.choice([1, -1], 40), mask if mask.any() else None)
        plan = make_folds(ds, 2, 1, seed=7)
        train, test, _ = prepare_fold(ds, *plan.fold_indices(0, 0))
        assert train.missing is None and test.missing is None
        assert np.all(np.isfinite(train.features))
        assert np.all(np.isfinite(test.features))


class TestRunExperiment:
    def test_deterministic_result_json(self, tmp_path):
        path, _ = binary_blob_csv(tmp_path, seed=8)
        spec = ExperimentSpec(data_path=str(path), model="rfnn",
                              grid={"hidden": [3], "epochs": [80]},
                              folds=2, repeats=2, seed=9)
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        assert r1.to_json() == r2.to_json()

    def test_divergent_grid_point_loses(self, tmp_path):
        path, _ = binary_blob_csv(tmp_path, seed=10)
        spec = ExperimentSpec(
            data_path=str(path), model="twin_nn",
            grid={"lr": [0.05, 1e9], "hidden": [4], "epochs": [100]},
            folds=2, repeats=1, seed=11)
        result = run_experiment(spec)
        assert all(f["chosen"]["lr"] == 0.05 for f in result.folds if not f["failed"])
        assert len(result.failures) >= 1
        assert all(f["stage"] == "selection" for f in result.failures)

    def test_aggregate_recomputable_from_folds(self, tmp_path):
        path, _ = binary_blob_csv(tmp_path, seed=12)
        spec = ExperimentSpec(data_path=str(path), model="twin_nn",
                              grid={"hidden": [4], "epochs": [100]},
                              folds=3, repeats=2, seed=13)
        result = run_experiment(spec)
        for name, agg in result.aggregates.items():
            values = [f["metrics"][name] for f in result.folds
                      if not f["failed"] and f["metrics"][name] is not None]
            assert agg["n"] == len(values)
            assert abs(agg["mean"] - np.mean(values)) <= 1e-12
            expected_std = np.std(values, ddof=1) if len(values) > 1 else 0.0
            assert abs(agg["std"] - expected_std) <= 1e-12

    def test_timings_not_serialized(self, tmp_path):
        path, _ = binary_blob_csv(tmp_path, seed=14)
        spec = ExperimentSpec(data_path=str(path), model="twin_nn",
                              grid={"hidden": [3], "epochs": [50]},
                              folds=2, repeats=1, seed=15)
        result = run_experiment(spec)
        assert result.fold_seconds  # kept in memory
        payload = json.loads(result.to_json())
        assert "fold_seconds" not in json.dumps(payload)
        assert payload["std_over"] == "all_folds"

    def test_multiclass_model_on_multiclass_data(self, tmp_path):
        path, _ = three_class_csv(tmp_path, seed=16)
        spec = ExperimentSpec(
            data_path=str(path), model="twin_nn_mc",
            grid={"subnet_features": [4], "planes": [2], "epochs": [200],
                  "lr": [0.1]},
            folds=2, repeats=1, seed=17)
        result = run_experiment(spec)
        assert result.task == "multiclass"
        assert result.aggregates["acc"]["mean"] >= 0.9
        assert np.asarray(result.folds[0]["confusion"]).shape == (3, 3)

    def test_binary_model_on_multiclass_relabels_minority(self, tmp_path):
        ds = gaussian_blobs([(3, 0), (-3, 0), (0, 3)], [10, 30, 30], std=0.7,
                            seed=18)
        path = tmp_path / "m.csv"
        save_csv(ds, path)
        spec = ExperimentSpec(data_path=str(path), model="twin_nn",
                              grid={"hidden": [4], "epochs": [100]},
                              folds=2, repeats=1, seed=19)
        result = run_experiment(spec)
        assert result.task == "binary"
        total_pos = sum(f["confusion"]["tp"] + f["confusion"]["fn"]
                        for f in result.folds)
        assert total_pos == 10  # the minority class became +1


# the +1 class's own-plane distance, read off a full binary model
FULL_PLUS_DISTANCE = {
    "twin_nn": lambda model, x: twin_nn.decision_values(model, x)[0],
    "rfnn": lambda model, x: -twin_nn.rfnn_decision(model, x),
    "twsvm_linear": lambda model, x: twsvm.twsvm_distances(model, x)[0],
    "twsvm_rbf": lambda model, x: twsvm.twsvm_distances(model, x)[0],
}
OVR_PARAMS = {
    "twin_nn": {"hidden": 4, "epochs": 120},
    "rfnn": {"hidden": 4, "epochs": 120},
    "twsvm_linear": {"c1": 0.5},
    "twsvm_rbf": {"gamma": 0.5},
}


class TestOneVsRest:
    def test_three_blob_confusion_trace(self, tmp_path):
        path, ds = three_class_csv(tmp_path, seed=20)
        spec = ExperimentSpec(data_path=str(path), model="twin_nn",
                              grid={"hidden": [4], "epochs": [150]},
                              folds=3, repeats=1, seed=21)
        result = run_onevsrest(spec)
        for fold in result.folds:
            cm = np.asarray(fold["confusion"])
            assert cm.shape == (3, 3)
            assert np.trace(cm) >= 0.95 * cm.sum()

    def test_binary_dataset_rejected(self, tmp_path):
        path, _ = binary_blob_csv(tmp_path, seed=22)
        spec = ExperimentSpec(data_path=str(path), model="twin_nn",
                              folds=2, seed=23)
        with pytest.raises(DataError, match="run_experiment"):
            run_onevsrest(spec)

    def test_predictions_are_argmin_of_distances(self):
        ds = gaussian_blobs([(3, 0), (-3, 0), (0, 3)], [15, 15, 15], std=0.7,
                            seed=24)
        ensemble = fit_onevsrest(ds, "twin_nn",
                                 {"hidden": 4, "epochs": 120}, seed=25)
        x = np.random.default_rng(3).standard_normal((40, 2)) * 2
        d = ovr_distances(ensemble, x)
        expected = ensemble.class_ids[np.argmin(d, axis=1)]
        np.testing.assert_array_equal(ovr_predict(ensemble, x), expected)

    @pytest.mark.parametrize("kind", BINARY_MODELS)
    def test_an_ensemble_builds_its_scorer_once(self, kind, monkeypatch):
        own = MODELS[kind].own_plane
        builds = []
        counted = own._replace(scorer=lambda parts: builds.append(1) or own.scorer(parts))
        monkeypatch.setitem(MODELS, kind, dataclasses.replace(MODELS[kind], own_plane=counted))
        ds = gaussian_blobs([(3, 0), (-3, 0), (0, 3)], [15, 15, 15], std=0.7, seed=26)
        ensemble = fit_onevsrest(ds, kind, OVR_PARAMS[kind], seed=25)
        x = np.random.default_rng(4).standard_normal((20, 2))
        for _ in range(2):
            ovr_distances(ensemble, x)
            ovr_predict(ensemble, x)
            ovr_predict(ensemble, x[0])
        assert builds == [1]

    @pytest.mark.parametrize("kind", BINARY_MODELS)
    def test_distances_are_the_full_fits_plus_distances(self, kind):
        ds = gaussian_blobs([(2, 0), (-1, 1.7), (-1, -1.7)], [15, 15, 15], std=0.9,
                            seed=27)
        x = np.random.default_rng(5).standard_normal((30, 2)) * 2
        ensemble = fit_onevsrest(ds, kind, OVR_PARAMS[kind], seed=28)
        full = [fit_model(kind, make_imbalanced(ds, int(c)), OVR_PARAMS[kind],
                          mix_seed(28, _OVR_TAG, int(c)))
                for c in ds.class_ids]
        expected = np.column_stack([FULL_PLUS_DISTANCE[kind](model, x) for model in full])
        d = ovr_distances(ensemble, x)
        assert d.shape == expected.shape and d.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["twin_nn", "twsvm_linear"])
    def test_no_minus_side_or_beta_dual_is_trained(self, tmp_path, monkeypatch, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("one-vs-rest fitted a whole binary model")

        monkeypatch.setattr(twin_nn, "train", refuse)
        monkeypatch.setattr(twsvm, "solve_dual", refuse)
        sides, duals = [], []
        train_side, solve = twin_nn.train_side, twsvm.projected_gradient_box_max
        monkeypatch.setattr(twin_nn, "train_side", lambda data, hyper, side:
                            sides.append(side) or train_side(data, hyper, side))
        monkeypatch.setattr(twsvm, "projected_gradient_box_max",
                            lambda m, c: duals.append(c) or solve(m, c))
        ds = gaussian_blobs([(3, 0), (-3, 0), (0, 3)], [15, 15, 15], std=0.7, seed=29)
        ensemble = fit_onevsrest(ds, kind, OVR_PARAMS[kind], seed=30)
        assert ensemble.score(np.zeros((4, 2))).shape == (3, 4)
        # one plus side or one alpha dual per class
        assert sides + duals == (["plus"] * 3 if kind == "twin_nn" else [0.5] * 3)
        path, _ = three_class_csv(tmp_path, seed=31)
        spec = ExperimentSpec(data_path=str(path), model=kind, grid={
            key: [value] for key, value in OVR_PARAMS[kind].items()}, folds=2, seed=32)
        result = run_onevsrest(spec)
        assert result.failures == [] and not any(f["failed"] for f in result.folds)
        assert set(sides) <= {"plus"}

    def test_a_diverging_minus_side_fails_no_fold(self, tmp_path):
        # c_minus = 1e4 makes the minus side diverge, which one-vs-rest never trains
        path, ds = three_class_csv(tmp_path, seed=33)
        grid = {"c_minus": [1e4], "hidden": [4], "epochs": [100]}
        with pytest.raises(DivergenceError, match="minus side"):
            fit_model("twin_nn", make_imbalanced(ds, 0), {k: v[0] for k, v in grid.items()},
                      seed=1)
        result = run_onevsrest(ExperimentSpec(data_path=str(path), model="twin_nn",
                                              grid=grid, folds=3, seed=1))
        assert result.failures == [] and result.aggregates["acc"]["n"] == 3

    def test_mc_kind_rejected(self):
        ds = gaussian_blobs([(1, 0), (-1, 0), (0, 1)], [5, 5, 5], seed=26)
        with pytest.raises(ValueError, match="binary model kind"):
            fit_onevsrest(ds, "twin_nn_mc", {}, seed=0)


class TestCompareAlgorithms:
    def test_reference_skipped_with_note(self):
        scores = np.random.default_rng(4).random((6, 3))
        report = compare_algorithms(scores, ["a", "b", "c"], reference="b")
        assert "note" in report.wilcoxon["b"]
        assert "p" in report.wilcoxon["a"]

    def test_strict_winner_over_six_datasets(self):
        ref = np.array([0.9, 0.91, 0.92, 0.93, 0.94, 0.95])
        other = ref - 0.05
        scores = np.column_stack([ref, other])
        report = compare_algorithms(scores, ["ref", "other"], reference="ref")
        assert report.wilcoxon["other"]["p"] == 0.03125

    def test_identical_columns_friedman_p_one(self):
        scores = np.tile(np.linspace(0.1, 0.9, 7)[:, None], (1, 3))
        report = compare_algorithms(scores, ["a", "b", "c"], reference="a")
        assert report.friedman_p == 1.0
        assert "note" in report.wilcoxon["b"]  # all differences zero

    def test_insufficient_datasets(self):
        with pytest.raises(DataError, match="insufficient"):
            compare_algorithms(np.ones((3, 2)), ["a", "b"], reference="a")

    def test_text_table_renders(self):
        scores = np.random.default_rng(5).random((6, 2))
        report = compare_algorithms(scores, ["a", "b"], reference="a")
        text = report.to_text()
        assert "Friedman" in text and "a" in text


class TestFormatting:
    def test_result_table_mentions_undefined(self, tmp_path):
        path, _ = binary_blob_csv(tmp_path, seed=27)
        spec = ExperimentSpec(data_path=str(path), model="twin_nn",
                              grid={"hidden": [3], "epochs": [60]},
                              folds=2, repeats=1, seed=28)
        table = format_result_table(run_experiment(spec))
        assert "metric" in table and "acc" in table

    def test_wall_clock_is_the_runs_own_time(self):
        # parallel folds overlap, so the fold times add up to more than the run
        result = RunResult(spec={}, task="binary", folds=[], aggregates={}, failures=[],
                           chosen_hyperparameters={}, fold_seconds=[1.0, 2.0],
                           wall_seconds=1.25)
        assert format_result_table(result).splitlines()[-1] == (
            "wall clock: 1.25s; fold time: 3.00s summed, 1.50s/fold")


def missing_cells_csv(tmp_path, seed=40):
    """Three classes of three features with about 15% of cells missing."""
    ds = gaussian_blobs([(3, 0, 0), (-3, 0, 0), (0, 3, 0)], [20, 20, 20], std=0.7,
                        seed=seed)
    mask = np.random.default_rng(seed).random(ds.features.shape) < 0.15
    mask[mask.all(axis=1), 0] = False
    path = tmp_path / "missing.csv"
    save_csv(Dataset(np.where(mask, np.nan, ds.features), ds.labels, mask), path)
    return path


@pytest.fixture
def pools(monkeypatch):
    """Fork the fold jobs after the first whatever it took.  The list gets
    [job indices, outcome] per pool asked for: True when the pool ran the
    jobs, False when it could not start, "raised" when a job raised."""
    calls = []
    forked = harness._forked

    def recorded(job, indices, workers):
        call = [list(indices), "raised"]
        calls.append(call)
        results = forked(job, indices, workers)
        call[1] = results is not None
        return results

    monkeypatch.setattr(harness, "worth_forking", lambda job_s, remaining, workers: True)
    monkeypatch.setattr(harness, "_forked", recorded)
    return calls


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the fold jobs may use: ``cpus(n)``."""
    return lambda n: monkeypatch.setattr(harness, "usable_cpus", lambda: n)


class TestParallelFolds:
    def test_a_run_with_failures_is_byte_identical_on_two_workers(self, tmp_path, pools,
                                                                  cpus):
        path, _ = binary_blob_csv(tmp_path, seed=10)
        spec = ExperimentSpec(
            data_path=str(path), model="twin_nn",
            grid={"lr": [0.05, 1e9], "hidden": [4], "epochs": [100]},
            folds=3, repeats=2, seed=11)
        cpus(1)
        serial = run_experiment(spec)
        assert pools == []
        cpus(2)
        parallel = run_experiment(spec)
        assert pools == [[[1, 2, 3, 4, 5], True]]
        assert serial.failures and parallel.to_json() == serial.to_json()
        assert len(parallel.fold_seconds) == 6 and parallel.wall_seconds > 0

    def test_one_vs_rest_is_byte_identical_on_two_workers(self, tmp_path, pools, cpus):
        path, _ = three_class_csv(tmp_path, seed=41)
        spec = ExperimentSpec(data_path=str(path), model="twin_nn",
                              grid={"hidden": [4], "epochs": [80]}, folds=3, seed=42)
        cpus(1)
        serial = run_onevsrest(spec)
        cpus(2)
        assert run_onevsrest(spec).to_json() == serial.to_json()
        assert pools == [[[1, 2], True]]

    def test_multiclass_net_on_missing_cells_is_byte_identical(self, tmp_path, pools, cpus):
        spec = ExperimentSpec(
            data_path=str(missing_cells_csv(tmp_path)), model="twin_nn_mc",
            grid={"subnet_features": [3], "planes": [2], "epochs": [60], "lr": [0.05, 0.1]},
            folds=4, seed=43)
        cpus(1)
        serial = run_experiment(spec)
        cpus(3)
        assert run_experiment(spec).to_json() == serial.to_json()
        assert pools == [[[1, 2, 3], True]]

    def test_a_worker_data_error_reaches_the_caller(self, tmp_path, pools, cpus):
        path = fold_data_error_csv(tmp_path / "fold_error.csv")
        spec = ExperimentSpec(data_path=path, model="twin_nn",
                              grid={"hidden": [3], "epochs": [20]}, folds=3, seed=44)
        cpus(1)
        with pytest.raises(DataError) as serial:
            run_experiment(spec)
        cpus(2)
        with pytest.raises(DataError) as parallel:
            run_experiment(spec)
        assert str(parallel.value) == str(serial.value)
        # raised in a worker, and passed on by the pool
        assert type(parallel.value.__cause__).__name__ == "_RemoteTraceback"
        assert pools == [[[1, 2], "raised"]]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fail_at", ["start", "second submit"])
    def test_a_pool_that_cannot_start_falls_back_to_serial(self, tmp_path, pools, cpus,
                                                           monkeypatch, fail_at):
        path, _ = binary_blob_csv(tmp_path, seed=45)
        spec = ExperimentSpec(data_path=str(path), model="rfnn",
                              grid={"hidden": [3], "epochs": [40]}, folds=4, seed=46)
        cpus(1)
        serial = run_experiment(spec)

        class Failing(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                if fail_at == "start":
                    raise OSError("no more processes")
                super().__init__(*args, **kwargs)
                self.submitted = 0

            def submit(self, *args):
                self.submitted += 1
                if self.submitted == 2:  # the workers have forked by now
                    raise OSError("no more processes")
                return super().submit(*args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Failing)
        cpus(2)
        assert run_experiment(spec).to_json() == serial.to_json()
        assert pools == [[[1, 2, 3], False]]
        assert multiprocessing.active_children() == []

    def test_a_caller_with_other_threads_runs_its_jobs_itself(self, tmp_path, pools, cpus):
        path, _ = binary_blob_csv(tmp_path, seed=49)
        spec = ExperimentSpec(data_path=str(path), model="rfnn",
                              grid={"hidden": [3], "epochs": [40]}, folds=3, seed=50)
        cpus(1)
        serial = run_experiment(spec)
        cpus(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            assert run_experiment(spec).to_json() == serial.to_json()
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert pools == [[[1, 2], False]]

    def test_a_wrapped_function_keeps_the_jobs_here(self, tmp_path, pools, cpus,
                                                    monkeypatch):
        # a profiler's totals in a forked worker would never come back
        path, _ = binary_blob_csv(tmp_path, seed=51)
        spec = ExperimentSpec(data_path=str(path), model="rfnn",
                              grid={"hidden": [3], "epochs": [40]}, folds=3, seed=52)
        cpus(1)
        serial = run_experiment(spec)
        cpus(2)
        calls = []

        @functools.wraps(harness.prepare_fold)
        def counted(*args, **kwargs):
            calls.append(args)
            return counted.__wrapped__(*args, **kwargs)

        monkeypatch.setattr(harness, "prepare_fold", counted)
        assert run_experiment(spec).to_json() == serial.to_json()
        assert len(calls) == 3
        assert pools == [[[1, 2], False]]

    def test_only_a_wrapped_twinlearn_function_counts_as_wrapped(self, monkeypatch):
        assert not harness._wrapped()
        monkeypatch.setattr(harness, "join", functools.wraps(os.path.join)(lambda *a: None),
                            raising=False)
        assert not harness._wrapped()
        monkeypatch.setattr(twsvm, "solve_dual",
                            functools.wraps(twsvm.solve_dual)(lambda *a: None))
        assert harness._wrapped()

    def test_job_0_decides(self, monkeypatch, cpus):
        # job i takes i + 1 seconds; job 0's time decides for the four left
        asked = []

        def never(job_s, remaining, workers):
            asked.append((job_s, remaining, workers))
            return False

        monkeypatch.setattr(harness, "worth_forking", never)
        cpus(2)
        results = harness._run_jobs(lambda i: (i, float(i + 1)), 5)
        assert results == [(i, float(i + 1)) for i in range(5)]
        assert asked == [(1.0, 4, 2)]

    @pytest.mark.parametrize("job_s, remaining, workers, fork", [
        # 4 jobs on 2 workers save two jobs' time, against four 10 ms starts
        (0.021, 4, 2, True),
        (0.019, 4, 2, False),
        # 3 jobs on 2 workers save one job's time
        (0.041, 3, 2, True),
        (0.039, 3, 2, False),
        # one worker, or one job, saves nothing
        (10.0, 4, 1, False),
        (10.0, 1, 1, False),
    ])
    def test_the_fork_rule(self, job_s, remaining, workers, fork):
        assert POOL_START_S == 0.010
        assert worth_forking(job_s, remaining, workers) is fork

    def test_quick_folds_stay_in_the_calling_process(self, tmp_path, monkeypatch, cpus):
        # a 2-fold run has one job left: no pool can save anything
        asked = []
        monkeypatch.setattr(harness, "_forked", lambda *args: asked.append(args))
        path, _ = binary_blob_csv(tmp_path, seed=47)
        spec = ExperimentSpec(data_path=str(path), model="rfnn",
                              grid={"hidden": [3], "epochs": [20]}, folds=2, seed=48)
        cpus(8)
        run_experiment(spec)
        assert asked == []

    def test_usable_cpus(self, monkeypatch):
        assert usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1
