"""Experiment orchestration: grid search, repeated stratified CV, reports.

Per fold, scaling is fitted on the training rows only and missing values
are filled from training-fold donors only, so nothing about a test fold
leaks into preprocessing.  When a grid has more than one point, the
winner is picked on an inner stratified 80/20 split of the training fold,
scored by G-means for binary runs and accuracy for multiclass runs.

Per-job seeds derive deterministically from (master seed, repeat, fold,
grid index), never from execution order, so folds and grid points could
run on a worker pool without changing any number.  Result JSON is
byte-reproducible for a fixed spec and seed; wall-clock timings are kept
on the in-memory result only and never serialized.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from .data import (
    DataError,
    Dataset,
    apply_scaling,
    fit_scaling,
    knn_impute,
    knn_impute_from,
    load_csv,
    load_libsvm,
    make_folds,
    make_imbalanced,
)
from .evalstats import confusion, friedman, metrics, wilcoxon_signed_ranks
from .models import BINARY_MODELS, MODEL_KINDS, MODELS
from .numcore import NumericalError, Rng, mix_seed

__all__ = [
    "ExperimentSpec",
    "RunResult",
    "ComparisonReport",
    "BINARY_MODELS",
    "MODEL_KINDS",
    "fit_model",
    "prepare_fold",
    "expand_grid",
    "run_experiment",
    "run_onevsrest",
    "OvrEnsemble",
    "fit_onevsrest",
    "ovr_distances",
    "ovr_predict",
    "compare_algorithms",
    "load_dataset",
    "format_result_table",
]

RESULT_SCHEMA_VERSION = 1

_BINARY_METRICS = ("acc", "tpr", "tnr", "ppv", "npv", "gmeans", "fmeasure", "mcc")

# distinct derivation tags so harness streams never collide with fold plans
_JOB_TAG = 101
_INNER_TAG = 202
_OVR_TAG = 303


@dataclass(frozen=True)
class ExperimentSpec:
    """One cross-validation experiment.

    ``grid`` maps hyperparameter names to candidate value lists; an empty
    grid means a single run with model defaults.  ``positive_class``
    names the class relabeled +1 for binary models (default: the minority
    class).  ``label_column`` applies to CSV inputs.
    """

    data_path: str
    data_format: str = "csv"
    model: str = "twin_nn"
    grid: dict = field(default_factory=dict)
    folds: int = 5
    repeats: int = 1
    seed: int = 0
    positive_class: int | None = None
    label_column: str | int = "label"
    knn_k: int = 5

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODEL_KINDS}")
        if self.data_format not in ("csv", "libsvm"):
            raise ValueError(f"unknown data format {self.data_format!r}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid entry {key!r} must be a non-empty list")

    def as_dict(self) -> dict:
        d = asdict(self)
        d["grid"] = {k: list(v) for k, v in sorted(self.grid.items())}
        return d


@dataclass(eq=False)
class RunResult:
    """Per-fold reports plus aggregates; timings stay in memory only."""

    spec: dict
    task: str  # "binary" or "multiclass"
    folds: list
    aggregates: dict
    failures: list
    chosen_hyperparameters: dict
    fold_seconds: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "spec": self.spec,
            "task": self.task,
            "folds": self.folds,
            "aggregates": self.aggregates,
            "failures": self.failures,
            "chosen_hyperparameters": self.chosen_hyperparameters,
            "std_over": "all_folds",
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def load_dataset(path, data_format: str = "csv", label_column="label") -> Dataset:
    if data_format == "csv":
        return load_csv(path, label_column=label_column)
    if data_format == "libsvm":
        return load_libsvm(path)
    raise ValueError(f"unknown data format {data_format!r}")


def expand_grid(grid: dict) -> list[dict]:
    """Cartesian product of grid values, keys in sorted order; an empty
    grid gives one empty point."""
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


_INT_PARAMS = {"hidden", "epochs", "subnet_features", "planes"}


def _fit(kind: str, ds: Dataset, params: dict, seed: int):
    params = {k: int(v) if k in _INT_PARAMS else float(v) for k, v in params.items()}
    return MODELS[kind].fit(ds, params, seed)


def fit_model(kind: str, dataset: Dataset, params: dict, seed: int,
              positive_class: int | None = None):
    """Fit one model of ``kind`` with hyperparameters ``params``.

    Binary kinds train on {+1,-1} labels; other labelings are relabeled
    one-vs-rest against ``positive_class`` (default: the minority class).
    """
    if MODELS[kind].task == "binary":
        dataset = _as_binary(dataset, positive_class)
    return _fit(kind, dataset, params, seed)


def prepare_fold(dataset: Dataset, train_idx, test_idx, knn_k: int = 5):
    """Leak-free per-fold preprocessing.

    Scaling is fitted on the training rows (missing cells ignored) and
    applied to both folds; missing cells are then filled in scaled space,
    the training fold from itself, the test fold from training donors.
    Returns (train, test, scaling_params).
    """
    train = dataset.rows(train_idx)
    test = dataset.rows(test_idx)
    params = fit_scaling(train)
    train = apply_scaling(train, params)
    test = apply_scaling(test, params)
    if train.missing is not None:
        train = knn_impute(train, knn_k)
    if test.missing is not None:
        test = knn_impute_from(test, train, knn_k)
    return train, test, params


def _stratified_holdout(ds: Dataset, fraction: float, seed: int):
    """(fit_idx, val_idx): per-class shuffled split; singleton classes
    stay on the fit side."""
    rng = Rng(seed)
    fit_parts, val_parts = [], []
    for c in ds.class_ids:
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        n_val = int(round(fraction * idx.size))
        if idx.size >= 2:
            n_val = min(max(n_val, 1), idx.size - 1)
        else:
            n_val = 0
        val_parts.append(idx[:n_val])
        fit_parts.append(idx[n_val:])
    return np.sort(np.concatenate(fit_parts)), np.sort(np.concatenate(val_parts))


def _as_binary(ds: Dataset, positive_class: int | None) -> Dataset:
    """{+1,-1} labels as they are, else ``positive_class`` (default: the
    minority class, lowest id on ties) against the rest."""
    if positive_class is None:
        if set(ds.class_ids.tolist()) == {-1, 1}:
            return ds
        counts = ds.class_counts()
        positive_class = min(counts, key=lambda c: (counts[c], c))
    return make_imbalanced(ds, positive_class)


def _binary_report(class_ids, labels, predicted) -> tuple[dict, dict]:
    cm = confusion(labels, predicted)
    return metrics(cm).as_dict(), {"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn}


def _multiclass_report(class_ids, labels, predicted) -> tuple[dict, list]:
    """Accuracy and the K x K confusion counts (row: true, column: predicted)."""
    counts = np.zeros((class_ids.size, class_ids.size), dtype=np.int64)
    np.add.at(counts, (np.searchsorted(class_ids, labels),
                       np.searchsorted(class_ids, predicted)), 1)
    return {"acc": float(np.mean(predicted == labels))}, counts.tolist()


# task -> (fold metrics and confusion, metrics aggregated, grid-selection metric)
_TASKS = {
    "binary": (_binary_report, _BINARY_METRICS, "gmeans"),
    "multiclass": (_multiclass_report, ("acc",), "acc"),
}

_TRAIN_ERRORS = (NumericalError, ValueError)


def _aggregate(folds: list, names) -> dict:
    out = {}
    for name in names:
        values = [f["metrics"][name] for f in folds
                  if not f["failed"] and f["metrics"].get(name) is not None]
        if values:
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            out[name] = {"mean": mean, "std": std, "n": len(values)}
        else:
            out[name] = {"mean": None, "std": None, "n": 0}
    return out


def _modal_choice(folds: list, grid_points: list[dict]) -> dict:
    counts = Counter(f["grid_index"] for f in folds if not f["failed"])
    if not counts:
        return {}
    best = min(counts, key=lambda gi: (-counts[gi], gi))
    return dict(grid_points[best])


def _cross_validate(working: Dataset, spec: ExperimentSpec, task: str,
                    fit, predict) -> RunResult:
    """Repeated stratified CV of ``fit(train, params, seed)`` models that
    label rows through ``predict(model, features)``; ``task`` picks the
    fold metrics and the score that selects among grid points."""
    report, names, selection_metric = _TASKS[task]
    class_ids = working.class_ids
    plan = make_folds(working, spec.folds, spec.repeats, spec.seed)
    grid_points = expand_grid(spec.grid)
    folds_out, failures, timings = [], [], []

    def select(train: Dataset, repeat: int, fold: int) -> int | None:
        """Index of the winning grid point, or None when every point failed."""
        if len(grid_points) == 1:
            return 0
        fit_idx, val_idx = _stratified_holdout(
            train, 0.2, mix_seed(spec.seed, _INNER_TAG, repeat, fold))
        inner_fit, inner_val = train.rows(fit_idx), train.rows(val_idx)
        best_gi, best_score = None, -np.inf
        for gi, params in enumerate(grid_points):
            try:
                model = fit(inner_fit, params, mix_seed(spec.seed, _JOB_TAG, repeat, fold, gi))
                predicted = predict(model, inner_val.features)
                score = report(class_ids, inner_val.labels, predicted)[0][selection_metric]
            except _TRAIN_ERRORS as exc:
                failures.append({"repeat": repeat, "fold": fold, "grid_index": gi,
                                 "stage": "selection", "error": str(exc)})
                continue
            if score > best_score:
                best_gi, best_score = gi, score
        return best_gi

    for repeat in range(spec.repeats):
        for fold in range(spec.folds):
            start = time.perf_counter()
            train, test, _ = prepare_fold(working, *plan.fold_indices(repeat, fold), spec.knn_k)
            record = {"repeat": repeat, "fold": fold, "failed": True,
                      "grid_index": None, "chosen": None, "metrics": None}
            folds_out.append(record)
            gi = select(train, repeat, fold)
            if gi is None:
                failures.append({"repeat": repeat, "fold": fold, "grid_index": None,
                                 "stage": "selection", "error": "every grid point failed"})
            else:
                seed = mix_seed(spec.seed, _JOB_TAG, repeat, fold, gi)
                try:
                    model = fit(train, grid_points[gi], seed)
                except _TRAIN_ERRORS as exc:
                    failures.append({"repeat": repeat, "fold": fold, "grid_index": gi,
                                     "stage": "train", "error": str(exc)})
                else:
                    record.update(failed=False, grid_index=gi, chosen=dict(grid_points[gi]))
                    record["metrics"], record["confusion"] = report(
                        class_ids, test.labels, predict(model, test.features))
            timings.append(time.perf_counter() - start)

    return RunResult(
        spec=spec.as_dict(), task=task, folds=folds_out,
        aggregates=_aggregate(folds_out, names), failures=failures,
        chosen_hyperparameters=_modal_choice(folds_out, grid_points),
        fold_seconds=timings,
    )


def run_experiment(spec: ExperimentSpec, dataset: Dataset | None = None) -> RunResult:
    """Repeated stratified CV with per-fold preprocessing and grid search.

    Binary model kinds run on {+1,-1} labels (multiclass inputs are
    relabeled one-vs-rest against ``spec.positive_class`` or the minority
    class); ``twin_nn_mc`` runs on the labels as loaded.  Divergent folds
    are recorded under ``failures`` and skipped in aggregates, and the
    whole run is deterministic in ``spec.seed``.
    """
    if dataset is None:
        dataset = load_dataset(spec.data_path, spec.data_format, spec.label_column)
    kind = MODELS[spec.model]
    if kind.task == "binary":
        dataset = _as_binary(dataset, spec.positive_class)
    elif dataset.class_ids.size < 2:
        raise DataError("multiclass run needs at least 2 classes")
    return _cross_validate(dataset, spec, kind.task, partial(_fit, spec.model), kind.predict)


@dataclass(eq=False)
class OvrEnsemble:
    """K binary models, one per class, ordered by class id."""

    kind: str
    class_ids: np.ndarray
    models: list


def fit_onevsrest(train: Dataset, kind: str, params: dict, seed: int) -> OvrEnsemble:
    """Train one binary model per class against the rest."""
    if kind not in BINARY_MODELS:
        raise ValueError(f"one-vs-rest needs a binary model kind, got {kind!r}")
    models = [_fit(kind, make_imbalanced(train, int(c)), params, mix_seed(seed, _OVR_TAG, int(c)))
              for c in train.class_ids]
    return OvrEnsemble(kind, train.class_ids.copy(), models)


def ovr_distances(ensemble: OvrEnsemble, features: np.ndarray) -> np.ndarray:
    """(N, K) own-plane distances, one column per class."""
    rows = np.atleast_2d(np.asarray(features, dtype=np.float64))
    distance = MODELS[ensemble.kind].distance
    return np.column_stack([distance(model, rows) for model in ensemble.models])


def ovr_predict(ensemble: OvrEnsemble, features: np.ndarray) -> np.ndarray:
    """Class whose model reports the smallest own-plane distance."""
    d = ovr_distances(ensemble, features)
    return ensemble.class_ids[d.argmin(axis=1)]


def run_onevsrest(spec: ExperimentSpec, dataset: Dataset | None = None) -> RunResult:
    """Repeated CV of a one-vs-rest ensemble of binary models.

    Requires a dataset with K >= 3 classes; binary datasets belong in
    run_experiment.  Reports accuracy and the K x K confusion matrix per
    fold.
    """
    if dataset is None:
        dataset = load_dataset(spec.data_path, spec.data_format, spec.label_column)
    if spec.model not in BINARY_MODELS:
        raise ValueError(f"one-vs-rest needs a binary model kind, got {spec.model!r}")
    if dataset.class_ids.size < 3:
        raise DataError("dataset has fewer than 3 classes: use run_experiment")
    return _cross_validate(dataset, spec, "multiclass",
                           lambda ds, params, seed: fit_onevsrest(ds, spec.model, params, seed),
                           ovr_predict)


@dataclass(eq=False)
class ComparisonReport:
    """Significance of score differences against a reference algorithm."""

    reference: str
    algorithms: list[str]
    wilcoxon: dict
    friedman_chi2: float
    friedman_p: float

    def as_dict(self) -> dict:
        return {
            "reference": self.reference,
            "algorithms": list(self.algorithms),
            "wilcoxon": self.wilcoxon,
            "friedman": {"chi2": self.friedman_chi2, "p": self.friedman_p},
        }

    def to_text(self) -> str:
        width = max(len(a) for a in self.algorithms) + 2
        lines = [f"{'algorithm':<{width}} {'W':>10} {'p':>12}"]
        for name in self.algorithms:
            entry = self.wilcoxon[name]
            if "note" in entry:
                lines.append(f"{name:<{width}} {entry['note']}")
            else:
                lines.append(f"{name:<{width}} {entry['W']:>10.2f} {entry['p']:>12.6g}")
        lines.append(f"Friedman chi2={self.friedman_chi2:.6g}  p={self.friedman_p:.6g}")
        return "\n".join(lines)


def compare_algorithms(scores, algorithms: list[str], reference: str) -> ComparisonReport:
    """Wilcoxon signed-ranks of each algorithm against ``reference`` plus a
    Friedman test across all of them.

    ``scores`` is (n_datasets, n_algorithms) with columns ordered like
    ``algorithms``; at least 5 datasets are required.
    """
    m = np.asarray(scores, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != len(algorithms):
        raise ValueError("scores must be (n_datasets, n_algorithms) matching the name list")
    if len(algorithms) < 2:
        raise ValueError("need at least 2 algorithms to compare")
    if m.shape[0] < 5:
        raise DataError(f"insufficient datasets: {m.shape[0]} < 5")
    if reference not in algorithms:
        raise ValueError(f"reference {reference!r} not among {algorithms}")

    ref_col = m[:, algorithms.index(reference)]
    wilcoxon_out = {}
    for j, name in enumerate(algorithms):
        if name == reference:
            wilcoxon_out[name] = {"note": "reference; comparison skipped"}
            continue
        try:
            w, p = wilcoxon_signed_ranks(ref_col, m[:, j])
            wilcoxon_out[name] = {"W": w, "p": p}
        except ValueError as exc:
            wilcoxon_out[name] = {"note": f"not computable: {exc}"}
    chi2, p = friedman(m)
    return ComparisonReport(reference, list(algorithms), wilcoxon_out, chi2, p)


def format_result_table(result: RunResult) -> str:
    """Aligned table of aggregated metrics in mean +- std form."""
    lines = [f"{'metric':<10} {'mean ± std':>20} {'n':>5}"]
    for name, agg in result.aggregates.items():
        if agg["n"] == 0:
            lines.append(f"{name:<10} {'undefined':>20} {0:>5}")
        else:
            cell = f"{agg['mean']:.4f} ± {agg['std']:.4f}"
            lines.append(f"{name:<10} {cell:>20} {agg['n']:>5}")
    if result.failures:
        lines.append(f"failures: {len(result.failures)} (see result JSON)")
    if result.fold_seconds:
        lines.append(
            f"wall clock: {sum(result.fold_seconds):.2f}s total, "
            f"{np.mean(result.fold_seconds):.2f}s/fold"
        )
    return "\n".join(lines)
