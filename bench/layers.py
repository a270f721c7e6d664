"""Per-layer tracing for the benchmark, done from outside the program.

`Tracer.install` replaces public functions of the twinlearn modules with
timing wrappers.  A function is replaced at every twinlearn module
attribute bound to it, because that is where its callers look it up
(harness calls `knn_impute` through its own namespace, twsvm calls
`solve_spd` through its own, and so on).  `Tracer.uninstall` puts every
original back.  Nothing under ``src/`` is changed.

Spans nest: a layer's self time is its duration minus the time of the
traced layers it called.  A call into a layer that is already open (for
example `predict` calling `decision_values`) is not counted twice.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time

import numpy as np

# layer -> the (module, function) pairs it times
LAYERS = {
    "cli.main": [("twinlearn.cli", "main")],
    "harness.run": [("twinlearn.harness", "run_experiment"),
                    ("twinlearn.harness", "run_onevsrest")],
    "harness.prepare_fold": [("twinlearn.harness", "prepare_fold")],
    "data.load_csv": [("twinlearn.data", "load_csv")],
    "data.make_folds": [("twinlearn.data", "make_folds")],
    "data.scaling": [("twinlearn.data", "fit_scaling"), ("twinlearn.data", "apply_scaling")],
    "data.knn_impute": [("twinlearn.data", "knn_impute"), ("twinlearn.data", "knn_impute_from")],
    "evalstats.metrics": [("twinlearn.evalstats", "confusion"),
                          ("twinlearn.evalstats", "metrics")],
    "twin_nn.train": [("twinlearn.twin_nn", "train")],
    "twin_nn.rfnn_train": [("twinlearn.twin_nn", "train_rfnn_baseline")],
    "multiclass.mc_train": [("twinlearn.multiclass", "mc_train")],
    "twsvm.solve_dual": [("twinlearn.twsvm", "solve_dual")],
    "twsvm.dual_solve": [("twinlearn.twsvm", "projected_gradient_box_max")],
    "twsvm.solve_spd": [("twinlearn.numcore", "solve_spd")],
    "twsvm.kernel_matrix": [("twinlearn.twsvm", "kernel_matrix")],
    "twin_nn.predict": [("twinlearn.twin_nn", "predict"),
                        ("twinlearn.twin_nn", "decision_values")],
    "twin_nn.rfnn_predict": [("twinlearn.twin_nn", "rfnn_predict"),
                             ("twinlearn.twin_nn", "rfnn_decision")],
    "multiclass.mc_predict": [("twinlearn.multiclass", "mc_predict")],
    "twsvm.predict": [("twinlearn.twsvm", "twsvm_predict"),
                      ("twinlearn.twsvm", "twsvm_distances")],
    "serialize.load_model": [("twinlearn.serialize", "load_model")],
    "serialize.save_model": [("twinlearn.serialize", "save_model")],
}

FIT_LAYERS = ("twin_nn.train", "twin_nn.rfnn_train", "multiclass.mc_train", "twsvm.solve_dual")


def _epochs(arguments) -> int:
    """Epoch budget of one training call, read from its arguments."""
    hyper = arguments.get("hyper")
    return int(hyper.epochs if hyper is not None else arguments["epochs"])


def _missing_cells(arguments) -> int:
    target = arguments.get("dataset", arguments.get("target"))
    return 0 if target.missing is None else int(target.missing.sum())


def _rows(arguments) -> int:
    return int(np.atleast_2d(np.asarray(arguments["x"])).shape[0])


# layer -> (counter name, function of the call's bound arguments)
_COUNTERS = {
    "twin_nn.train": ("epochs", _epochs),
    "twin_nn.rfnn_train": ("epochs", _epochs),
    "multiclass.mc_train": ("epochs", _epochs),
    "data.knn_impute": ("cells", _missing_cells),
    "twin_nn.predict": ("rows", _rows),
}


class Tracer:
    """Timing wrappers around the LAYERS functions, with running totals."""

    def __init__(self):
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [layer, time of traced children]
        self._open: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        counter = _COUNTERS.get(layer)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            if layer in FIT_LAYERS and "harness.run" in self._open:
                self.counts["harness.fits"] = self.counts.get("harness.fits", 0) + 1
            if counter is not None:
                name, measure = counter
                key = f"{layer}.{name}"
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[key] = self.counts.get(key, 0) + measure(bound.arguments)
            span = [layer, 0.0]
            self._stack.append(span)
            self._open.add(layer)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.discard(layer)
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.total[layer] = self.total.get(layer, 0.0) + elapsed
                self.self_time[layer] = self.self_time.get(layer, 0.0) + elapsed - span[1]
                self.calls[layer] = self.calls.get(layer, 0) + 1

        traced.__wrapped__ = fn
        traced.bench_layer = layer
        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "twinlearn" or name.startswith("twinlearn.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, name, original))
                            setattr(module, name, wrapper)

    @contextlib.contextmanager
    def active(self):
        """The wrappers, installed for the duration of a with-block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Running totals: layer times, self times, call and work counts."""
        raw = {f"total:{k}": v for k, v in self.total.items()}
        raw.update({f"self:{k}": v for k, v in self.self_time.items()})
        raw.update({f"calls:{k}": v for k, v in self.calls.items()})
        raw.update({f"count:{k}": v for k, v in self.counts.items()})
        return raw


def difference(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values (all but trace.overhead_s) from snapshot totals."""
    def total(layer):
        return raw.get(f"total:{layer}", 0.0)

    def per_epoch(layer):
        epochs = raw.get(f"count:{layer}.epochs", 0)
        return total(layer) / epochs if epochs else 0.0

    return {
        "data.load_csv_s": total("data.load_csv"),
        "data.make_folds_s": total("data.make_folds"),
        "data.scaling_s": total("data.scaling"),
        "data.knn_impute_s": total("data.knn_impute"),
        "data.imputed_cells": raw.get("count:data.knn_impute.cells", 0),
        "harness.prepare_fold_s": total("harness.prepare_fold"),
        "harness.self_s": raw.get("self:harness.run", 0.0),
        "harness.fits": raw.get("count:harness.fits", 0),
        "cli.self_s": raw.get("self:cli.main", 0.0),
        "evalstats.metrics_s": total("evalstats.metrics"),
        "twin_nn.train_s": total("twin_nn.train"),
        "twin_nn.epoch_s": per_epoch("twin_nn.train"),
        "twin_nn.rfnn_train_s": total("twin_nn.rfnn_train"),
        "twin_nn.rfnn_epoch_s": per_epoch("twin_nn.rfnn_train"),
        "multiclass.mc_train_s": total("multiclass.mc_train"),
        "multiclass.mc_epoch_s": per_epoch("multiclass.mc_train"),
        "twsvm.solve_dual_s": total("twsvm.solve_dual"),
        "twsvm.dual_solve_s": total("twsvm.dual_solve"),
        "twsvm.dual_solve_calls": raw.get("calls:twsvm.dual_solve", 0),
        "twsvm.solve_spd_s": total("twsvm.solve_spd"),
        "twsvm.solve_spd_calls": raw.get("calls:twsvm.solve_spd", 0),
        "twsvm.kernel_matrix_s": total("twsvm.kernel_matrix"),
        "twsvm.kernel_matrix_calls": raw.get("calls:twsvm.kernel_matrix", 0),
        "twin_nn.predict_s": total("twin_nn.predict"),
        "twin_nn.rfnn_predict_s": total("twin_nn.rfnn_predict"),
        "multiclass.mc_predict_s": total("multiclass.mc_predict"),
        "twin_nn.predict_calls": raw.get("calls:twin_nn.predict", 0),
        "twin_nn.rows_scored": raw.get("count:twin_nn.predict.rows", 0),
        "twsvm.predict_s": total("twsvm.predict"),
        "serialize.load_model_s": total("serialize.load_model"),
        "serialize.save_model_s": total("serialize.save_model"),
    }


def leftover_wrappers() -> list[str]:
    """Names of twinlearn module attributes that still hold a wrapper."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "twinlearn" or name.startswith("twinlearn."):
            for attr, value in vars(module).items():
                if hasattr(value, "bench_layer"):
                    found.append(f"{name}.{attr}")
    return found
