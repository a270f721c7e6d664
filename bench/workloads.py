"""One benchmark process: set up one workload, time whole rounds, check.

Run by run.py, once per process; not meant to be called by hand:

    python3 bench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --checks 0|1 --work DIR --out FILE

Writes one JSON object to --out: setup time, per-round wall times, peak
RSS, operations attempted and failed, digests of every round's outputs
and the problems the correctness checks found.  With --trace 1 it also
times a traced setup and traced rounds and reports per-layer totals.
"""

import time

START = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from twinlearn import cli, data, harness, multiclass, serialize, twin_nn, twsvm  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402

CV_FOLDS = 5
KNN_K = 5
STREAM_ROWS = 400_000
BATCH_ROWS = 64


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _operations(result: dict) -> tuple[int, int]:
    """(attempted, failed) harness fits in one CV result, counting inner
    grid-selection fits; a one-vs-rest ensemble fit counts as one."""
    points = 1
    for values in result["spec"]["grid"].values():
        points *= len(values)
    inner = points if points > 1 else 0
    skipped = sum(1 for f in result["failures"] if f["grid_index"] is None)
    attempted = len(result["folds"]) * (inner + 1) - skipped
    failed = sum(1 for f in result["failures"] if f["grid_index"] is not None)
    return attempted, failed


def _write_csv(work: str, name: str, features, labels, missing=None) -> str:
    path = os.path.join(work, f"{name}.csv")
    data.save_csv(data.Dataset(features, labels, missing), path)
    return path


def _blobs(rng, sizes, centres, labels):
    x = np.vstack([rng.normal(0.0, 1.0, (n, len(c))) + np.asarray(c, dtype=float)
                   for n, c in zip(sizes, centres)])
    y = np.concatenate([np.full(n, lab) for n, lab in zip(sizes, labels)])
    return x, y


class CvWorkload:
    """Rounds of `twinlearn cv` runs through cli.main on CSV files.

    Subclasses set ``runs``, a list of (output name, input key, cv flags),
    and define ``inputs`` (input key -> arrays for a CSV) and ``check``.
    """

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def setup(self):
        self.paths = {key: _write_csv(self.work, key, *arrays)
                      for key, arrays in self.inputs().items()}

    def round(self) -> dict:
        wall, outputs = 0.0, {}
        for name, key, flags in self.runs:
            out = os.path.join(self.work, f"{name}.json")
            argv = ["cv", "--data", self.paths[key], "--out", out] + flags
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                wall += time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"twinlearn {' '.join(argv)} exited with {code}")
            with open(out, "rb") as fh:
                outputs[name] = fh.read()
        attempted = failed = 0
        for blob in outputs.values():
            a, f = _operations(json.loads(blob))
            attempted += a
            failed += f
        return {"wall": wall, "attempted": attempted, "failed": failed, "outputs": outputs}


class NnImbalanced(CvWorkload):
    """Twin network against the rfnn baseline on 1:20 two-blob data."""

    sizes = {1: 100, -1: 2000}
    nets = ["--grid", "hidden=4,8", "--grid", "lr=0.1", "--grid", "epochs=300"]

    def __init__(self, seed, work):
        super().__init__(seed, work)
        cv = ["--folds", str(CV_FOLDS), "--seed", str(seed)]
        self.runs = [
            # tol=0 makes every fit run its whole epoch budget
            ("twin_nn", "blobs", ["--model", "twin_nn", "--grid", "tol=0"] + self.nets + cv),
            ("rfnn", "blobs", ["--model", "rfnn"] + self.nets + cv),
        ]

    def inputs(self):
        rng = np.random.default_rng([self.seed, 1])
        centre = np.zeros(8)
        centre[0] = 1.5
        return {"blobs": _blobs(rng, list(self.sizes.values()), [centre, -centre],
                                list(self.sizes))}

    def check(self, outputs):
        twin, rfnn = json.loads(outputs["twin_nn"]), json.loads(outputs["rfnn"])
        problems = []
        for result in (twin, rfnn):
            problems += checks.fold_counts(result, self.sizes) + checks.fold_metrics(result)
        return problems + checks.twin_beats_rfnn(twin, rfnn)


class TwsvmDual(CvWorkload):
    """Linear twin SVM CV over a c1 grid, plus RBF fits that fail today.

    Both inputs are one fixed draw.  The seed only permutes and flips the
    signs of the linear input's feature axes, which the twin SVM and the
    per-fold scaling are invariant to: the dual solver's iteration count
    swings fourfold between fresh draws of the same blobs, so a fresh
    draw per seed would measure the draw, not the program.
    """

    linear_sizes = {1: 40, -1: 400}
    rbf_sizes = {1: 20, -1: 60}
    rbf_folds = 2
    cv_seed = 0

    def __init__(self, seed, work):
        super().__init__(seed, work)
        cv = ["--seed", str(self.cv_seed)]
        self.runs = [
            ("twsvm_linear", "linear", ["--model", "twsvm_linear", "--grid", "c1=0.02,0.05,0.1",
                                        "--folds", str(CV_FOLDS)] + cv),
            ("twsvm_rbf", "rbf", ["--model", "twsvm_rbf", "--grid", "gamma=1",
                                  "--folds", str(self.rbf_folds)] + cv),
        ]

    def inputs(self):
        centre = np.array([1.0, 0.0, 0.0, 0.0])
        x, y = _blobs(np.random.default_rng(0), list(self.linear_sizes.values()),
                      [centre, -centre], list(self.linear_sizes))
        axes = np.random.default_rng([self.seed, 2])
        x = x[:, axes.permutation(4)] * axes.choice([-1.0, 1.0], 4)
        rbf = _blobs(np.random.default_rng(0), list(self.rbf_sizes.values()),
                     [(1.0, 0.0), (-1.0, 0.0)], list(self.rbf_sizes))
        self.linear = (x, y)
        return {"linear": (x, y), "rbf": rbf}

    def check(self, outputs):
        linear = json.loads(outputs["twsvm_linear"])
        problems = checks.fold_counts(linear, self.linear_sizes) + checks.fold_metrics(linear)
        # the duals of the fold-0 fit, re-solved on that training fold
        x, y = self.linear
        plan = data.make_folds(data.Dataset(x, y), CV_FOLDS, 1, self.cv_seed)
        train, _ = plan.fold_indices(0, 0)
        scaled = checks.min_max_scale(x[train], x[train])
        a, b = scaled[y[train] == 1], scaled[y[train] == -1]
        c1 = float(linear["folds"][0]["chosen"]["c1"])
        model = twsvm.solve_dual(twsvm.TwsvmProblem(a, b, c1, 1.0))
        problems += checks.twsvm_kkt(a, b, c1, 1.0, model.alpha, model.beta)
        # the RBF fits fail today; any that fail must fail at the iteration cap
        rbf = json.loads(outputs["twsvm_rbf"])
        problems += checks.fold_counts(rbf, self.rbf_sizes) + checks.fold_metrics(rbf)
        return problems + checks.convergence_failures(rbf)


class MulticlassMissing(CvWorkload):
    """Multiclass twin network and one-vs-rest twin networks on 3-class
    data with 15% of the feature cells missing (KNN-imputed per fold)."""

    sizes = {0: 300, 1: 300, 2: 300}
    dim = 6
    missing_share = 0.15

    def __init__(self, seed, work):
        super().__init__(seed, work)
        cv = ["--folds", str(CV_FOLDS), "--seed", str(seed), "--knn-k", str(KNN_K)]
        self.runs = [
            ("twin_nn_mc", "classes", ["--model", "twin_nn_mc", "--grid", "subnet_features=6",
                                       "--grid", "planes=2", "--grid", "lr=0.1",
                                       "--grid", "epochs=300"] + cv),
            ("twin_nn_ovr", "classes", ["--model", "twin_nn", "--one-vs-rest",
                                        "--grid", "hidden=6", "--grid", "lr=0.1",
                                        "--grid", "epochs=300", "--grid", "tol=0"] + cv),
        ]

    def inputs(self):
        rng = np.random.default_rng([self.seed, 3])
        centres = []
        for c in self.sizes:
            centre = np.zeros(self.dim)
            centre[:2] = 2.0 * np.cos(2 * np.pi * c / 3), 2.0 * np.sin(2 * np.pi * c / 3)
            centres.append(centre)
        x, y = _blobs(rng, list(self.sizes.values()), centres, list(self.sizes))
        n_missing = round(self.missing_share * x.size)
        missing = np.zeros(x.size, dtype=bool)
        missing[rng.choice(x.size, n_missing, replace=False)] = True
        missing = missing.reshape(x.shape)
        x[missing] = np.nan
        self.table = (x, y, missing)
        return {"classes": (x, y, missing)}

    def check(self, outputs):
        x, y, missing = self.table
        ds = data.Dataset(x, y, missing)
        assignment = data.make_folds(ds, CV_FOLDS, 1, self.seed).assignments[0]
        centroid = checks.nearest_centroid_accuracy(x, y, assignment)
        problems = []
        for name in ("twin_nn_mc", "twin_nn_ovr"):
            result = json.loads(outputs[name])
            problems += checks.fold_counts(result, self.sizes) + checks.fold_metrics(result)
            problems += checks.beats_centroid(name, result, centroid)
        # every cell the harness imputes on fold 0: the training fold from
        # itself, the test fold from the completed training fold
        train, test = np.flatnonzero(assignment != 0), np.flatnonzero(assignment == 0)
        done_train, done_test, _ = harness.prepare_fold(ds, train, test, KNN_K)
        scaled_train = checks.min_max_scale(x[train], x[train])
        scaled_test = checks.min_max_scale(x[train], x[test])
        ref_train = checks.knn_fill(scaled_train, scaled_train, KNN_K, self_donor=True)
        ref_test = checks.knn_fill(scaled_test, ref_train, KNN_K, self_donor=False)
        for done, scaled, ref in ((done_train, scaled_train, ref_train),
                                  (done_test, scaled_test, ref_test)):
            problems += checks.imputed_cells(done.features, ref, np.argwhere(np.isnan(scaled)))
        return problems


class ScoreStream:
    """Saved twin_nn, rfnn and twin_nn_mc models scoring one stream, in
    64-row calls and in whole-stream calls."""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        rng = np.random.default_rng([seed, 5])
        centre = np.zeros(8)
        centre[0] = 1.5
        self.binary = data.Dataset(*_blobs(rng, [100, 2000], [centre, -centre], [1, -1]))
        centres = [np.eye(8)[c] * 2.5 for c in range(3)]
        self.classes = data.Dataset(*_blobs(rng, [150, 150, 150], centres, [0, 1, 2]))
        self.stream = rng.normal(0.0, 1.5, (STREAM_ROWS, 8))

    def setup(self):
        trained = {
            "twin_nn": twin_nn.train(self.binary, twin_nn.TwinHyper(
                hidden=8, lr=0.1, epochs=300, tol=0.0, seed=self.seed)),
            "rfnn": twin_nn.train_rfnn_baseline(self.binary, hidden=8, lr=0.1, epochs=300,
                                                seed=self.seed),
            "twin_nn_mc": multiclass.mc_train(self.classes, multiclass.MCHyper(
                subnet_features=6, planes=2, lr=0.1, epochs=300, seed=self.seed)),
        }
        self.trained = trained
        self.paths = {}
        for name, model in trained.items():
            self.paths[name] = os.path.join(self.work, f"{name}.model.json")
            serialize.save_model(model, self.paths[name])
        self.models = {name: serialize.load_model(path) for name, path in self.paths.items()}

    @staticmethod
    def _predict(name: str):
        # looked up at call time, so that traced runs see the wrappers
        module, attr = {"twin_nn": (twin_nn, "predict"), "rfnn": (twin_nn, "rfnn_predict"),
                        "twin_nn_mc": (multiclass, "mc_predict")}[name]
        return getattr(module, attr)

    def round(self) -> dict:
        labels, wall, calls = {}, 0.0, 0
        for name, model in self.models.items():
            predict = self._predict(name)
            start = time.perf_counter()
            batched = np.concatenate([predict(model, self.stream[i:i + BATCH_ROWS])
                                      for i in range(0, STREAM_ROWS, BATCH_ROWS)])
            whole = predict(model, self.stream)
            wall += time.perf_counter() - start
            calls += -(-STREAM_ROWS // BATCH_ROWS) + 1
            labels[f"{name}.batched"] = batched
            labels[f"{name}.whole"] = whole
        self.labels = labels
        outputs = {k: np.ascontiguousarray(v, dtype=np.int64).tobytes() for k, v in labels.items()}
        return {"wall": wall, "attempted": calls, "failed": 0, "outputs": outputs}

    def check(self, outputs):
        problems = []
        reference = {"twin_nn": checks.twin_labels, "rfnn": checks.rfnn_labels,
                     "twin_nn_mc": checks.multiclass_labels}
        for name, model in self.trained.items():
            whole = self.labels[f"{name}.whole"]
            problems += checks.same_labels(f"{name} batched vs whole",
                                           self.labels[f"{name}.batched"], whole)
            problems += checks.same_labels(f"{name} in-memory vs reloaded",
                                           self._predict(name)(model, self.stream), whole)
            with open(self.paths[name], encoding="utf-8") as fh:
                params = json.load(fh)
            problems += checks.same_labels(f"{name} numpy reference vs reloaded",
                                           reference[name](params, self.stream), whole)
        return problems


WORKLOADS = {
    "nn_imbalanced": NnImbalanced,
    "twsvm_dual": TwsvmDual,
    "multiclass_missing": MulticlassMissing,
    "score_stream": ScoreStream,
}


def _round(workload, tracer=None) -> dict:
    """One round, with digests of its outputs and, traced, its layer totals."""
    before = tracer.snapshot() if tracer else None
    result = workload.round()
    if tracer:
        result["layers"] = layers.layer_metrics(layers.difference(tracer.snapshot(), before))
    result["digests"] = {name: _digest(blob) for name, blob in result["outputs"].items()}
    return result


def _keep(done: list, result: dict) -> None:
    """Append a round; only the last round keeps its outputs, so memory
    does not grow with the round count."""
    if done:
        done[-1].pop("outputs", None)
    done.append(result)


def _rounds(workload, seconds: float) -> list[dict]:
    """Whole rounds until ``seconds`` have passed; none if ``seconds`` <= 0."""
    done, start = [], time.perf_counter()
    while seconds > 0 and (not done or time.perf_counter() - start < seconds):
        _keep(done, _round(workload))
    return done


def _traced(workload, seconds: float) -> tuple[dict, list[dict]]:
    """Set up again under the wrappers, then alternate untraced and traced
    rounds for ``seconds``, so that drift in machine speed falls on both."""
    tracer = layers.Tracer()
    with tracer.active():
        before = tracer.snapshot()
        workload.setup()
        setup_layers = layers.layer_metrics(layers.difference(tracer.snapshot(), before))
    done, untraced, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        result = _round(workload)
        untraced.append(result["wall"])
        _keep(done, result)
        with tracer.active():
            result = _round(workload, tracer)
        traced.append(result)
        _keep(done, result)
    report = {
        "leftover_wrappers": layers.leftover_wrappers(),
        "overhead_s": (statistics.median(r["wall"] for r in traced)
                       - statistics.median(untraced)),
        # set-up and rounds never call the same layer, so their totals add
        "layers": {name: setup_layers[name]
                   + statistics.median_low(r["layers"][name] for r in traced)
                   for name in setup_layers},
    }
    return report, done


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checks", type=int, choices=(0, 1), default=1)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work)
    workload.setup()
    setup_s = time.perf_counter() - START
    if isinstance(workload, ScoreStream) and args.seconds > 0:
        workload.round()  # warm-up: a long-lived scorer pays first-touch costs once

    if args.trace:
        report, rounds = _traced(workload, args.seconds)
    else:
        report, rounds = {}, _rounds(workload, args.seconds)
    report["setup_s"] = setup_s
    # before the checks, which hold arrays of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    outputs = rounds[-1]["outputs"] if rounds else {}
    for name in outputs:
        problems += checks.identical([r["digests"][name] for r in rounds], name)
    if args.checks:
        problems += workload.check(outputs)
    report.update({
        "rounds": [r["wall"] for r in rounds],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "digests": rounds[-1]["digests"] if rounds else {},
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
