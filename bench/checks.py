"""Correctness checks on the program's outputs, computed apart from it.

Every check returns a list of problems; an empty list means it passed.
The reference computations here use plain numpy and the definitions of
the method, never the twinlearn function under test.
"""

from __future__ import annotations

import math

import numpy as np

METRIC_TOL = 1e-12
KKT_TOL = 1e-6
IMPUTE_TOL = 1e-9
# accuracy a multiclass model may trail a nearest-centroid classifier by
CENTROID_MARGIN = 0.05
TWIN_MIN_GMEANS = 0.85


def _class_test_counts(fold: dict, class_ids: list[int]) -> dict[int, int]:
    cm = fold["confusion"]
    if isinstance(cm, dict):
        return {1: cm["tp"] + cm["fn"], -1: cm["tn"] + cm["fp"]}
    return {c: int(sum(row)) for c, row in zip(class_ids, cm)}


def fold_counts(result: dict, class_sizes: dict[int, int]) -> list[str]:
    """Each fold holds floor or ceil of n_c/k rows of every class c, and
    each repeat tests every row exactly once."""
    problems = []
    k = result["spec"]["folds"]
    class_ids = sorted(class_sizes)
    per_repeat: dict[int, dict[int, int]] = {}
    for fold in result["folds"]:
        if fold["failed"]:
            continue
        counts = _class_test_counts(fold, class_ids)
        where = f"repeat {fold['repeat']} fold {fold['fold']}"
        total = sum(counts.values())
        low = sum(n // k for n in class_sizes.values())
        high = sum(-(-n // k) for n in class_sizes.values())
        if not low <= total <= high:
            problems.append(f"{where}: confusion counts sum to {total}, "
                            f"test fold size must lie in [{low}, {high}]")
        for c, n in class_sizes.items():
            if counts.get(c, 0) not in (n // k, -(-n // k)):
                problems.append(f"{where}: class {c} has {counts.get(c, 0)} test rows, "
                                f"expected {n // k} or {-(-n // k)}")
        sums = per_repeat.setdefault(fold["repeat"], {})
        for c, v in counts.items():
            sums[c] = sums.get(c, 0) + v
    failed = {f["repeat"] for f in result["folds"] if f["failed"]}
    for repeat, sums in per_repeat.items():
        if repeat not in failed and sums != class_sizes:
            problems.append(f"repeat {repeat}: per-class test totals {sums} "
                            f"differ from class sizes {class_sizes}")
    return problems


def binary_metrics(tp: int, tn: int, fp: int, fn: int) -> dict:
    """acc, tpr, tnr, gmeans and mcc by their definitions."""
    pos, neg, ppos, pneg = tp + fn, tn + fp, tp + fp, tn + fn
    tpr = tp / pos if pos else None
    tnr = tn / neg if neg else None
    denom = pos * neg * ppos * pneg
    return {
        "acc": (tp + tn) / (pos + neg),
        "tpr": tpr,
        "tnr": tnr,
        "gmeans": 0.0 if tpr is None or tnr is None else math.sqrt(tpr * tnr),
        "mcc": 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom),
    }


def fold_metrics(result: dict) -> list[str]:
    """Reported per-fold metrics equal those recomputed from the counts."""
    problems = []
    for fold in result["folds"]:
        if fold["failed"]:
            continue
        cm = fold["confusion"]
        if isinstance(cm, dict):
            expected = binary_metrics(cm["tp"], cm["tn"], cm["fp"], cm["fn"])
        else:
            m = np.asarray(cm)
            expected = {"acc": float(np.trace(m)) / float(m.sum())}
        for name, want in expected.items():
            got = fold["metrics"].get(name)
            same = (got is None and want is None) or (
                got is not None and want is not None and abs(got - want) <= METRIC_TOL)
            if not same:
                problems.append(f"repeat {fold['repeat']} fold {fold['fold']}: "
                                f"{name} reported {got}, recomputed {want}")
    return problems


def _mean(result: dict, name: str) -> float:
    agg = result["aggregates"][name]
    return agg["mean"] if agg["n"] > 0 else 0.0


def twin_beats_rfnn(twin: dict, rfnn: dict) -> list[str]:
    """The paper's claim on skewed data: twin G-means >= 0.85 and the twin
    network beats the feed-forward baseline on G-means, F-measure and MCC."""
    problems = []
    if _mean(twin, "gmeans") < TWIN_MIN_GMEANS:
        problems.append(f"twin G-means {_mean(twin, 'gmeans'):.4f} < {TWIN_MIN_GMEANS}")
    for name in ("gmeans", "fmeasure", "mcc"):
        if not _mean(twin, name) > _mean(rfnn, name):
            problems.append(f"twin {name} {_mean(twin, name):.4f} does not beat "
                            f"rfnn {_mean(rfnn, name):.4f}")
    return problems


def identical(outputs: list, what: str) -> list[str]:
    """Every repeat wrote the same output (compared as bytes or digests)."""
    distinct = len(set(outputs))
    return [] if distinct <= 1 else [f"{what}: {distinct} different outputs over {len(outputs)} repeats"]


def dual_matrix(own: np.ndarray, other: np.ndarray) -> np.ndarray:
    """other_e (own_e' own_e + r I)^-1 other_e' with r = 1e-6 trace/dim,
    the quadratic term of the linear twin SVM dual."""
    h = np.hstack([own, np.ones((own.shape[0], 1))])
    g = np.hstack([other, np.ones((other.shape[0], 1))])
    hth = h.T @ h
    ridge = 1e-6 * np.trace(hth) / hth.shape[0]
    return g @ np.linalg.solve(hth + ridge * np.eye(hth.shape[0]), g.T)


def box_kkt_violation(m: np.ndarray, x: np.ndarray, c: float) -> float:
    """Largest violation of the KKT conditions of max e'x - x'Mx/2, 0 <= x <= c."""
    g = 1.0 - m @ x
    at_lower = x <= 0.0
    at_upper = x >= c
    v = np.abs(g)
    v[at_lower] = np.maximum(g[at_lower], 0.0)
    v[at_upper] = np.maximum(-g[at_upper], 0.0)
    v[at_lower & at_upper] = 0.0
    outside = np.maximum(np.maximum(-x, x - c), 0.0)
    return float(max(v.max(initial=0.0), outside.max(initial=0.0)))


def twsvm_kkt(a: np.ndarray, b: np.ndarray, c1: float, c2: float,
              alpha: np.ndarray, beta: np.ndarray) -> list[str]:
    """Both duals of a linear twin SVM fit satisfy the box KKT conditions."""
    problems = []
    for name, m, x, c in (("alpha", dual_matrix(a, b), alpha, c1),
                          ("beta", dual_matrix(b, a), beta, c2)):
        violation = box_kkt_violation(m, np.asarray(x, dtype=float), c)
        if not violation <= KKT_TOL:
            problems.append(f"{name} dual violates KKT by {violation:.3e} > {KKT_TOL}")
    return problems


def convergence_failures(result: dict) -> list[str]:
    """Every failed fold has a recorded failure, and every recorded failure
    is a training fit stopped at the iteration cap.  Folds that did not
    fail are left to fold_counts and fold_metrics."""
    problems = [f"failure without a convergence cause: {f}" for f in result["failures"]
                if f.get("stage") != "train" or "iteration cap" not in f.get("error", "")]
    recorded = {(f["repeat"], f["fold"]) for f in result["failures"]}
    problems += [f"repeat {fold['repeat']} fold {fold['fold']} failed without a recorded cause"
                 for fold in result["folds"]
                 if fold["failed"] and (fold["repeat"], fold["fold"]) not in recorded]
    return problems


def min_max_scale(train: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Map ``rows`` to [-1, 1] on the observed range of ``train``; NaN stays."""
    lo = np.nanmin(train, axis=0)
    hi = np.nanmax(train, axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    out = 2.0 * (rows - lo) / span - 1.0
    out[:, hi == lo] = 0.0
    return out


def nearest_centroid_accuracy(features: np.ndarray, labels: np.ndarray,
                              assignment: np.ndarray) -> float:
    """Mean test accuracy over the folds of ``assignment`` of a
    nearest-centroid classifier, missing cells filled by training means."""
    accs = []
    for fold in np.unique(assignment):
        train, test = assignment != fold, assignment == fold
        xtr = min_max_scale(features[train], features[train])
        xte = min_max_scale(features[train], features[test])
        means = np.nanmean(xtr, axis=0)
        xtr = np.where(np.isnan(xtr), means, xtr)
        xte = np.where(np.isnan(xte), means, xte)
        classes = np.unique(labels[train])
        centroids = np.stack([xtr[labels[train] == c].mean(axis=0) for c in classes])
        d = ((xte[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        accs.append(float(np.mean(classes[d.argmin(axis=1)] == labels[test])))
    return float(np.mean(accs))


def beats_centroid(name: str, result: dict, centroid_acc: float) -> list[str]:
    acc = _mean(result, "acc")
    if acc < centroid_acc - CENTROID_MARGIN:
        return [f"{name} accuracy {acc:.4f} is below nearest-centroid "
                f"{centroid_acc:.4f} less {CENTROID_MARGIN}"]
    return []


def knn_mean(row: np.ndarray, donors: np.ndarray, j: int, k: int,
             skip: int | None = None) -> float:
    """Mean of feature j over the k nearest donors observing j, by RMS
    difference over the features both rows observe (ties: lower index)."""
    both = ~np.isnan(donors) & ~np.isnan(row)
    shared = both.sum(axis=1)
    diff = np.where(both, donors - row, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = np.sqrt((diff * diff).sum(axis=1) / shared)
    usable = ~np.isnan(donors[:, j]) & (shared > 0)
    if skip is not None:
        usable[skip] = False
    idx = np.flatnonzero(usable)
    order = idx[np.lexsort((idx, dist[idx]))]
    return float(donors[order[:k], j].mean())


def knn_fill(rows: np.ndarray, donors: np.ndarray, k: int, self_donor: bool) -> np.ndarray:
    """``rows`` with every NaN cell set to its brute-force k-NN mean; with
    ``self_donor`` the rows are their own donors, never donating to
    themselves."""
    filled = rows.copy()
    for i, j in np.argwhere(np.isnan(rows)):
        filled[i, j] = knn_mean(rows[i], donors, j, k, skip=i if self_donor else None)
    return filled


def imputed_cells(filled: np.ndarray, reference: np.ndarray, cells: np.ndarray) -> list[str]:
    """The program's imputed ``cells`` equal the brute-force reference."""
    problems = []
    for i, j in cells:
        got, want = filled[i, j], reference[i, j]
        if not abs(got - want) <= IMPUTE_TOL * (1.0 + abs(want)):
            problems.append(f"imputed cell ({i}, {j}) is {got}, brute force gives {want}")
    return problems


def twin_labels(params: dict, x: np.ndarray) -> np.ndarray:
    """Binary twin network: class of the nearer output plane."""
    d = []
    for side in ("plus", "minus"):
        p = params[side]
        w = np.asarray(p["w"])
        z = np.tanh(x @ np.asarray(p["hidden_w"]).T + np.asarray(p["hidden_b"])) @ w + p["b"]
        d.append(np.abs(z) / float(np.linalg.norm(w)))
    return np.where(d[0] <= d[1], 1, -1)


def rfnn_labels(params: dict, x: np.ndarray) -> np.ndarray:
    z = np.tanh(x @ np.asarray(params["hidden_w"]).T + np.asarray(params["hidden_b"])) \
        @ np.asarray(params["w"]) + params["b"]
    return np.where(z >= 0, 1, -1)


def multiclass_labels(params: dict, x: np.ndarray) -> np.ndarray:
    """Multiclass twin network: class of the nearest plane group."""
    dist, ids = [], []
    for bank in params["banks"]:
        pw = np.asarray([p["w"] for p in bank["planes"]])
        pb = np.asarray([p["b"] for p in bank["planes"]])
        z = np.tanh(x @ np.asarray(bank["subnet_w"]).T + np.asarray(bank["subnet_b"])) @ pw.T + pb
        dist.append((np.abs(z) / np.linalg.norm(pw, axis=1)).min(axis=1))
        ids.append(bank["class_id"])
    return np.asarray(ids)[np.column_stack(dist).argmin(axis=1)]


def same_labels(what: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: {got.shape} labels against {want.shape}"]
    bad = int(np.count_nonzero(got != want))
    return [f"{what}: {bad} of {want.size} labels differ"] if bad else []
