"""Confusion-matrix metrics for skewed classes and two significance tests.

Degenerate-denominator conventions: G-means is 0 whenever TPR or TNR is
undefined or zero, and MCC is 0 whenever any confusion-matrix margin is
zero (both match how all-majority predictors are conventionally tabled);
every other metric reports an explicit None instead of a silent 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "MetricReport",
    "confusion",
    "metrics",
    "wilcoxon_signed_ranks",
    "friedman",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts with the derived margins as properties."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def positives(self) -> int:
        """PC: condition-positive count tp + fn."""
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        """NC: condition-negative count fp + tn."""
        return self.fp + self.tn

    @property
    def predicted_positives(self) -> int:
        """PR: predicted-positive count tp + fp."""
        return self.tp + self.fp

    @property
    def predicted_negatives(self) -> int:
        """NR: predicted-negative count fn + tn."""
        return self.fn + self.tn


@dataclass(frozen=True)
class MetricReport:
    """Metric values in [0, 1] (MCC in [-1, 1]); None marks undefined."""

    acc: float | None
    tpr: float | None
    tnr: float | None
    ppv: float | None
    npv: float | None
    gmeans: float | None
    fmeasure: float | None
    mcc: float | None

    def as_dict(self) -> dict:
        return asdict(self)


def confusion(true_labels, predicted_labels) -> ConfusionMatrix:
    """Count TP/TN/FP/FN for labels in {+1, -1}."""
    t = np.asarray(true_labels)
    p = np.asarray(predicted_labels)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(f"label arrays must be equal-length 1-D, got {t.shape} and {p.shape}")
    if t.size < 1:
        raise ValueError("label arrays must be non-empty")
    for name, arr in (("true", t), ("predicted", p)):
        bad = np.setdiff1d(arr, [-1, 1])
        if bad.size:
            raise ValueError(f"{name} labels outside {{+1,-1}}: {bad.tolist()}")
    tp = int(np.count_nonzero((t == 1) & (p == 1)))
    tn = int(np.count_nonzero((t == -1) & (p == -1)))
    fp = int(np.count_nonzero((t == -1) & (p == 1)))
    fn = int(np.count_nonzero((t == 1) & (p == -1)))
    return ConfusionMatrix(tp, tn, fp, fn)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def metrics(cm: ConfusionMatrix) -> MetricReport:
    """All report metrics from one confusion matrix.

    acc  = (TP+TN)/N            tpr = TP/PC      tnr = TN/NC
    ppv  = TP/PR                npv = TN/NR
    gmeans = sqrt(tpr*tnr)      fmeasure = 2/(1/tpr + 1/ppv)
    mcc  = (TP*TN - FP*FN)/sqrt(PC*NC*PR*NR)
    """
    if cm.total < 1:
        raise ValueError("confusion matrix is empty")
    acc = (cm.tp + cm.tn) / cm.total
    tpr = _ratio(cm.tp, cm.positives)
    tnr = _ratio(cm.tn, cm.negatives)
    ppv = _ratio(cm.tp, cm.predicted_positives)
    npv = _ratio(cm.tn, cm.predicted_negatives)

    if tpr is None or tnr is None:
        gmeans = 0.0
    else:
        gmeans = math.sqrt(tpr * tnr)

    if tpr is None or ppv is None or tpr + ppv == 0:
        fmeasure = None
    else:
        fmeasure = 2.0 * tpr * ppv / (tpr + ppv)

    denom = cm.positives * cm.negatives * cm.predicted_positives * cm.predicted_negatives
    if denom == 0:
        mcc = 0.0
    else:
        mcc = (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(denom)

    return MetricReport(acc, tpr, tnr, ppv, npv, gmeans, fmeasure, mcc)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``values`` with ties replaced by their average rank."""
    # return_index makes the sort stable, so NaNs, each its own group,
    # rank last in index order
    _, _, inverse, counts = np.unique(values, return_index=True, return_inverse=True,
                                      return_counts=True, equal_nan=False)
    # a tie group of c values ending at rank e averages e - (c - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def wilcoxon_signed_ranks(a, b, method: str = "auto") -> tuple[float, float]:
    """Two-sided Wilcoxon signed-ranks test of paired scores ``a`` vs ``b``.

    Zero differences are dropped; |differences| are ranked with average
    ranks for ties.  Returns (W, p) where W = min(positive-rank sum,
    negative-rank sum).  The two-sided p is 2*min(P(W+ <= w+), P(W+ >= w+))
    capped at 1, computed exactly over all 2^n sign assignments for
    n <= 20 and approximately above that: a normal approximation with
    continuity correction, tie-corrected variance sum(r_i^2)/4, and an
    Edgeworth kurtosis term that keeps the tails accurate at moderate n
    (the sign-flip distribution is symmetric, so the skewness term
    vanishes).  ``method`` forces "exact" or "normal" for cross-checking.
    """
    if method not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown method {method!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("score arrays must be equal-length 1-D")
    d = a - b
    d = d[d != 0]
    if d.size == 0:
        raise ValueError("all differences are zero; the test is undefined")
    n = d.size
    if n < 5:
        raise ValueError(f"insufficient pairs: {n} non-zero differences, need >= 5")

    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)

    if method == "exact" or (method == "auto" and n <= 20):
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        total = int(doubled.sum())
        counts = np.zeros(total + 1, dtype=np.int64)
        counts[0] = 1
        for r in doubled:
            shifted = np.zeros_like(counts)
            shifted[r:] = counts[: total + 1 - r]
            counts = counts + shifted
        w2 = int(round(2.0 * w_plus))
        n_assignments = float(2**n)
        p_le = counts[: w2 + 1].sum() / n_assignments
        p_ge = counts[w2:].sum() / n_assignments
        p = min(1.0, 2.0 * min(p_le, p_ge))
    else:
        mean = ranks.sum() / 2.0
        var = float((ranks * ranks).sum()) / 4.0
        sigma = math.sqrt(var)
        # excess kurtosis of W+ = sum r_i * Bernoulli(1/2): kappa4 = -sum(r^4)/8
        gamma2 = -float((ranks**4).sum()) / (8.0 * var * var)

        def tail_cdf(z: float) -> float:
            phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            value = 0.5 * math.erfc(-z / math.sqrt(2.0))
            value -= phi * (gamma2 / 24.0) * (z**3 - 3.0 * z)
            return min(max(value, 0.0), 1.0)

        p_le = tail_cdf((w_plus + 0.5 - mean) / sigma)
        p_ge = 1.0 - tail_cdf((w_plus - 0.5 - mean) / sigma)
        p = min(1.0, 2.0 * min(p_le, p_ge))
    return w, p


def friedman(scores) -> tuple[float, float]:
    """Friedman rank test across algorithms scored on common datasets.

    ``scores`` is (n_datasets, n_algorithms); each row is ranked with ties
    averaged (ranking direction does not affect the statistic).  Returns
    the chi-square statistic 12N/(k(k+1)) * [sum(Rbar_j^2) - k(k+1)^2/4]
    and its upper-tail p with k-1 degrees of freedom.

    ``scipy.special`` is imported here, not at module level: only
    ``compare`` (through ``harness.compare_algorithms``) calls this, and
    every other command runs without loading scipy.
    """
    from scipy.special import gammaincc

    m = np.asarray(scores, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("scores must be a 2-D (datasets x algorithms) array")
    n, k = m.shape
    if n < 2 or k < 2:
        raise ValueError(f"need >= 2 datasets and >= 2 algorithms, got {n}x{k}")
    if not np.all(np.isfinite(m)):
        raise ValueError("scores contain non-finite values")

    ranks = np.vstack([_average_ranks(row) for row in m])
    mean_ranks = ranks.mean(axis=0)
    chi2 = 12.0 * n / (k * (k + 1)) * (float(np.sum(mean_ranks**2)) - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)
    p = float(gammaincc((k - 1) / 2.0, chi2 / 2.0))
    return chi2, p
