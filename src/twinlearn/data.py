"""Dataset ingestion, scaling, KNN imputation, fold plans, imbalance generation.

CSV files follow an RFC-4180 subset: UTF-8, '.' decimal separator, one
label column, empty field = missing value.  LibSVM files are lines of
``label idx:val ...`` with 1-based ascending indices; absent indices are
0.0, not missing.  Missing feature cells are stored as NaN and tracked by
an explicit boolean mask; the two representations are kept consistent.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .numcore import Rng, ShapeError, mix_seed

__all__ = [
    "DataError",
    "Dataset",
    "ScalingParams",
    "FoldPlan",
    "load_csv",
    "save_csv",
    "load_libsvm",
    "fit_scaling",
    "apply_scaling",
    "knn_impute",
    "knn_impute_from",
    "make_folds",
    "make_imbalanced",
]


class DataError(ValueError):
    """A dataset file or dataset operation violated its contract."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Dense feature matrix with integer labels and an optional missing mask.

    ``features`` is N x M float64 with NaN exactly where ``missing`` is
    True; ``labels`` is length N of integers.  Instances are immutable:
    the underlying arrays are marked read-only at construction.
    """

    features: np.ndarray
    labels: np.ndarray
    missing: np.ndarray | None = None
    label_names: dict[int, str] | None = None

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ShapeError(f"features must be 2-D, got ndim={feats.ndim}")
        n, m = feats.shape
        if n < 1 or m < 1:
            raise DataError(f"dataset must have N>=1 samples and M>=1 features, got {n}x{m}")
        if labels.shape != (n,):
            raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
        mask = self.missing
        if mask is not None:
            mask = np.array(mask, dtype=bool)
            if mask.shape != feats.shape:
                raise ShapeError(
                    f"missing mask shape {mask.shape} does not match features {feats.shape}"
                )
            if not mask.any():
                mask = None
        nan_cells = np.isnan(feats)
        if mask is None:
            if nan_cells.any():
                raise DataError("features contain NaN cells but no missing mask")
            if not np.all(np.isfinite(feats)):
                raise DataError("features contain non-finite values")
        else:
            if (nan_cells != mask).any():
                raise DataError("missing mask and NaN cells disagree")
            if not np.all(np.isfinite(feats[~mask])):
                raise DataError("observed features contain non-finite values")
        for arr in (feats, labels) + (() if mask is None else (mask,)):
            arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "missing", mask)
        if self.label_names is not None:
            missing_ids = set(self.class_ids.tolist()) - set(self.label_names)
            if missing_ids:
                raise DataError(f"label_names lacks entries for classes {sorted(missing_ids)}")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def class_ids(self) -> np.ndarray:
        """Sorted distinct labels."""
        return np.unique(self.labels)

    def class_counts(self) -> dict[int, int]:
        ids, counts = np.unique(self.labels, return_counts=True)
        return {int(c): int(n) for c, n in zip(ids, counts)}

    def rows(self, index) -> "Dataset":
        """Row-subset view as a new Dataset (order of ``index`` preserved)."""
        idx = np.asarray(index)
        return Dataset(
            self.features[idx].copy(),
            self.labels[idx].copy(),
            None if self.missing is None else self.missing[idx].copy(),
            self.label_names,
        )

    def display_label(self, label: int) -> str:
        if self.label_names is not None and int(label) in self.label_names:
            return self.label_names[int(label)]
        return str(int(label))


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature minima and maxima fitted on a training set."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.minimum, dtype=np.float64)
        hi = np.asarray(self.maximum, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ShapeError("scaling minima/maxima must be 1-D of equal length")
        if (lo > hi).any():
            raise DataError("scaling minimum exceeds maximum for some feature")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "minimum", lo)
        object.__setattr__(self, "maximum", hi)


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Stratified fold assignments for repeated k-fold cross validation.

    ``assignments[r][i]`` is the fold index of sample i in repeat r.
    """

    k: int
    repeat: int
    seed: int
    assignments: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.assignments, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != self.repeat:
            raise ShapeError("assignments must be (repeat, n_samples)")
        arr.setflags(write=False)
        object.__setattr__(self, "assignments", arr)

    def fold_indices(self, repeat: int, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train_indices, test_indices) for one repeat/fold pair."""
        row = self.assignments[repeat]
        test = np.flatnonzero(row == fold)
        train = np.flatnonzero(row != fold)
        return train, test

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "repeat": self.repeat,
            "seed": self.seed,
            "assignments": self.assignments.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "FoldPlan":
        return cls(d["k"], d["repeat"], d["seed"], np.asarray(d["assignments"]))


def _is_int64(value: float) -> bool:
    """True when a parsed label is an integer that fits in int64."""
    return value.is_integer() and -2.0**63 <= value < 2.0**63


def _parse_label_tokens(tokens: list[str]) -> tuple[np.ndarray, dict[int, str]]:
    """Map raw label tokens to integers with a recorded mapping.

    Integral tokens in the int64 range keep their values (so a +-1 file
    stays +-1); anything else, nan and inf included, is mapped to dense
    integers 0..K-1 with distinct tokens ordered numerically when
    possible, lexicographically otherwise.
    """
    try:
        values = [float(t) for t in tokens]
        if all(_is_int64(v) for v in values):
            labels = np.array([int(v) for v in values], dtype=np.int64)
            names = {int(v): t for v, t in zip(values, tokens)}
            return labels, names
    except ValueError:
        pass
    distinct = sorted(set(tokens))
    try:
        distinct.sort(key=float)
    except ValueError:
        pass
    index = {tok: i for i, tok in enumerate(distinct)}
    labels = np.array([index[t] for t in tokens], dtype=np.int64)
    return labels, {i: tok for tok, i in index.items()}


def load_csv(path, label_column="label", has_header: bool = True) -> Dataset:
    """Load a CSV file into a Dataset.

    ``label_column`` is a header name (when ``has_header``) or a column
    index (negative indices count from the end).  Empty feature cells
    become missing values; empty or non-numeric labels are errors.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"{path}: file is empty")

    if has_header:
        header = [h.strip() for h in rows[0]]
        body = rows[1:]
        if isinstance(label_column, str):
            if label_column not in header:
                raise DataError(f"{path}: unknown label column {label_column!r}")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
    else:
        header = None
        body = rows
        if isinstance(label_column, str):
            raise DataError("label_column must be an index when the file has no header")
        label_idx = int(label_column)

    if not body:
        raise DataError(f"{path}: no data rows")
    width = len(body[0])
    if not -width <= label_idx < width:
        raise DataError(f"{path}: label column index {label_idx} out of range for width {width}")
    label_idx %= width

    label_tokens: list[str] = []
    values = np.empty((len(body), width - 1))
    mask = np.zeros((len(body), width - 1), dtype=bool)
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataError(f"{path}: malformed row {i + 1}: expected {width} fields, got {len(row)}")
        tok = row[label_idx].strip()
        if not tok:
            raise DataError(f"{path}: row {i + 1} has an empty label")
        label_tokens.append(tok)
        j = 0
        for col, cell in enumerate(row):
            if col == label_idx:
                continue
            cell = cell.strip()
            if not cell:
                mask[i, j] = True
                values[i, j] = np.nan
            else:
                try:
                    x = float(cell)
                except ValueError:
                    raise DataError(f"{path}: non-numeric cell {cell!r} at row {i + 1}") from None
                if not np.isfinite(x):
                    raise DataError(f"{path}: non-finite cell {cell!r} at row {i + 1}")
                values[i, j] = x
            j += 1

    labels, names = _parse_label_tokens(label_tokens)
    return Dataset(values, labels, mask if mask.any() else None, names)


def save_csv(dataset: Dataset, path, label_name: str = "label",
             named_labels: bool = False) -> None:
    """Write a Dataset as CSV: feature columns f0..f{M-1} then the label.

    Floats are written with repr so a reload reproduces them exactly;
    missing cells are written as empty fields.  Labels are written as raw
    integers by default, which always round-trips; ``named_labels=True``
    writes the recorded display tokens instead (use only when those
    tokens parse back to the same classes).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(dataset.n_features)] + [label_name])
        miss = dataset.missing
        for i in range(dataset.n_samples):
            row = []
            for j in range(dataset.n_features):
                if miss is not None and miss[i, j]:
                    row.append("")
                else:
                    row.append(repr(float(dataset.features[i, j])))
            if named_labels:
                row.append(dataset.display_label(dataset.labels[i]))
            else:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)


def load_libsvm(path) -> Dataset:
    """Load a LibSVM-format text file into a dense Dataset.

    Lines are ``label idx:val ...`` with 1-based strictly ascending
    indices; blank lines are skipped.  Indices absent from a line are 0.0
    (observed), never missing.  Labels must be integral.
    """
    labels: list[int] = []
    rows: list[dict[int, float]] = []
    max_index = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                raw = float(parts[0])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: unparsable label {parts[0]!r}") from None
            if not _is_int64(raw):
                raise DataError(f"{path}: line {lineno}: label {parts[0]!r} is not an int64")
            entry: dict[int, float] = {}
            prev = 0
            for token in parts[1:]:
                try:
                    idx_s, val_s = token.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise DataError(f"{path}: line {lineno}: unparsable token {token!r}") from None
                if idx <= prev:
                    raise DataError(
                        f"{path}: line {lineno}: indices not ascending ({idx} after {prev})"
                    )
                if idx < 1:
                    raise DataError(f"{path}: line {lineno}: index {idx} is not 1-based")
                if not np.isfinite(val):
                    raise DataError(f"{path}: line {lineno}: non-finite value in {token!r}")
                prev = idx
                entry[idx] = val
            labels.append(int(raw))
            rows.append(entry)
            max_index = max(max_index, prev)
    if not rows:
        raise DataError(f"{path}: no data rows")
    if max_index == 0:
        raise DataError(f"{path}: no feature indices found")

    features = np.zeros((len(rows), max_index))
    for i, entry in enumerate(rows):
        for idx, val in entry.items():
            features[i, idx - 1] = val
    return Dataset(features, np.array(labels, dtype=np.int64))


def fit_scaling(dataset: Dataset) -> ScalingParams:
    """Per-feature min/max over observed entries (missing cells ignored)."""
    feats = dataset.features
    with np.errstate(invalid="ignore"):
        lo = np.nanmin(feats, axis=0)
        hi = np.nanmax(feats, axis=0)
    if np.isnan(lo).any():
        bad = np.flatnonzero(np.isnan(lo)).tolist()
        raise DataError(f"features {bad} have no observed values to fit scaling on")
    return ScalingParams(lo, hi)


def apply_scaling(dataset: Dataset, params: ScalingParams) -> Dataset:
    """Affine map of each feature to [-1, 1] on the fitted range.

    Constant features map to 0.  Values outside the fitted range are not
    clamped, so test points may land outside [-1, 1].
    """
    if params.minimum.shape[0] != dataset.n_features:
        raise ShapeError(
            f"scaling params cover {params.minimum.shape[0]} features, "
            f"dataset has {dataset.n_features}"
        )
    span = params.maximum - params.minimum
    constant = span == 0
    safe_span = np.where(constant, 1.0, span)
    scaled = 2.0 * (dataset.features - params.minimum) / safe_span - 1.0
    scaled[:, constant] = 0.0
    if dataset.missing is not None:
        scaled[dataset.missing] = np.nan
    return Dataset(scaled, dataset.labels.copy(), dataset.missing, dataset.label_names)


def _row_distances(row_values: np.ndarray, row_mask: np.ndarray,
                   donor_values: np.ndarray, donor_mask: np.ndarray) -> np.ndarray:
    """Distance from one row to every donor over mutually observed features.

    sqrt(mean squared difference over shared features); +inf when two rows
    share no observed feature.
    """
    shared = (~row_mask) & (~donor_mask)
    diff = np.where(shared, donor_values - row_values, 0.0)
    n_shared = shared.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = np.sqrt((diff * diff).sum(axis=1) / n_shared)
    dist[n_shared == 0] = np.inf
    return dist


def _impute_values(target_values: np.ndarray, target_mask: np.ndarray,
                   donor_values: np.ndarray, donor_mask: np.ndarray,
                   k: int, exclude_self: bool) -> np.ndarray:
    filled = target_values.copy()
    donor_count = donor_values.shape[0]
    for i in np.flatnonzero(target_mask.any(axis=1)):
        dist = _row_distances(target_values[i], target_mask[i], donor_values, donor_mask)
        if exclude_self:
            dist[i] = np.inf
        for j in np.flatnonzero(target_mask[i]):
            observes_j = ~donor_mask[:, j]
            if exclude_self:
                observes_j = observes_j.copy()
                observes_j[i] = False
            candidates = np.flatnonzero(observes_j & np.isfinite(dist))
            if candidates.size == 0:
                # no comparable donor: fall back to the feature mean
                pool = np.flatnonzero(observes_j)
                if pool.size == 0:
                    raise DataError(f"feature {j} has no donors to impute from")
                filled[i, j] = donor_values[pool, j].mean()
                continue
            order = candidates[np.argsort(dist[candidates], kind="stable")]
            chosen = order[: min(k, order.size)]
            filled[i, j] = donor_values[chosen, j].mean()
    return filled


def knn_impute(dataset: Dataset, k: int = 5) -> Dataset:
    """Replace each missing cell with the mean of its k nearest donors.

    Distance is the root mean squared difference over features both rows
    observe; rows missing the feature under repair are skipped as donors,
    and fewer than k donors means all of them are used.  Complete datasets
    come back unchanged.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if dataset.missing is None:
        return dataset
    donors_mask = dataset.missing
    if donors_mask.all(axis=0).any():
        bad = np.flatnonzero(donors_mask.all(axis=0)).tolist()
        raise DataError(f"features {bad} are missing in every row")
    filled = _impute_values(dataset.features, dataset.missing,
                            dataset.features, dataset.missing, k, exclude_self=True)
    return Dataset(filled, dataset.labels.copy(), None, dataset.label_names)


def knn_impute_from(target: Dataset, donors: Dataset, k: int = 5) -> Dataset:
    """Impute ``target``'s missing cells from rows of a separate donor set.

    Used by the cross-validation harness to complete test folds from
    training-fold donors only.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if target.n_features != donors.n_features:
        raise ShapeError("target and donor datasets have different feature counts")
    if target.missing is None:
        return target
    donor_mask = (np.zeros(donors.features.shape, dtype=bool)
                  if donors.missing is None else donors.missing)
    if donor_mask.all(axis=0).any():
        bad = np.flatnonzero(donor_mask.all(axis=0)).tolist()
        raise DataError(f"features {bad} are missing in every donor row")
    filled = _impute_values(target.features, target.missing,
                            donors.features, donor_mask, k, exclude_self=False)
    return Dataset(filled, target.labels.copy(), None, target.label_names)


def make_folds(dataset: Dataset, k: int, repeat: int, seed: int) -> FoldPlan:
    """Stratified fold assignments for ``repeat`` independent k-fold splits.

    Deterministic in ``seed``.  Within each repeat and class, fold sizes
    differ by at most one.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    counts = dataset.class_counts()
    too_small = {c: n for c, n in counts.items() if n < k}
    if too_small:
        detail = ", ".join(f"class {c} has {n}" for c, n in sorted(too_small.items()))
        raise DataError(f"every class needs at least k={k} samples: {detail}")

    assignments = np.empty((repeat, dataset.n_samples), dtype=np.int64)
    for r in range(repeat):
        rng = Rng(mix_seed(seed, 11, r))
        for c in dataset.class_ids:
            idx = np.flatnonzero(dataset.labels == c)
            rng.shuffle(idx)
            offset = rng.integers(0, k)
            for pos, sample in enumerate(idx):
                assignments[r, sample] = (pos + offset) % k
    return FoldPlan(k, repeat, seed, assignments)


def make_imbalanced(dataset: Dataset, positive_class: int) -> Dataset:
    """One-vs-rest relabeling: ``positive_class`` becomes +1, the rest -1.

    Features, row order and sample count are unchanged; with K classes of
    equal size this yields a 1:(K-1) class ratio.
    """
    positive_class = int(positive_class)
    if positive_class not in dataset.class_ids:
        raise DataError(f"unknown class {positive_class}; present: {dataset.class_ids.tolist()}")
    if dataset.class_ids.size < 2:
        raise DataError("imbalance generation needs at least 2 classes")
    labels = np.where(dataset.labels == positive_class, 1, -1).astype(np.int64)
    names = {1: dataset.display_label(positive_class), -1: "rest"}
    return Dataset(dataset.features, labels, dataset.missing, names)
