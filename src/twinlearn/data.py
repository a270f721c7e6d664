"""Dataset ingestion, scaling, KNN imputation, fold plans, imbalance generation.

CSV files follow an RFC-4180 subset: UTF-8, '.' decimal separator, one
label column, empty field = missing value.  LibSVM files are lines of
``label idx:val ...`` with 1-based ascending indices; absent indices are
0.0, not missing.  Missing feature cells are stored as NaN and tracked by
an explicit boolean mask; the two representations are kept consistent.
"""

from __future__ import annotations

import csv
import math
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
            self.features[idx],
            self.labels[idx],
            None if self.missing is None else self.missing[idx],
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
    """Stratified fold assignments for repeated k-fold cross validation:
    ``assignments[r][i]`` is the fold index of sample i in repeat r."""

    assignments: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.assignments, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeError("assignments must be (repeat, n_samples)")
        arr.setflags(write=False)
        object.__setattr__(self, "assignments", arr)

    def fold_indices(self, repeat: int, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train_indices, test_indices) for one repeat/fold pair."""
        row = self.assignments[repeat]
        test = np.flatnonzero(row == fold)
        train = np.flatnonzero(row != fold)
        return train, test


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


def _lines(path):
    """The lines of UTF-8 text file ``path``, ends as read, as ``csv.reader``
    needs them; DataError naming the file if it is not UTF-8."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _csv_rows(path) -> list[list[str]]:
    """The non-empty rows of CSV file ``path``; DataError naming the file and
    line where ``csv.reader`` refuses a row, such as one with a field longer
    than its limit of 131,072 characters."""
    reader = csv.reader(_lines(path))
    try:
        return [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def load_csv(path, label_column="label", has_header: bool = True) -> Dataset:
    """Load a CSV file into a Dataset.

    ``label_column`` is a header name (when ``has_header``) or a column
    index (negative indices count from the end).  Empty feature cells
    become missing values; empty or non-numeric labels are errors.
    """
    rows = _csv_rows(path)
    if not rows:
        raise DataError(f"{path}: file is empty")

    body = rows[1:] if has_header else rows
    if not isinstance(label_column, str):
        label_idx = int(label_column)
    elif not has_header:
        raise DataError("label_column must be an index when the file has no header")
    else:
        header = [h.strip() for h in rows[0]]
        if label_column not in header:
            raise DataError(f"{path}: unknown label column {label_column!r}")
        label_idx = header.index(label_column)

    if not body:
        raise DataError(f"{path}: no data rows")
    width = len(body[0])
    if not -width <= label_idx < width:
        raise DataError(f"{path}: label column index {label_idx} out of range for width {width}")
    label_idx %= width

    label_tokens: list[str] = []
    values = np.empty((len(body), width - 1))
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataError(f"{path}: malformed row {i + 1}: expected {width} fields, got {len(row)}")
        row = [cell.strip() for cell in row]
        tok = row.pop(label_idx)
        if not tok:
            raise DataError(f"{path}: row {i + 1} has an empty label")
        label_tokens.append(tok)
        parsed = []
        for cell in row:
            try:
                x = float(cell) if cell else math.nan
            except ValueError:
                raise DataError(f"{path}: non-numeric cell {cell!r} at row {i + 1}") from None
            if cell and not math.isfinite(x):
                raise DataError(f"{path}: non-finite cell {cell!r} at row {i + 1}")
            parsed.append(x)
        values[i] = parsed

    labels, names = _parse_label_tokens(label_tokens)
    # a parsed cell is finite, so NaN marks exactly the empty cells
    return Dataset(values, labels, np.isnan(values), names)


def save_csv(dataset: Dataset, path, named_labels: bool = False) -> None:
    """Write a Dataset as CSV: feature columns f0..f{M-1} then ``label``.

    Floats are written with repr so a reload reproduces them exactly;
    missing cells are written as empty fields.  Labels are written as raw
    integers by default, which always round-trips; ``named_labels=True``
    writes the recorded display tokens instead (use only when those
    tokens parse back to the same classes).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(dataset.n_features)] + ["label"])
        for row, label in zip(dataset.features, dataset.labels):
            # NaN is exactly a missing cell
            cells = ["" if math.isnan(x) else repr(x) for x in row.tolist()]
            cells.append(dataset.display_label(label) if named_labels else str(int(label)))
            writer.writerow(cells)


def load_libsvm(path) -> Dataset:
    """Load a LibSVM-format text file into a dense Dataset.

    Lines are ``label idx:val ...`` with 1-based strictly ascending
    indices; blank lines are skipped.  Indices absent from a line are 0.0
    (observed), never missing.  Labels must be integral.
    """
    labels: list[int] = []
    rows: list[dict[int, float]] = []
    max_index = 0
    for lineno, line in enumerate(_lines(path), start=1):
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
            if not math.isfinite(val):
                raise DataError(f"{path}: line {lineno}: non-finite value in {token!r}")
            prev = idx
            entry[idx - 1] = val
        labels.append(int(raw))
        rows.append(entry)
        max_index = max(max_index, prev)
    if not rows:
        raise DataError(f"{path}: no data rows")
    if max_index == 0:
        raise DataError(f"{path}: no feature indices found")

    features = np.zeros((len(rows), max_index))
    for i, entry in enumerate(rows):
        features[i, list(entry)] = list(entry.values())
    return Dataset(features, np.array(labels, dtype=np.int64))


def fit_scaling(dataset: Dataset) -> ScalingParams:
    """Per-feature min/max over observed entries (missing cells ignored)."""
    feats = dataset.features
    # checked first: nanmin warns on a column with no observed value
    unobserved = np.isnan(feats).all(axis=0)
    if unobserved.any():
        bad = np.flatnonzero(unobserved).tolist()
        raise DataError(f"features {bad} have no observed values to fit scaling on")
    return ScalingParams(np.nanmin(feats, axis=0), np.nanmax(feats, axis=0))


def apply_scaling(dataset: Dataset, params: ScalingParams) -> Dataset:
    """Affine map of each feature to [-1, 1] on the fitted range.

    Constant features map to 0.  Values outside the fitted range are not
    clamped, so test points may land outside [-1, 1]; an observed value
    that lands past float range is a DataError naming its feature.
    """
    if params.minimum.shape[0] != dataset.n_features:
        raise ShapeError(
            f"scaling params cover {params.minimum.shape[0]} features, "
            f"dataset has {dataset.n_features}"
        )
    span = params.maximum - params.minimum
    constant = span == 0
    safe_span = np.where(constant, 1.0, span)
    # divided before the exact doubling, so every value inside a finite
    # fitted range stays finite; what does not is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (dataset.features - params.minimum) / safe_span * 2.0 - 1.0
    scaled[:, constant] = 0.0
    past = ~(np.isfinite(scaled) | np.isnan(dataset.features))
    if past.any():
        raise DataError(f"feature {np.flatnonzero(past.any(axis=0))[0]} scales past float range")
    if dataset.missing is not None:
        scaled[dataset.missing] = np.nan
    return Dataset(scaled, dataset.labels.copy(), dataset.missing, dataset.label_names)


# a block's largest distance temporary, (rows, donors) or at M >= 8
# (rows, donors, M) float64, stays near this many bytes
_BLOCK_BYTES = 128 * 1024
# numpy sums a contiguous row of fewer values than this left to right;
# longer rows go through its pairwise sum
_PAIRWISE_WIDTH = 8


def _block_rows(n_donors: int, n_features: int) -> int:
    """Target rows per imputation block, from the size of its temporaries."""
    width = n_donors * (n_features if n_features >= _PAIRWISE_WIDTH else 1)
    return max(1, _BLOCK_BYTES // (8 * width))


def _block_distances(values: np.ndarray, observed: np.ndarray,
                     donors_t: np.ndarray, donor_observed_t: np.ndarray) -> np.ndarray:
    """(rows, donors) distances from a block of target rows to every donor.

    sqrt(mean squared difference over mutually observed features); +inf
    when two rows share no observed feature.  ``values`` and ``observed``
    are the block's (rows, M) values (0 where missing) and observed mask;
    ``donors_t`` and ``donor_observed_t`` are the donors' in feature-major
    (M, donors) form, 0 where missing.  Each pair's squared differences
    are summed in the order numpy sums one contiguous row of M values, so
    the distances equal a per-row computation bit for bit.
    """
    if values.shape[1] < _PAIRWISE_WIDTH:
        # the same order as numpy's short row sum, and at M = 6 with 720
        # donors about 3x faster than that sum over (rows, donors, M)
        total = np.zeros((values.shape[0], donors_t.shape[1]))
        plane = np.empty_like(total)
        for j in range(values.shape[1]):
            # donor - row in place: a broadcasting subtraction into a new
            # array would hold numpy's iteration buffers besides it
            np.copyto(plane, donors_t[j])
            plane -= values[:, j, None]
            plane *= plane
            plane[~observed[:, j]] = 0.0
            plane[:, ~donor_observed_t[j]] = 0.0
            total += plane
        del plane
    else:
        planes = np.subtract(donors_t.T, values[:, None, :], order="C")
        planes *= planes
        planes[~(observed[:, None, :] & donor_observed_t.T)] = 0.0
        total = planes.sum(axis=2)
        del planes
    # built once the planes are freed; 0/1 products, so the shared-feature
    # counts are exact small integers
    n_shared = observed.astype(np.float64) @ donor_observed_t.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        total /= n_shared
    dist = np.sqrt(total, out=total)
    dist[n_shared == 0] = np.inf
    return dist


def _nearest_donors(dist: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row's min(k, finite) nearest donors, nearest first and equally
    distant donors by lower index, as a stable sort of the row orders them.

    Returns (positions, chosen) groups, one per donor count c: ``chosen``
    is (len(positions), c), c = 0 for rows with no finite distance.  Only
    the finite distances no larger than a row's k-th smallest are sorted.
    """
    kth = min(k, dist.shape[1]) - 1
    kth_dist = np.partition(dist, kth, axis=1)[:, kth, None]
    # np.nonzero walks the rows in order and each row in index order, and
    # lexsort is stable: each row's candidates stay together, nearest
    # first, equally distant ones by index
    row, donor = np.nonzero((dist <= kth_dist) & np.isfinite(dist))
    donor = donor[np.lexsort((dist[row, donor], row))]
    found = np.bincount(row, minlength=dist.shape[0])
    start = np.cumsum(found) - found
    counts = np.minimum(found, k)
    groups = []
    for count in np.unique(counts):
        positions = np.flatnonzero(counts == count)
        groups.append((positions, donor[start[positions, None] + np.arange(count)]))
    return groups


def _impute_values(target_values: np.ndarray, target_mask: np.ndarray,
                   donor_values: np.ndarray, donor_mask: np.ndarray,
                   k: int) -> np.ndarray:
    filled = target_values.copy()
    donors_t = np.where(donor_mask, 0.0, donor_values).T.copy()
    donor_observed_t = ~donor_mask.T
    donor_absent_t = np.ascontiguousarray(donor_mask.T)
    incomplete = np.flatnonzero(target_mask.any(axis=1))
    step = _block_rows(donor_values.shape[0], donor_values.shape[1])
    for start in range(0, incomplete.size, step):
        rows = incomplete[start:start + step]
        missing = target_mask[rows]
        dist = _block_distances(np.where(missing, 0.0, target_values[rows]), ~missing,
                                donors_t, donor_observed_t)
        # one candidate row per missing cell: its row's distances, with the
        # donors that miss the cell's feature out of reach
        at, feature = np.nonzero(missing)
        candidates = dist[at]
        del dist  # one block's distances alive at a time
        candidates[donor_absent_t[feature]] = np.inf
        for positions, chosen in _nearest_donors(candidates, k):
            cells, j = rows[at[positions]], feature[positions]
            if chosen.shape[1]:
                filled[cells, j] = donor_values[chosen, j[:, None]].mean(axis=1)
                continue
            # no comparable donor: fall back to the feature mean
            for f in np.unique(j):
                pool = ~donor_mask[:, f]
                if not pool.any():
                    raise DataError(f"feature {f} has no donors to impute from")
                filled[cells[j == f], f] = donor_values[pool, f].mean()
    return filled


def knn_impute(dataset: Dataset, k: int = 5) -> Dataset:
    """Replace each missing cell with the mean of its k nearest donors,
    the other rows of ``dataset``; ``knn_impute_from`` with the dataset as
    its own donor set."""
    return knn_impute_from(dataset, dataset, k)


def knn_impute_from(target: Dataset, donors: Dataset, k: int = 5) -> Dataset:
    """Replace each of ``target``'s missing cells with the mean of its k
    nearest rows of ``donors``.

    The cross-validation harness completes test folds from training-fold
    donors only.  Distance is the root mean squared difference over
    features both rows observe; rows missing the feature under repair are
    skipped as donors, so a row never donates to itself: it misses the
    feature it needs.  Equally distant donors are taken in row order, and
    fewer than k donors means all of them are used.  A cell with no
    comparable donor gets the feature's donor mean.  A complete target
    comes back unchanged.

    The incomplete rows are processed in blocks: one distance pass per
    block against all donors, then one nearest-donor selection over all of
    the block's missing cells, one candidate row of distances per cell.
    A block's rows are set by the donor count so that its distances stay
    near 128 KB (at 720 donors and M < 8, 22 rows); the candidates take
    that times the block's mean missing cells per incomplete row.  The
    result equals a per-row computation bit for bit.
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
        raise DataError(f"features {bad} are missing in every row of the donor set")
    filled = _impute_values(target.features, target.missing,
                            donors.features, donor_mask, k)
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
            assignments[r, idx] = (np.arange(idx.size) + offset) % k
    return FoldPlan(assignments)


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
