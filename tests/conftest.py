import contextlib
import csv

import numpy as np
from hypothesis import settings

from twinlearn.data import DataError, Dataset, _is_int64, make_folds, save_csv
from twinlearn import twsvm
from twinlearn.harness import OvrEnsemble, ovr_distances
from twinlearn.models import MODELS
from twinlearn.numcore import ConvergenceError, Rng, mix_seed

# every run draws the same hypothesis examples, so two commits compare
# on the same inputs
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def gaussian_blobs(centers, counts, std=1.0, seed=0, labels=None):
    """Seeded isotropic Gaussian blobs as a Dataset."""
    rng = Rng(seed)
    dim = len(centers[0])
    blocks, block_labels = [], []
    if labels is None:
        labels = range(len(centers))
    for center, count, label in zip(centers, counts, labels):
        pts = rng.normal(0.0, std, count * dim).reshape(count, dim)
        blocks.append(pts + np.asarray(center, dtype=float))
        block_labels.extend([label] * count)
    return Dataset(np.vstack(blocks), np.array(block_labels))


def fold_data_error_csv(path, folds=3, seed=44):
    """Blobs whose third feature is observed only on the rows of test fold
    1 (of ``folds`` at ``seed``), written to ``path``: CV job 0 runs, and
    job 1's training fold has no value to scale that feature by."""
    ds = gaussian_blobs([(2.2, 0, 0), (-2.2, 0, 0)], [15, 15], std=0.9, seed=seed,
                        labels=[1, -1])
    mask = np.zeros(ds.features.shape, dtype=bool)
    mask[:, 2] = make_folds(ds, folds, 1, seed).assignments[0] != 1
    save_csv(Dataset(np.where(mask, np.nan, ds.features), ds.labels, mask), path)
    return str(path)


def label_tokens_per_row(tokens):
    """Reference label mapping: one float, int and name entry per row, the
    last row's token naming each integral value."""
    try:
        values = [float(t) for t in tokens]
        if all(_is_int64(v) for v in values):
            labels = np.array([int(v) for v in values], dtype=np.int64)
            return labels, {int(v): t for v, t in zip(values, tokens)}
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


def load_csv_per_cell(path, label_column="label", has_header=True):
    """Reference ``load_csv``: one numpy write, finiteness test and mask
    entry per cell, with the same refusals in the same order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
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

    label_tokens = []
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
    labels, names = label_tokens_per_row(label_tokens)
    return Dataset(values, labels, mask if mask.any() else None, names)


def make_folds_per_sample(dataset, k, repeat, seed):
    """Reference ``make_folds(...).assignments``: the same shuffle and
    offset draws, then one fold written per sample."""
    assignments = np.empty((repeat, dataset.n_samples), dtype=np.int64)
    for r in range(repeat):
        rng = Rng(mix_seed(seed, 11, r))
        for c in dataset.class_ids:
            idx = np.flatnonzero(dataset.labels == c)
            rng.shuffle(idx)
            offset = rng.integers(0, k)
            for pos, sample in enumerate(idx):
                assignments[r, sample] = (pos + offset) % k
    return assignments


def flatten(arrays):
    """One flat vector of a parameter or gradient list, in list order."""
    return np.concatenate([np.ravel(a) for a in arrays])


def params_from_flat(vec, hidden_width, n_features):
    """One one-plane net as a bank of one, ``[[W | c], plane W (1, 1, h),
    plane b (1, 1)]``, from a flat vector read in hidden W, hidden c, head
    w, head b order."""
    h, m = hidden_width, n_features
    hw = vec[: h * m].reshape(h, m)
    hb = vec[h * m : h * m + h]
    w = vec[h * m + h : h * m + 2 * h]
    return [np.column_stack((hw, hb)), w.reshape(1, 1, h), vec[-1:].reshape(1, 1)]


def flatten_nets(arrays):
    """Flat vector of a bank ``[[W | c], plane W (K, p, h), plane b (K,
    p)]``, read net by net in W, c, plane W, plane b order: the order
    ``params_from_flat`` reads."""
    hidden, pw, pb = arrays
    parts = []
    for w, pw_k, pb_k in zip(np.split(hidden, len(pw)), pw, pb, strict=True):
        parts += [np.ravel(w[:, :-1]), w[:, -1], np.ravel(pw_k), np.ravel(pb_k)]
    return np.concatenate(parts)


def ensemble_of(kind, class_ids, parts):
    """The one-vs-rest ensemble of a binary kind's own-plane ``parts``, one
    per class id, as ``harness.fit_onevsrest`` builds it from its fits."""
    return OvrEnsemble(np.asarray(class_ids), *MODELS[kind].own_plane.scorer(parts))


def own_plane_distance(kind, part):
    """The distance of one own plane of a binary kind as one-vs-rest
    measures it, ``harness.ovr_distances`` of an ensemble of that one part:
    a float for one sample (M,), (N,) for a batch (N, M)."""
    ensemble = ensemble_of(kind, [0], [part])

    def distance(x):
        d = ovr_distances(ensemble, x)[:, 0]
        return float(d[0]) if np.ndim(x) == 1 else d

    return distance


def central_difference(f, x0, eps=1e-5):
    out = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += eps
        xm[i] -= eps
        out[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return out


def max_relative_error(analytic, numeric, floor=1e-8):
    scale = np.maximum(floor, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / scale))


def _split(net):
    """(W, c, w, b) of a bank of one one-plane net."""
    hidden, pw, pb = net
    return hidden[:, :-1], hidden[:, -1], pw[0, 0], pb[0, 0]


def _two_block_backprop(w, rows, phi, delta):
    dpre = delta[:, None] * w[None, :] * (1.0 - phi * phi)
    return [dpre.T @ rows, dpre.sum(axis=0), phi.T @ delta, float(delta.sum())]


def _join(dhw, dhb, dw, db):
    """Gradients (W, c, w, b) of a one-plane net in the layout of a bank
    of one."""
    return [np.column_stack((dhw, dhb)), dw.reshape(1, 1, -1), np.array([[db]])]


def two_block_side_objective(params, own, other, c, target):
    """Reference side objective: separate forward passes and backprops over
    the ``other`` (margin) and ``own`` (proximal) rows, summed per gradient."""
    hw, hb, w, b = _split(params)
    phi_o = np.tanh(other @ hw.T + hb)
    y = np.tanh(phi_o @ w + b)
    r = y - target
    phi_a = np.tanh(own @ hw.T + hb)
    z = phi_a @ w + b
    loss = float(r @ r) / (2.0 * other.shape[0]) + c * float(z @ z) / (2.0 * own.shape[0])
    margin = _two_block_backprop(w, other, phi_o, r * (1.0 - y * y) / other.shape[0])
    proximal = _two_block_backprop(w, own, phi_a, (c / own.shape[0]) * z)
    return loss, _join(*(m + p for m, p in zip(margin, proximal)))


def two_block_rfnn_objective(params, rows, targets, l2):
    """Reference rfnn objective with the hidden bias added apart from the
    weights' product."""
    hw, hb, w, b = _split(params)
    phi = np.tanh(rows @ hw.T + hb)
    r = phi @ w + b - targets
    penalty = 0.5 * l2 * (float(np.sum(hw**2)) + float(w @ w))
    loss = float(r @ r) / (2.0 * rows.shape[0]) + penalty
    dhw, dhb, dw, db = _two_block_backprop(w, rows, phi, r / rows.shape[0])
    return loss, _join(dhw + l2 * hw, dhb, dw + l2 * w, db)


def two_block_mc_objective(params, rows, class_idx, margin_weight):
    """Reference multiclass objective over the nets of a bank ``[[W | c],
    plane W, plane b]``, one class per net and rows in any class order,
    with the subnet bias added apart from the weights' product and each
    net backpropagated inline; gradients in the layout of ``params``."""
    nets = list(zip(np.split(params[0], len(params[1])), params[1], params[2]))
    phis, acts = [], []
    for hidden, pw, pb in nets:
        phis.append(np.tanh(rows @ hidden[:, :-1].T + hidden[:, -1]))
        acts.append(np.tanh(phis[-1] @ pw.T + pb))
    acts = np.stack(acts)
    abs_acts = np.abs(acts)
    n_banks, n, p = abs_acts.shape
    own = abs_acts[class_idx, np.arange(n), :]
    own_plane = own.argmin(axis=1)
    own_min = own[np.arange(n), own_plane]
    abs_acts[class_idx, np.arange(n), :] = np.inf
    flat = abs_acts.transpose(1, 0, 2).reshape(n, n_banks * p)
    other_flat = flat.argmin(axis=1)
    other_bank = other_flat // p
    other_plane = other_flat % p
    other_min = flat[np.arange(n), other_flat]
    deficit = np.maximum(1.0 - other_min, 0.0)
    loss = float((margin_weight * own_min * own_min + deficit * deficit).mean())

    grads = []
    for k, (phi, a_k, net) in enumerate(zip(phis, acts, nets)):
        da = np.zeros_like(a_k)
        own_rows = np.flatnonzero(class_idx == k)
        if own_rows.size:
            cols = own_plane[own_rows]
            da[own_rows, cols] += (2.0 * margin_weight / n) * a_k[own_rows, cols]
        routed = np.flatnonzero(other_bank == k)
        if routed.size:
            cols = other_plane[routed]
            da[routed, cols] += (-2.0 / n) * deficit[routed] * np.sign(a_k[routed, cols])
        dz = da * (1.0 - a_k * a_k)
        dpre = (dz @ net[1]) * (1.0 - phi * phi)
        grads.append((np.column_stack((dpre.T @ rows, dpre.sum(axis=0))), dz.T @ phi,
                      dz.sum(axis=0)))
    hidden, pw, pb = zip(*grads)
    return loss, [np.vstack(hidden), np.stack(pw), np.stack(pb)]


def assert_matches_reference(result, reference):
    """Loss within 1e-12 relative error of the reference loss, and every
    gradient within 1e-12 of the largest reference gradient entry: a single
    entry that sums to nearly zero has no relative precision to keep once
    its terms are added in another order."""
    (loss, grads), (ref_loss, ref_grads) = result, reference
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    scale = np.max(np.abs(flatten(ref_grads)))
    for g, ref in zip(grads, ref_grads, strict=True):
        assert np.shape(g) == np.shape(ref)
        assert np.max(np.abs(np.asarray(g) - ref)) <= 1e-12 * scale


def row_distances(row_values, row_mask, donor_values, donor_mask):
    """Reference distance from one row to every donor over mutually observed
    features: sqrt(mean squared difference), +inf when none is shared."""
    shared = (~row_mask) & (~donor_mask)
    diff = np.where(shared, donor_values - row_values, 0.0)
    n_shared = shared.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = np.sqrt((diff * diff).sum(axis=1) / n_shared)
    dist[n_shared == 0] = np.inf
    return dist


def impute_values_per_row(target_values, target_mask, donor_values, donor_mask,
                          k, exclude_self):
    """Reference KNN imputation: one distance vector per incomplete row and
    one stable sort of the comparable donors per missing cell."""
    filled = target_values.copy()
    for i in np.flatnonzero(target_mask.any(axis=1)):
        dist = row_distances(target_values[i], target_mask[i], donor_values, donor_mask)
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


def box_max_reference(m, c, max_iter=twsvm.MAX_SWEEPS):
    """Reference ``twsvm.projected_gradient_box_max``: its coordinate loop
    as it was before it read g through a memoryview and clipped by
    comparisons (``g.item(i)`` and ``min(max(...))``), and before it read
    M's rows in place of a transposed copy's, around the same polish,
    residual and objective.  It tests each sweep's iterate through
    ``twsvm._projected_gradient_norm``, as the solver does, so
    ``sweep_iterates`` records both."""
    c = float(c)
    diag = np.diag(m)
    x = np.where(diag > 0.0, 0.0, c)
    active = np.flatnonzero(diag > 0.0).tolist()
    diag = diag.tolist()
    columns = np.ascontiguousarray(m.T)
    for sweep in range(max_iter):
        if sweep % twsvm.POLISH_EVERY == 0:
            x = twsvm._active_set_polish(m, x, c)
        g = 1.0 - m @ x
        residual = twsvm._projected_gradient_norm(g, x, c)
        if residual <= twsvm.KKT_TOL:
            return x
        values = x.tolist()
        for i in active:
            old = values[i]
            new = min(max(old + g.item(i) / diag[i], 0.0), c)
            if new != old:
                values[i] = new
                g -= (new - old) * columns[i]
        x = np.array(values)
    residual = twsvm.box_kkt_residual(m, x, c)
    if residual <= twsvm.KKT_TOL:
        return x
    raise ConvergenceError("iteration cap", best=x, residual=residual)


@contextlib.contextmanager
def sweep_iterates():
    """A list that, inside the block, receives a copy of each iterate the
    dual solver tests: ``twsvm._projected_gradient_norm`` is called once
    per sweep on the sweep's iterate, and once more on the last iterate
    where the sweep cap is hit."""
    seen = []
    norm = twsvm._projected_gradient_norm

    def record(g, x, c):
        seen.append(x.copy())
        return norm(g, x, c)

    twsvm._projected_gradient_norm = record
    try:
        yield seen
    finally:
        twsvm._projected_gradient_norm = norm
