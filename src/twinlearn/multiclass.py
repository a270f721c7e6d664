"""Multiclass twin network: one sub-network and plane bank per class.

Each class owns a tanh sub-network producing its own feature space and a
bank of tanh classifier neurons: hyperplanes w.phi(x) + b, each with its
own trained weights w and bias b.  Training drives the smallest absolute
plane activation toward 0 for the sample's own class and toward 1 for
the nearest foreign plane, with no penalty once a foreign plane is
further than the unit target.  Prediction picks the class whose nearest
plane has the smallest normalized distance |w.phi(x)+b| / ||w||,
computed on raw pre-activations so that labels are invariant to positive
rescaling of any plane.

The min operator routes gradient only to the argmin plane of each group;
ties break toward the lowest bank/plane index.  Training rows are
canonicalized by a stable sort on class id and per-bank seeds are keyed
to the class id itself, so models do not depend on how class blocks are
ordered in the input.

Training goes through ``twin_nn.descend``, the loop shared by all three
networks, with one forward pass per epoch; unlike the binary twin sides
it never stops early, since it takes no ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import DivergenceError, Rng, ShapeError, mix_seed
from .data import Dataset, DataError
from .twin_nn import HiddenLayer, descend

__all__ = [
    "MCHyper",
    "ClassBank",
    "MulticlassTwinModel",
    "class_distance",
    "loss_from_mins",
    "mc_objective",
    "mc_train",
    "mc_predict",
]


@dataclass(frozen=True)
class MCHyper:
    """Multiclass hyperparameters: subnet width n, planes per class p."""

    subnet_features: int = 8
    planes: int = 2
    margin_weight: float = 1.0
    lr: float = 0.05
    epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.subnet_features < 1:
            raise ValueError(f"subnet_features must be >= 1, got {self.subnet_features}")
        if self.planes < 1:
            raise ValueError(f"planes must be >= 1, got {self.planes}")
        if self.margin_weight < 0:
            raise ValueError(f"margin_weight must be >= 0, got {self.margin_weight}")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass(frozen=True, eq=False)
class ClassBank:
    """One class's sub-network plus its bank of p classifier planes."""

    class_id: int
    subnet: HiddenLayer
    plane_weights: np.ndarray
    plane_biases: np.ndarray

    def __post_init__(self):
        pw = np.asarray(self.plane_weights, dtype=np.float64)
        pb = np.asarray(self.plane_biases, dtype=np.float64)
        if pw.ndim != 2 or pb.ndim != 1 or pb.shape[0] != pw.shape[0]:
            raise ShapeError("plane bank needs (p, n) weights and (p,) biases")
        if pw.shape[1] != self.subnet.width:
            raise ShapeError("plane weights do not match subnet width")
        object.__setattr__(self, "plane_weights", pw)
        object.__setattr__(self, "plane_biases", pb)

    @property
    def n_planes(self) -> int:
        return self.plane_weights.shape[0]

    def preactivations(self, x: np.ndarray) -> np.ndarray:
        """Plane pre-activations for one sample (p,) or a batch (N, p)."""
        return self.subnet.map(x) @ self.plane_weights.T + self.plane_biases

    def activations(self, x: np.ndarray) -> np.ndarray:
        """tanh plane outputs, in (-1, 1)."""
        return np.tanh(self.preactivations(x))


@dataclass(frozen=True, eq=False)
class MulticlassTwinModel:
    """Banks are stored sorted by class id."""

    banks: tuple[ClassBank, ...]
    hyper: MCHyper
    n_features: int

    @property
    def class_ids(self) -> np.ndarray:
        return np.array([bank.class_id for bank in self.banks], dtype=np.int64)


def _plane_norms(bank: ClassBank) -> np.ndarray:
    norms = np.linalg.norm(bank.plane_weights, axis=1)
    if (norms == 0).any():
        bad = np.flatnonzero(norms == 0).tolist()
        raise ValueError(f"planes {bad} of class {bank.class_id} have zero-norm weights")
    return norms


def class_distance(bank: ClassBank, x: np.ndarray):
    """Distance from x to the bank's closest hyperplane.

    min over planes of |w_j.phi(x) + b_j| / ||w_j||, on raw
    pre-activations so the value is invariant to positive rescaling of
    any (w_j, b_j).
    """
    norms = _plane_norms(bank)
    z = bank.preactivations(np.asarray(x, dtype=np.float64))
    d = np.abs(z) / norms
    return float(d.min()) if d.ndim == 1 else d.min(axis=1)


def loss_from_mins(own_min, other_min, margin_weight: float):
    """Per-sample loss from the two min absolute activations.

    margin_weight * own_min^2 + max(1 - other_min, 0)^2: the own-class
    target is 0, the foreign target is 1, and a foreign plane beyond the
    unit target incurs no penalty.  Scalars or arrays, elementwise.
    """
    deficit = np.maximum(1.0 - other_min, 0.0)
    return margin_weight * own_min * own_min + deficit * deficit


def _check_features(model: MulticlassTwinModel, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    batch = np.atleast_2d(x)
    if batch.shape[1] != model.n_features:
        raise ShapeError(f"expected {model.n_features} features, got {batch.shape[1]}")
    return batch


def _class_index(model: MulticlassTwinModel, labels) -> np.ndarray:
    ids = model.class_ids
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    idx = np.searchsorted(ids, labels)
    bad = (idx >= ids.size) | (ids[np.minimum(idx, ids.size - 1)] != labels)
    if bad.any():
        unknown = sorted(set(labels[bad].tolist()))
        raise DataError(f"unknown classes {unknown}; model has {ids.tolist()}")
    return idx


def _bank_params(banks) -> list:
    """Flat parameter list: [subnet W, subnet c, plane W, plane b] per bank."""
    return [arr for bank in banks for arr in (bank.subnet.weights, bank.subnet.biases,
                                              bank.plane_weights, bank.plane_biases)]


def _mc_objective(params, rows: np.ndarray, class_idx: np.ndarray, margin_weight: float):
    """Unchecked core of mc_objective over a flat ``_bank_params`` list,
    with ``class_idx`` the bank index of each row's class."""
    phis, acts = [], []
    for i in range(0, len(params), 4):
        sw, sb, pw, pb = params[i:i + 4]
        phis.append(np.tanh(rows @ sw.T + sb))
        acts.append(np.tanh(phis[-1] @ pw.T + pb))
    acts = np.stack(acts)
    abs_acts = np.abs(acts)
    n_banks, n, p = abs_acts.shape
    # own and foreign min |activation| per sample; argmins take the first
    # (lowest bank, then plane) index on ties
    own = abs_acts[class_idx, np.arange(n), :]
    own_plane = own.argmin(axis=1)
    own_min = own[np.arange(n), own_plane]
    abs_acts[class_idx, np.arange(n), :] = np.inf
    flat = abs_acts.transpose(1, 0, 2).reshape(n, n_banks * p)
    other_flat = flat.argmin(axis=1)
    other_bank = other_flat // p
    other_plane = other_flat % p
    other_min = flat[np.arange(n), other_flat]
    loss = float(loss_from_mins(own_min, other_min, margin_weight).mean())
    deficit = np.maximum(1.0 - other_min, 0.0)

    grads = []
    for k, (phi, a_k) in enumerate(zip(phis, acts)):
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
        dpre = (dz @ params[4 * k + 2]) * (1.0 - phi * phi)
        grads += [dpre.T @ rows, dpre.sum(axis=0), dz.T @ phi, dz.sum(axis=0)]
    return loss, grads


def mc_objective(model: MulticlassTwinModel, features, labels):
    """Mean per-sample loss over a batch (or one sample) and its
    subgradients, from one forward pass.

    Gradients come as [subnet W, subnet c, plane W, plane b] for each bank
    in order; the min routes gradient to the argmin plane only.
    """
    rows = _check_features(model, features)
    class_idx = _class_index(model, labels)
    if class_idx.shape[0] != rows.shape[0]:
        raise ShapeError("features and labels disagree on sample count")
    return _mc_objective(_bank_params(model.banks), rows, class_idx, model.hyper.margin_weight)


def _init_bank(class_id: int, n_features: int, hyper: MCHyper) -> ClassBank:
    rng = Rng(mix_seed(hyper.seed, class_id))
    n = hyper.subnet_features
    bound_in = 1.0 / np.sqrt(n_features)
    sw = rng.uniform(-bound_in, bound_in, n * n_features).reshape(n, n_features)
    sb = rng.uniform(-bound_in, bound_in, n)
    bound_plane = 1.0 / np.sqrt(n)
    pw = np.empty((hyper.planes, n))
    for j in range(hyper.planes):
        while True:
            row = rng.uniform(-bound_plane, bound_plane, n)
            if np.linalg.norm(row) > 0:
                break
        pw[j] = row
    pb = rng.uniform(-bound_plane, bound_plane, hyper.planes)
    return ClassBank(int(class_id), HiddenLayer(sw, sb), pw, pb)


def mc_train(data: Dataset, hyper: MCHyper) -> MulticlassTwinModel:
    """Joint full-batch subgradient descent over all class banks."""
    if data.missing is not None:
        raise DataError("dataset has missing values; impute before training")
    class_ids = data.class_ids
    if class_ids.size < 2:
        raise DataError(f"multiclass training needs >= 2 classes, got {class_ids.size}")

    order = np.argsort(data.labels, kind="stable")
    rows = data.features[order]
    labels = data.labels[order]

    banks = tuple(_init_bank(c, data.n_features, hyper) for c in class_ids)
    class_idx = np.searchsorted(class_ids, labels)
    params, _ = descend(
        _bank_params(banks),
        lambda params: _mc_objective(params, rows, class_idx, hyper.margin_weight),
        hyper.lr, hyper.epochs, 0.0, "multiclass training", None)
    # the loss is built from tanh outputs and stays finite while the
    # weights run away, so check the weights and plane norms themselves
    with np.errstate(over="ignore", invalid="ignore"):
        finite = (all(np.all(np.isfinite(p)) for p in params)
                  and all(np.all(np.isfinite(np.linalg.norm(pw, axis=1)))
                          for pw in params[2::4]))
    if not finite:
        raise DivergenceError(f"multiclass training diverged by epoch {hyper.epochs}: "
                              "a weight or plane norm is non-finite", epoch=hyper.epochs)
    banks = tuple(ClassBank(bank.class_id, HiddenLayer(*params[4 * k:4 * k + 2]),
                            *params[4 * k + 2:4 * k + 4])
                  for k, bank in enumerate(banks))
    return MulticlassTwinModel(banks, hyper, data.n_features)


def mc_distances(model: MulticlassTwinModel, features) -> np.ndarray:
    """(N, K) matrix of per-class nearest-plane distances."""
    rows = _check_features(model, features)
    return np.column_stack([class_distance(bank, rows) for bank in model.banks])


def mc_predict(model: MulticlassTwinModel, features):
    """Class of the nearest plane group; ties go to the lowest class id."""
    d = mc_distances(model, features)
    labels = model.class_ids[d.argmin(axis=1)]
    return int(labels[0]) if np.ndim(features) == 1 else labels
