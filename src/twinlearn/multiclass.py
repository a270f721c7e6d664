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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import DivergenceError, Rng, ShapeError, mix_seed
from .data import Dataset, DataError
from .twin_nn import HiddenLayer

__all__ = [
    "MCHyper",
    "ClassBank",
    "BankGradients",
    "MulticlassTwinModel",
    "class_distance",
    "loss_from_mins",
    "mc_loss",
    "mc_gradients",
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
class BankGradients:
    subnet_weights: np.ndarray
    subnet_biases: np.ndarray
    plane_weights: np.ndarray
    plane_biases: np.ndarray


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


def _min_abs_activations(model: MulticlassTwinModel, rows: np.ndarray,
                         class_idx: np.ndarray):
    """Own and foreign min |tanh activation| per sample, with routing.

    Returns (own_min, own_plane, other_min, other_bank, other_plane,
    activations) where activations is the (K, N, p) stack; argmins take
    the first (lowest bank, then plane) index on ties.
    """
    acts = np.stack([bank.activations(rows) for bank in model.banks])
    abs_acts = np.abs(acts)
    k, n, p = abs_acts.shape
    own = abs_acts[class_idx, np.arange(n), :]
    own_plane = own.argmin(axis=1)
    own_min = own[np.arange(n), own_plane]

    masked = abs_acts.copy()
    masked[class_idx, np.arange(n), :] = np.inf
    flat = masked.transpose(1, 0, 2).reshape(n, k * p)
    other_flat = flat.argmin(axis=1)
    other_bank = other_flat // p
    other_plane = other_flat % p
    other_min = flat[np.arange(n), other_flat]
    return own_min, own_plane, other_min, other_bank, other_plane, acts


def mc_loss(model: MulticlassTwinModel, features, labels) -> float:
    """Mean per-sample loss over a batch (or one sample)."""
    rows = _check_features(model, features)
    class_idx = _class_index(model, labels)
    if class_idx.shape[0] != rows.shape[0]:
        raise ShapeError("features and labels disagree on sample count")
    own_min, _, other_min, _, _, _ = _min_abs_activations(model, rows, class_idx)
    return float(loss_from_mins(own_min, other_min, model.hyper.margin_weight).mean())


def mc_gradients(model: MulticlassTwinModel, features, labels) -> list[BankGradients]:
    """Subgradient of mc_loss for every bank; min routes to argmin only."""
    rows = _check_features(model, features)
    class_idx = _class_index(model, labels)
    if class_idx.shape[0] != rows.shape[0]:
        raise ShapeError("features and labels disagree on sample count")
    n = rows.shape[0]
    own_min, own_plane, other_min, other_bank, other_plane, acts = \
        _min_abs_activations(model, rows, class_idx)
    deficit = np.maximum(1.0 - other_min, 0.0)

    grads = []
    for k, bank in enumerate(model.banks):
        a_k = acts[k]
        da = np.zeros_like(a_k)
        own_rows = np.flatnonzero(class_idx == k)
        if own_rows.size:
            cols = own_plane[own_rows]
            da[own_rows, cols] += (2.0 * model.hyper.margin_weight / n) * a_k[own_rows, cols]
        routed = np.flatnonzero(other_bank == k)
        if routed.size:
            cols = other_plane[routed]
            da[routed, cols] += (-2.0 / n) * deficit[routed] * np.sign(a_k[routed, cols])

        phi = bank.subnet.map(rows)
        dz = da * (1.0 - a_k * a_k)
        dpw = dz.T @ phi
        dpb = dz.sum(axis=0)
        dphi = dz @ bank.plane_weights
        dpre = dphi * (1.0 - phi * phi)
        dsw = dpre.T @ rows
        dsb = dpre.sum(axis=0)
        grads.append(BankGradients(dsw, dsb, dpw, dpb))
    return grads


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
    model = MulticlassTwinModel(banks, hyper, data.n_features)
    for epoch in range(hyper.epochs):
        loss = mc_loss(model, rows, labels)
        if not np.isfinite(loss):
            raise DivergenceError(
                f"multiclass training diverged at epoch {epoch}", epoch=epoch
            )
        grads = mc_gradients(model, rows, labels)
        banks = tuple(
            ClassBank(
                bank.class_id,
                HiddenLayer(bank.subnet.weights - hyper.lr * g.subnet_weights,
                            bank.subnet.biases - hyper.lr * g.subnet_biases),
                bank.plane_weights - hyper.lr * g.plane_weights,
                bank.plane_biases - hyper.lr * g.plane_biases,
            )
            for bank, g in zip(model.banks, grads)
        )
        model = MulticlassTwinModel(banks, hyper, data.n_features)
    if not np.isfinite(mc_loss(model, rows, labels)):
        raise DivergenceError(
            f"multiclass training diverged at epoch {hyper.epochs}", epoch=hyper.epochs
        )
    return model


def mc_distances(model: MulticlassTwinModel, features) -> np.ndarray:
    """(N, K) matrix of per-class nearest-plane distances."""
    rows = _check_features(model, features)
    return np.column_stack([class_distance(bank, rows) for bank in model.banks])


def mc_predict(model: MulticlassTwinModel, features):
    """Class of the nearest plane group; ties go to the lowest class id."""
    d = mc_distances(model, features)
    labels = model.class_ids[d.argmin(axis=1)]
    return int(labels[0]) if np.ndim(features) == 1 else labels
