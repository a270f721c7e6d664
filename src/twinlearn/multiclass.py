"""Multiclass twin network: one p-plane ``twin_nn.TanhNet`` bank per class.

Each class owns a bank: a tanh sub-network producing its own feature
space and p classifier planes w.phi(x) + b, each with its own trained
weights w and bias b.  Training drives the smallest absolute tanh plane
activation toward 0 for the sample's own class and toward 1 for the
nearest foreign plane, with no penalty once a foreign plane is further
than the unit target.  Prediction picks the class whose bank is nearest,
by ``TanhNet.distance``: the smallest normalized distance
|w.phi(x)+b| / ||w|| over the bank's planes, computed on raw
pre-activations so that labels are invariant to positive rescaling of
any plane.

The min operator routes gradient only to the argmin plane of each group;
ties break toward the lowest bank/plane index.  Training rows are
canonicalized by a stable sort on class id and per-bank seeds are keyed
to the class id itself, so models do not depend on how class blocks are
ordered in the input.

Training goes through ``twin_nn.descend``, the loop shared by all three
networks, with one forward pass per epoch over a design matrix built
once per fit, and the banks' gradients come from the shared
``twin_nn._backprop``; unlike the binary twin sides it never stops
early, since it takes no ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import DivergenceError, Rng, ShapeError, mix_seed
from .data import Dataset, DataError
from .twin_nn import TanhNet, _backprop, _design, _fold, _forward, _net, descend

__all__ = [
    "MCHyper",
    "MulticlassTwinModel",
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
class MulticlassTwinModel:
    """One p-plane bank per class, stored in increasing class id order."""

    class_ids: np.ndarray
    banks: tuple[TanhNet, ...]
    hyper: MCHyper
    n_features: int

    def __post_init__(self):
        ids = np.asarray(self.class_ids)
        if (ids.dtype.kind != "i" or ids.shape != (len(self.banks),) or ids.size < 2
                or (np.diff(ids) <= 0).any()):
            raise ShapeError("a multiclass model needs >= 2 banks, one per class id, "
                             "with integer class ids in increasing order")
        object.__setattr__(self, "class_ids", ids.astype(np.int64))


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


def _mc_objective(params, design: np.ndarray, class_idx: np.ndarray, margin_weight: float):
    """Unchecked core of mc_objective over ``[[W | c], plane W, plane b]``
    per bank and a ``_design(rows)``, with ``class_idx`` the bank index of
    each row's class."""
    nets = [params[i:i + 3] for i in range(0, len(params), 3)]
    phis, acts = [], []
    for net in nets:
        phi, z = _forward(net, design)
        phis.append(phi)
        acts.append(np.tanh(z))
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
    for k, (net, phi, a_k) in enumerate(zip(nets, phis, acts)):
        da = np.zeros_like(a_k)
        own_rows = np.flatnonzero(class_idx == k)
        if own_rows.size:
            cols = own_plane[own_rows]
            da[own_rows, cols] += (2.0 * margin_weight / n) * a_k[own_rows, cols]
        routed = np.flatnonzero(other_bank == k)
        if routed.size:
            cols = other_plane[routed]
            da[routed, cols] += (-2.0 / n) * deficit[routed] * np.sign(a_k[routed, cols])
        grads += _backprop(net[1], design, phi, da * (1.0 - a_k * a_k))
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
    params = [arr for net in model.banks
              for arr in (_fold(net.weights, net.biases), net.plane_weights, net.plane_biases)]
    loss, grads = _mc_objective(params, _design(rows), class_idx, model.hyper.margin_weight)
    return loss, [g for dhidden, dpw, dpb in zip(grads[0::3], grads[1::3], grads[2::3])
                  for g in (dhidden[:, :-1], dhidden[:, -1], dpw, dpb)]


def _init_bank(class_id: int, n_features: int, hyper: MCHyper) -> list:
    """Initial ``[[W | c], plane W, plane b]`` of one class's bank."""
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
    return [_fold(sw, sb), pw, pb]


def mc_train(data: Dataset, hyper: MCHyper) -> MulticlassTwinModel:
    """Joint full-batch subgradient descent over all class banks."""
    if data.missing is not None:
        raise DataError("dataset has missing values; impute before training")
    class_ids = data.class_ids
    if class_ids.size < 2:
        raise DataError(f"multiclass training needs >= 2 classes, got {class_ids.size}")

    order = np.argsort(data.labels, kind="stable")
    design = _design(data.features[order])
    class_idx = np.searchsorted(class_ids, data.labels[order])
    params, _ = descend(
        [arr for c in class_ids for arr in _init_bank(c, data.n_features, hyper)],
        lambda params: _mc_objective(params, design, class_idx, hyper.margin_weight),
        hyper.lr, hyper.epochs, 0.0, "multiclass training", None)
    # the loss is built from tanh outputs and stays finite while the
    # weights run away; a net rejects non-finite weights and plane norms
    try:
        banks = tuple(_net(params[i:i + 3]) for i in range(0, len(params), 3))
    except ValueError:
        raise DivergenceError(f"multiclass training diverged by epoch {hyper.epochs}: "
                              "a weight or plane norm is non-finite",
                              epoch=hyper.epochs) from None
    return MulticlassTwinModel(class_ids, banks, hyper, data.n_features)


def mc_distances(model: MulticlassTwinModel, features) -> np.ndarray:
    """(N, K) matrix of per-class nearest-plane distances."""
    rows = _check_features(model, features)
    return np.column_stack([bank.distance(rows) for bank in model.banks])


def mc_predict(model: MulticlassTwinModel, features):
    """Class of the nearest plane group; ties go to the lowest class id."""
    d = mc_distances(model, features)
    labels = model.class_ids[d.argmin(axis=1)]
    return int(labels[0]) if np.ndim(features) == 1 else labels
