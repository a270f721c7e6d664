"""Multiclass twin network: one p-plane ``twin_nn.TanhNet`` bank per class.

Each class owns a bank: a tanh sub-network producing its own feature
space and p classifier planes w.phi(x) + b, each with its own trained
weights w and bias b.  Training drives the smallest absolute tanh plane
activation toward 0 for the sample's own class and toward 1 for the
nearest foreign plane, with no penalty once a foreign plane is further
than the unit target.  Prediction picks the class whose bank is nearest,
by the distance of ``TanhNet.distance``: the smallest normalized
distance |w.phi(x)+b| / ||w|| over the bank's planes, computed on raw
pre-activations so that labels are invariant to positive rescaling of
any plane.  ``mc_predict`` makes one block loop over the rows: each
block is scored feature-major by every bank, as (p, n) plane outputs,
and the nearest bank is a running minimum along the block
(``numcore.nearest``), with ties to the lowest class id.

The min operator routes gradient only to the argmin plane of each group;
ties break toward the lowest bank/plane index.  Training rows are
canonicalized by a stable sort on class id and per-bank seeds are keyed
to the class id itself, so models do not depend on how class blocks are
ordered in the input.

Training goes through ``twin_nn.descend``, the loop shared by all three
networks, with one forward pass per epoch over a design matrix built
once per fit, and the banks' gradients come from the shared
``twin_nn._backprop``; unlike the binary twin sides it never stops
early, since it takes no ``tol``.  Each bank starts from the one
initializer, ``twin_nn._init_net`` with p planes, and ``mc_objective``
takes and returns the one layout, ``[[W | c], plane W, plane b]`` per
bank, over that design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import DivergenceError, Rng, ShapeError, mix_seed, nearest, score_rows
from .data import Dataset, DataError
from .twin_nn import TanhNet, _backprop, _design, _forward, _init_net, _net, descend

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

    def __post_init__(self):
        ids = np.asarray(self.class_ids)
        if (ids.dtype.kind != "i" or ids.shape != (len(self.banks),) or ids.size < 2
                or (np.diff(ids) <= 0).any()
                or len({bank.n_features for bank in self.banks}) != 1):
            raise ShapeError("a multiclass model needs >= 2 banks of one input width, "
                             "one per class id, with integer class ids in increasing order")
        object.__setattr__(self, "class_ids", ids.astype(np.int64))


def loss_from_mins(own_min, other_min, margin_weight: float):
    """Per-sample loss from the two min absolute activations.

    margin_weight * own_min^2 + max(1 - other_min, 0)^2: the own-class
    target is 0, the foreign target is 1, and a foreign plane beyond the
    unit target incurs no penalty.  Scalars or arrays, elementwise.
    """
    deficit = np.maximum(1.0 - other_min, 0.0)
    return margin_weight * own_min * own_min + deficit * deficit


def mc_objective(params, design: np.ndarray, class_idx: np.ndarray, margin_weight: float):
    """Mean per-sample loss and its subgradients, from one forward pass.

    ``params`` holds ``[[W | c], plane W (p, h), plane b (p,)]`` for each
    bank in order, ``design`` is ``_design(rows)`` and ``class_idx`` the
    bank index of each row's class.  Activations are held as (banks, p,
    N), one column per sample, as the design is.  Gradients come in the
    layout of ``params``; the min routes gradient to the argmin plane only.
    """
    nets = [params[i:i + 3] for i in range(0, len(params), 3)]
    phis, acts = [], []
    for net in nets:
        phi, z = _forward(net, design)
        phis.append(phi)
        acts.append(np.tanh(z, out=z))
    acts = np.stack(acts)
    abs_acts = np.abs(acts)
    n_banks, p, n = abs_acts.shape
    # own and foreign min |activation| per sample; argmins take the first
    # (lowest bank, then plane) index on ties
    cols = np.arange(n)
    own_cells = class_idx, np.arange(p)[:, None], cols  # (p, N)
    own = abs_acts[own_cells]
    own_plane = own.argmin(axis=0)
    own_min = own[own_plane, cols]
    abs_acts[own_cells] = np.inf
    flat = abs_acts.reshape(n_banks * p, n)
    other_flat = flat.argmin(axis=0)
    other_bank = other_flat // p
    other_plane = other_flat % p
    other_min = flat[other_flat, cols]
    loss = float(loss_from_mins(own_min, other_min, margin_weight).mean())
    deficit = np.maximum(1.0 - other_min, 0.0)

    # each sample's own-plane and foreign-plane terms, scattered into zeros
    # with += so that a -0.0 term still lands as 0.0
    da = np.zeros_like(acts)
    da[class_idx, own_plane, cols] += (2.0 * margin_weight / n) * acts[class_idx, own_plane, cols]
    da[other_bank, other_plane, cols] += (
        (-2.0 / n) * deficit * np.sign(acts[other_bank, other_plane, cols]))
    grads = []
    for net, phi, a_k, da_k in zip(nets, phis, acts, da):
        grads += _backprop(net[1], design, phi, da_k * (1.0 - a_k * a_k))
    return loss, grads


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
        [arr for c in class_ids
         for arr in _init_net(Rng(mix_seed(hyper.seed, c)), data.n_features,
                              hyper.subnet_features, hyper.planes)],
        lambda params: mc_objective(params, design, class_idx, hyper.margin_weight),
        hyper.lr, hyper.epochs, 0.0, "multiclass training", None)
    # the loss is built from tanh outputs and stays finite while the
    # weights run away; a net rejects non-finite weights and plane norms
    try:
        banks = tuple(_net(params[i:i + 3]) for i in range(0, len(params), 3))
    except ValueError:
        raise DivergenceError(f"multiclass training diverged by epoch {hyper.epochs}: "
                              "a weight or plane norm is non-finite",
                              epoch=hyper.epochs) from None
    return MulticlassTwinModel(class_ids, banks, hyper)


def mc_distances(model: MulticlassTwinModel, features) -> np.ndarray:
    """(N, K) matrix of per-class nearest-plane distances, (1, K) for one
    sample (M,)."""
    return np.column_stack([bank.distance(features) for bank in model.banks])


def mc_predict(model: MulticlassTwinModel, features):
    """Class of the nearest plane group, ties going to the lowest class id:
    an int for one sample (M,), int64 (N,) for a batch (N, M).  One block
    loop (``numcore.score_rows``) scores every bank of each block and
    picks the nearest (``numcore.nearest``)."""
    def block(rows):
        return model.class_ids[nearest(bank._distance(rows) for bank in model.banks)]

    labels = score_rows(features, model.banks[0].n_features, block)
    return int(labels[0]) if np.ndim(features) == 1 else labels
