"""Multiclass twin network: one p-plane net per class, all K held as one
``twin_nn.TanhBank``.

Each class owns a net: a tanh sub-network producing its own feature
space and p classifier planes w.phi(x) + b, each with its own trained
weights w and bias b.  Training drives the smallest absolute tanh plane
activation toward 0 for the sample's own class and toward 1 for the
nearest foreign plane, with no penalty once a foreign plane is further
than the unit target.  Prediction picks the class whose net is nearest,
by the distance of ``TanhBank.distances``: the smallest normalized
distance |w.phi(x)+b| / ||w|| over the net's planes, computed on raw
pre-activations so that labels are invariant to positive rescaling of
any plane.  ``mc_predict`` makes one block loop over the rows with one
kernel call per block: (K, p, n) plane outputs and (K, n) distances for
all classes, of which the nearest is a running minimum along the block
(``numcore.nearest``), with ties to the lowest class id.

The min operator routes gradient only to the argmin plane of each group;
ties break toward the lowest net/plane index.  Training rows are
canonicalized by a stable sort on class id and per-net seeds are keyed
to the class id itself, so models do not depend on how class blocks are
ordered in the input.

Training goes through ``twin_nn.descend``, the loop shared by all three
networks, with one forward pass per epoch over a design matrix built
once per fit, and the gradients come from the shared
``twin_nn._backprop``; unlike the binary twin sides it never stops
early, since it takes no ``tol``.  Each class's net starts from the one
initializer, ``twin_nn._init_net`` with p planes, and the K nets are
joined into one bank along their leading axes, so ``mc_objective`` runs
one forward pass and one backprop for all classes.  The design holds the
rows sorted by class, so each class's own-plane cells are a column slice
of its net's activations, and each sample's gradient terms land at
linear indices into the (K, p, N) activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import DivergenceError, Rng, ShapeError, check_fields, mix_seed, nearest, score_rows
from .data import Dataset, DataError
from .twin_nn import TanhBank, _backprop, _design, _forward, _init_net, descend

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
        check_fields(self, at_least_one=("subnet_features", "planes"), positive=("lr",),
                     non_negative=("margin_weight", "epochs"))


@dataclass(frozen=True, eq=False)
class MulticlassTwinModel:
    """One p-plane net per class, in increasing class id order, held as
    one bank that scores them all in one pass."""

    class_ids: np.ndarray
    bank: TanhBank
    hyper: MCHyper

    def __post_init__(self):
        ids = np.asarray(self.class_ids)
        if (ids.dtype.kind != "i" or ids.shape != (len(self.bank.plane_weights),)
                or ids.size < 2 or (np.diff(ids) <= 0).any()):
            raise ShapeError("a multiclass model needs >= 2 nets, one per class id, "
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


def mc_objective(params, design: np.ndarray, counts, margin_weight: float):
    """Mean per-sample loss and its subgradients, from one forward pass.

    ``params`` is every class's net stacked into one bank, ``[[W | c], plane
    W (K, p, h), plane b (K, p)]`` in class order, and ``design`` is
    ``_design(rows)`` with the rows sorted by class: of the ints
    ``counts``, the first ``counts[0]`` columns are class 0's, the next
    ``counts[1]`` class 1's, and so on.  A class's own-plane cells are
    then a column slice of its net's (p, N) activations.  Activations are
    held as (K, p, N), one column per sample, as the design is.  Gradients
    come in the layout of ``params``; the min routes gradient to the
    argmin plane only.
    """
    phi, acts = _forward(params, design)
    np.tanh(acts, out=acts)
    abs_acts = np.abs(acts)
    n_banks, p, n = abs_acts.shape
    own_cells, lo = [], 0
    for k, count in enumerate(counts):
        own_cells.append((k, slice(None), slice(lo, lo + count)))
        lo += count
    # own and foreign min |activation| per sample; ``nearest`` takes the
    # first (lowest net, then plane) index on ties
    own_plane = nearest(np.concatenate([abs_acts[cell] for cell in own_cells], axis=1))
    for cell in own_cells:
        abs_acts[cell] = np.inf
    other_flat = nearest(abs_acts.reshape(n_banks * p, n))
    # each sample's own-plane and foreign-plane cell as a linear index into
    # the (K, p, N) activations
    cols = np.arange(n)
    own_at = (np.repeat(np.arange(n_banks) * p, counts) + own_plane) * n + cols
    other_at = other_flat * n + cols
    flat_acts, flat_abs = acts.reshape(-1), abs_acts.reshape(-1)
    own_min = np.abs(flat_acts[own_at])
    other_min = flat_abs[other_at]
    loss = float(loss_from_mins(own_min, other_min, margin_weight).mean())
    deficit = np.maximum(1.0 - other_min, 0.0)

    # each sample's own-plane and foreign-plane terms, scattered into zeros
    # with += so that a -0.0 term still lands as 0.0
    delta = np.zeros(acts.size)
    delta[own_at] += (2.0 * margin_weight / n) * flat_acts[own_at]
    delta[other_at] += (-2.0 / n) * deficit * np.sign(flat_acts[other_at])
    delta = delta.reshape(acts.shape)
    acts *= acts
    np.subtract(1.0, acts, out=acts)
    delta *= acts
    return loss, _backprop(params[1], design, phi, delta)


def mc_train(data: Dataset, hyper: MCHyper) -> MulticlassTwinModel:
    """Joint full-batch subgradient descent over all class nets."""
    if data.missing is not None:
        raise DataError("dataset has missing values; impute before training")
    class_ids = data.class_ids
    if class_ids.size < 2:
        raise DataError(f"multiclass training needs >= 2 classes, got {class_ids.size}")

    order = np.argsort(data.labels, kind="stable")
    design = _design(data.features[order])
    counts = np.bincount(np.searchsorted(class_ids, data.labels),
                         minlength=class_ids.size).tolist()
    inits = [_init_net(Rng(mix_seed(hyper.seed, c)), data.n_features, hyper.subnet_features,
                       hyper.planes) for c in class_ids]
    params, final = descend(
        [np.concatenate(arrays) for arrays in zip(*inits)],
        lambda params: mc_objective(params, design, counts, hyper.margin_weight),
        hyper.lr, hyper.epochs, 0.0, "multiclass training", None)
    # the loss is built from tanh outputs and stays finite while the
    # weights run away; a bank rejects non-finite weights and plane norms
    try:
        bank = TanhBank.trained(params, final)
    except ValueError:
        raise DivergenceError(f"multiclass training diverged by epoch {hyper.epochs}: "
                              "a weight or plane norm is non-finite",
                              epoch=hyper.epochs) from None
    return MulticlassTwinModel(class_ids, bank, hyper)


def mc_distances(model: MulticlassTwinModel, features) -> np.ndarray:
    """(N, K) matrix of per-class nearest-plane distances, (1, K) for one
    sample (M,), every class's net scored in one pass per block of rows."""
    return score_rows(features, model.bank.n_features,
                      lambda rows: model.bank.distances(rows).T)


def mc_predict(model: MulticlassTwinModel, features):
    """Class of the nearest plane group, ties going to the lowest class id:
    an int for one sample (M,), int64 (N,) for a batch (N, M).  One block
    loop (``numcore.score_rows``) scores every class's net of each block in
    one pass of the bank and picks the nearest (``numcore.nearest``)."""
    labels = score_rows(features, model.bank.n_features,
                        lambda rows: model.class_ids[nearest(model.bank.distances(rows))])
    return int(labels[0]) if np.ndim(features) == 1 else labels
