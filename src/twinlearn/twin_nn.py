"""Binary twin neural network and the regularized feed-forward baseline.

Every network here and in ``multiclass`` is one type, ``TanhBank``: K
nets of one shape, each a tanh feature map phi(x) = tanh(W x + c)
feeding p planes w_j.phi(x) + b_j.  A twin side and the rfnn baseline
are banks of one one-plane net, a twin pair a bank of two, a multiclass
model a bank of K p-plane nets.  Each net's distance to a point is that
of its nearest plane, min_j |w_j.phi(x)+b_j| / ||w_j||, with the plane
norms computed once per bank.  Each network kind has one frozen
hyperparameter type, which checks all its fields with one call of
``numcore.check_fields``.

Two independent one-plane nets are trained, one per class.  Each drives
its own class onto its plane (pre-activation 0) while pushing the other
class to a tanh output of -1 (through the positive-class net) or +1
(through the negative-class net), the least-squares analogue of the twin
SVM's unit-margin constraints.  Prediction assigns the class whose plane
is closer.

Both nets draw the same initial parameters from the model seed; the
plane is oriented by the side's margin target, which makes the two side
losses exact mirror images.  Swapping class labels together with
(c_plus, c_minus) therefore flips every prediction bit for bit.

Training and scoring both work on banks, so one product, one tanh and
one batched plane product serve all K nets.  All networks train through
``descend``, one full-batch gradient step and one forward pass per epoch;
only the twin sides stop early, on ``tol``.  Parameters have one layout,
that of a bank, ``[[W | c] (K*h, M+1), plane W (K, p, h), plane b (K,
p)]``: ``_init_net``, the one initializer, draws one net as a bank of
one, banks join along their leading axes, and the objectives
(``side_objective`` and ``rfnn_objective`` on a bank of one,
``multiclass.mc_objective`` on all K classes' nets) take it and return
their gradients in it; ``TanhBank.trained`` makes a fit's bank from it
in one step.  Each objective runs over a design matrix built once per
fit and laid out feature-major: the rows (for a twin side ``[other;
own]``) transposed to (M+1, N), with a row of ones last, so the hidden
biases fold into the weights.  An epoch is one pass over the design,
``phi = tanh([W | c] @ design)`` with one (K*h,) column per sample, and
one ``_backprop`` of the per-plane, per-sample output gradients (K, p,
N).  The two twin sides are trained apart, each over its own design and
row order, and ``TanhBank.join`` makes them one bank of two.

Prediction takes rows (N, M) in blocks (``numcore.score_rows``), so the
memory it needs beyond its output does not grow with N, and scores each
block with the one kernel, ``TanhBank.planes``: W @ rows.T gives (K*h,
n) activations and (K, p, n) plane outputs, and ``TanhBank.distances``
the (K, n) nearest-plane distances.  A model holds one bank
(``TwinNNModel``: both sides, ``RfnnModel``: its net,
``multiclass.MulticlassTwinModel``: every class), and each predict makes
one kernel call per block for all of its nets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import DivergenceError, Rng, ShapeError, check_fields, score_rows
from .data import Dataset, DataError

__all__ = [
    "TwinHyper",
    "RfnnHyper",
    "TanhBank",
    "TwinNNModel",
    "descend",
    "side_objective",
    "train_side",
    "train",
    "predict",
    "decision_values",
    "RfnnModel",
    "rfnn_objective",
    "train_rfnn_baseline",
    "rfnn_decision",
    "rfnn_predict",
]


@dataclass(frozen=True)
class TwinHyper:
    """Training hyperparameters for the binary twin network."""

    c_plus: float = 1.0
    c_minus: float = 1.0
    hidden: int = 10
    lr: float = 0.05
    epochs: int = 2000
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_fields(self, at_least_one=("hidden",), positive=("lr",),
                     non_negative=("c_plus", "c_minus", "epochs", "tol"))


@dataclass(frozen=True)
class RfnnHyper:
    """Training hyperparameters for the regularized feed-forward baseline."""

    hidden: int = 10
    lr: float = 0.05
    epochs: int = 2000
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_fields(self, at_least_one=("hidden",), positive=("lr",),
                     non_negative=("epochs", "l2"))


class TanhBank:
    """The one network type: K tanh nets of one shape on a leading bank
    axis, net k mapping x to phi(x) = tanh(W_k x + c_k) and p planes
    w_kj.phi(x) + b_kj.  Built from (K*h, M) weights, (K*h,) biases, (K, p,
    h) plane weights and (K, p) plane biases; it holds the biases as a
    (K*h, 1) column and the plane biases and norms as (K, p, 1) columns,
    so one product, one tanh and one batched plane product score a block
    of rows for all K nets.  ShapeError unless the shapes agree,
    ValueError unless the parameters and plane norms are finite and no
    norm is zero, so a distance is always defined.  ``final_loss`` holds
    each net's training loss (None where unknown, as on load)."""

    __slots__ = ("n_features", "weights", "biases", "plane_weights", "plane_biases",
                 "plane_norms", "final_loss")

    def __init__(self, weights, biases, plane_weights, plane_biases, final_loss=None):
        w, c, pw, pb = (np.ascontiguousarray(a, dtype=np.float64) for a in
                        (weights, biases, plane_weights, plane_biases))
        if (w.ndim != 2 or pw.ndim != 3 or 0 in w.shape or 0 in pw.shape
                or w.shape[0] != pw.shape[0] * pw.shape[2] or c.shape != w.shape[:1]
                or pb.shape != pw.shape[:2]):
            raise ShapeError("a bank of K tanh nets needs (K*h, M) weights, (K*h,) biases, "
                             "(K, p, h) plane weights and (K, p) plane biases")
        if not np.isfinite(np.concatenate((w.ravel(), c, pw.ravel(), pb.ravel()))).all():
            raise ValueError("tanh net parameters must be finite")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(pw, axis=2)
        if not (np.isfinite(norms).all() and norms.all()):
            bad = np.argwhere(~np.isfinite(norms) | (norms == 0)).tolist()
            raise ValueError(f"planes (net, plane) {bad} have zero or overflowing norms; "
                             "distance undefined")
        self.n_features = w.shape[1]
        self.weights, self.biases, self.plane_weights = w, c[:, None], pw
        self.plane_biases, self.plane_norms = pb[:, :, None], norms[:, :, None]
        self.final_loss = (None,) * len(pw) if final_loss is None else tuple(final_loss)

    @classmethod
    def trained(cls, params, final_loss: float) -> TanhBank:
        """The bank of trained parameters ``[[W | c], plane W, plane b]``,
        every net carrying the fit's ``final_loss``."""
        hidden, pw, pb = params
        return cls(hidden[:, :-1], hidden[:, -1], pw, pb, (final_loss,) * len(pw))

    @classmethod
    def join(cls, banks) -> TanhBank:
        """The nets of ``banks`` as one bank, in order; ShapeError unless
        they share M, h and p."""
        shapes = {(bank.n_features, *bank.plane_weights.shape[:0:-1]) for bank in banks}
        if len(shapes) != 1:
            raise ShapeError(f"nets of (M, h, p) {sorted(shapes)} cannot share a bank: "
                             "their input widths, hidden widths and plane counts must agree")
        return cls(np.vstack([bank.weights for bank in banks]),
                   np.concatenate([bank.biases[:, 0] for bank in banks]),
                   np.concatenate([bank.plane_weights for bank in banks]),
                   np.concatenate([bank.plane_biases[:, :, 0] for bank in banks]),
                   sum((bank.final_loss for bank in banks), ()))

    def planes(self, rows) -> np.ndarray:
        """Plane pre-activations (K, p, n) of a block of rows (n, M), one
        sample (M,) as a block of one, computed feature-major: phi = W @
        rows.T is (K*h, n), one column per row, and every step after the
        products runs in place along n, the long axis.  BLAS reads the
        transposed rows without a copy, and the plane product is one
        batched matmul over the K nets' (h, n) slices of phi."""
        phi = self.weights @ (rows.T if rows.ndim == 2 else rows[:, None])
        phi += self.biases
        np.tanh(phi, out=phi)
        k, p, h = self.plane_weights.shape
        z = self.plane_weights @ phi.reshape(k, h, phi.shape[1])
        z += self.plane_biases
        return z

    def distances(self, rows) -> np.ndarray:
        """Nearest-plane distances (K, n) of a block of rows (see
        ``planes``): the elementwise minimum over each net's p rows of
        normalized distances, taken in place in its first row, so a
        one-plane net takes no minimum."""
        d = self.planes(rows)
        np.abs(d, out=d)
        d /= self.plane_norms
        closest = d[:, 0]
        for plane in range(1, d.shape[1]):
            np.minimum(closest, d[:, plane], out=closest)
        return closest


@dataclass(frozen=True, eq=False)
class TwinNNModel:
    """Trained pair of class networks, the plus then the minus side's net
    as one bank of two, which scores both in one pass; immutable and safe
    to share."""

    bank: TanhBank
    hyper: TwinHyper


def _design(*blocks: np.ndarray) -> np.ndarray:
    """Row blocks stacked in order and laid out feature-major: one
    C-contiguous (M+1, N) array, the rows' transpose with a row of ones
    last, so that one product ``[W | c] @ design`` applies the hidden
    weights and biases to every sample."""
    rows = np.vstack(blocks)
    design = np.empty((rows.shape[1] + 1, rows.shape[0]))
    design[:-1] = rows.T
    design[-1] = 1.0
    return design


def _forward(params, design: np.ndarray):
    """(phi (K, h, N), plane pre-activations (K, p, N)) of a bank ``[[W |
    c], plane W, plane b]`` over a feature-major design: phi = tanh([W |
    c] @ design), one product for all K nets and one column per sample,
    then one batched plane product over the nets' (h, N) slices."""
    hidden, pw, pb = params
    phi = hidden @ design
    np.tanh(phi, out=phi)
    k, _, h = pw.shape
    phi = phi.reshape(k, h, design.shape[1])
    return phi, pw @ phi + pb[:, :, None]


def _backprop(plane_w: np.ndarray, design: np.ndarray, phi: np.ndarray, delta: np.ndarray):
    """Gradients [[W | c], plane W, plane b] of a bank's per-plane,
    per-sample output gradients ``delta`` (K, p, N) pushed back through
    its planes ``plane_w`` (K, p, h) and ``phi = tanh([W | c] @ design)``
    (K, h, N), which it overwrites with (1 - phi^2) * (plane_w.T @ delta)
    net by net.  The hidden gradient of all K nets is one product.

    Every per-sample array runs along N, the long axis.  With one plane
    (twin sides, rfnn) the product is two in-place broadcasts along N, not
    a K = 1 matmul: numpy spends several times longer on an (N, 1) x (1, h)
    product, or on a broadcast whose inner loop runs over the short h axis,
    than on the arithmetic.  Working in place, an epoch allocates one
    (K, h, N) array, phi, for one-plane nets; at a few thousand rows
    malloc can hand such arrays back as fresh pages on every epoch, and a
    page fault per 4 KB then costs more than the arithmetic."""
    d_plane = delta @ phi.transpose(0, 2, 1)
    phi *= phi
    np.subtract(1.0, phi, out=phi)
    plane_t = plane_w.transpose(0, 2, 1)
    if delta.shape[1] == 1:
        phi *= delta
        phi *= plane_t
    else:
        phi *= plane_t @ delta
    return [phi.reshape(-1, design.shape[1]) @ design.T, d_plane, delta.sum(axis=2)]


def side_objective(params, design: np.ndarray, n_other: int, c: float, target: float):
    """Loss and gradients of one side, from one forward pass over its design.

    ``params`` is a bank of one one-plane net, ``[[W | c], plane W (1, 1,
    h), plane b (1, 1)]``, and ``design`` is ``_design(other, own)``, whose
    first ``n_other`` rows are the other class's.  The loss is the margin
    term, the mean squared gap between tanh outputs on ``other`` rows and
    ``target`` (-1 for the positive side, +1 for the negative side), plus
    the proximal term, ``c`` times the mean squared pre-activation on
    ``own`` rows, each halved.  Gradients come in the layout of ``params``.
    """
    phi, out = _forward(params, design)
    out = out[0, 0]
    y = np.tanh(out[:n_other])
    r = y - target
    z = out[n_other:]
    n_own = design.shape[1] - n_other
    loss = float(r @ r) / (2.0 * n_other) + c * float(z @ z) / (2.0 * n_own)
    delta = np.concatenate((r * (1.0 - y * y) / n_other, (c / n_own) * z))
    return loss, _backprop(params[1], design, phi, delta.reshape(1, 1, -1))


def _init_net(rng: Rng, n_features: int, hidden: int, planes: int) -> list:
    """Initial parameters of one net as a bank of one, ``[[W | c] (h,
    M+1), plane W (1, p, h), plane b (1, p)]``, drawn in this order: W then
    c uniform in +-1/sqrt(M), each plane's weights uniform in +-1/sqrt(h)
    and redrawn until their norm is non-zero, then the plane biases, also
    in +-1/sqrt(h).  Every trained model starts from this stream, so the
    order must not change."""
    bound = 1.0 / np.sqrt(n_features)
    w = rng.uniform(-bound, bound, hidden * n_features).reshape(hidden, n_features)
    c = rng.uniform(-bound, bound, hidden)
    bound = 1.0 / np.sqrt(hidden)
    plane_w = np.empty((1, planes, hidden))
    for j in range(planes):
        while True:
            plane_w[0, j] = rng.uniform(-bound, bound, hidden)
            if np.linalg.norm(plane_w[0, j]) > 0:
                break
    return [np.column_stack((w, c)), plane_w, rng.uniform(-bound, bound, planes)[None]]


def descend(params, objective, lr: float, epochs: int, tol: float, who: str,
            side: str | None):
    """Full-batch gradient descent: ``epochs`` steps ``p - lr * g`` over the
    list of arrays ``params``.

    ``objective(params)`` returns ``(loss, grads)`` from one forward pass,
    grads in parameter order; it runs once per epoch plus once for the
    final loss.  With ``tol > 0`` descent stops after the first step whose
    largest absolute change falls below ``tol``.  A non-finite loss raises
    DivergenceError naming ``side`` and the epoch (``who`` opens its
    message).  Returns (params, final loss).
    """
    # overflow past float range shows up as a non-finite loss
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = objective(params)
        for epoch in range(epochs):
            if not np.isfinite(loss):
                raise DivergenceError(f"{who} diverged at epoch {epoch}: loss is non-finite",
                                      side=side, epoch=epoch)
            params = [p - lr * g for p, g in zip(params, grads)]
            small = tol > 0 and lr * max(float(np.max(np.abs(g))) for g in grads) < tol
            loss, grads = objective(params)
            if small:
                break
    if not np.isfinite(loss):
        raise DivergenceError(f"{who} diverged at epoch {epochs}: loss is non-finite",
                              side=side, epoch=epochs)
    return params, loss


def class_rows(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Split a {+1,-1}-labeled dataset into (A, B) feature blocks."""
    ids = set(data.class_ids.tolist())
    if not ids <= {-1, 1}:
        raise DataError(
            f"twin training needs labels in {{+1,-1}}, got {sorted(ids)}; "
            "relabel with make_imbalanced first"
        )
    if ids != {-1, 1}:
        raise DataError(f"both classes must be present, got only {sorted(ids)}")
    if data.missing is not None:
        raise DataError("dataset has missing values; impute before training")
    a = data.features[data.labels == 1]
    b = data.features[data.labels == -1]
    return a, b


def train_side(data: Dataset, hyper: TwinHyper, side: str) -> TanhBank:
    """One side of the twin network, ``"plus"`` (class +1's net) or
    ``"minus"``, trained alone and bit-identical to that side of
    ``train(data, hyper)``, as a bank of one.

    The side starts from the model seed's one initial draw, its head sign
    oriented by the side's margin target, and stops early when the applied
    parameter update falls below ``hyper.tol`` in infinity norm.
    """
    a, b = class_rows(data)
    own, other, c, target = {"plus": (a, b, hyper.c_plus, -1.0),
                             "minus": (b, a, hyper.c_minus, 1.0)}[side]
    hidden, plane_w, plane_b = _init_net(Rng(hyper.seed), data.n_features, hyper.hidden, 1)
    design = _design(other, own)
    params, final = descend(
        [hidden, -target * plane_w, -target * plane_b],
        lambda params: side_objective(params, design, other.shape[0], c, target),
        hyper.lr, hyper.epochs, hyper.tol, f"{side} side", side)
    return TanhBank.trained(params, final)


def train(data: Dataset, hyper: TwinHyper) -> TwinNNModel:
    """Full-batch gradient descent of both side losses, independently.

    Deterministic in ``hyper.seed``: both sides start from the same
    initial draw (see ``train_side``).
    """
    return TwinNNModel(TanhBank.join([train_side(data, hyper, "plus"),
                                      train_side(data, hyper, "minus")]), hyper)


def decision_values(model: TwinNNModel, x):
    """Per-side absolute normalized plane distances |w.phi(x)+b| / ||w||
    for one sample (M,) (two floats) or a batch (N, M) (two (N,) arrays),
    both sides scored in one pass per block of rows."""
    d = score_rows(x, model.bank.n_features, lambda rows: model.bank.distances(rows).T)
    if np.ndim(x) == 1:
        return float(d[0, 0]), float(d[0, 1])
    return d[:, 0], d[:, 1]


def predict(model: TwinNNModel, x):
    """Label +1 where the positive plane is at least as close, else -1: an
    int for one sample (M,), int64 (N,) for a batch (N, M).  One block loop
    (``numcore.score_rows``) scores both sides of each block in one pass
    of their bank; at a near-tie a row's label can differ between a
    one-row call and a batch."""
    def block(rows):
        d_plus, d_minus = model.bank.distances(rows)
        return np.where(d_plus <= d_minus, 1, -1)

    labels = score_rows(x, model.bank.n_features, block)
    return int(labels[0]) if np.ndim(x) == 1 else labels


@dataclass(frozen=True, eq=False)
class RfnnModel:
    """One-hidden-layer tanh network with a linear output, the one plane
    of a bank of one, trained L2-regularized under ``hyper``."""

    bank: TanhBank
    hyper: RfnnHyper


def rfnn_decision(model: RfnnModel, x) -> np.ndarray | float:
    """Raw network output, the net's one plane: a float for one sample
    (M,), (N,) for a batch (N, M), scored in row blocks by
    ``numcore.score_rows``."""
    z = score_rows(x, model.bank.n_features, lambda rows: model.bank.planes(rows)[0, 0])
    return float(z[0]) if np.ndim(x) == 1 else z


def rfnn_predict(model: RfnnModel, x):
    """Sign of the output, ties at exactly zero going to +1: an int for one
    sample (M,), int64 (N,) for a batch (N, M)."""
    z = rfnn_decision(model, x)
    labels = np.where(np.asarray(z) >= 0, 1, -1)
    return int(labels) if np.ndim(x) == 1 else labels


def rfnn_objective(params, design: np.ndarray, targets: np.ndarray, l2: float):
    """Loss and gradients of the baseline from one forward pass.

    ``params`` is a bank of one one-plane net, ``[[W | c], plane W (1, 1,
    h), plane b (1, 1)]``, and ``design`` is ``_design(rows)``.  The loss
    is half the mean squared error to ``targets`` plus l2/2 times the
    squared weight norms.  Biases are not penalized, so under extreme l2
    the output collapses to the target mean.  Gradients come in the layout
    of ``params``.
    """
    hidden, pw, _ = params
    phi, out = _forward(params, design)
    r = out[0, 0] - targets
    n = design.shape[1]
    hw = hidden[:, :-1]
    penalty = 0.5 * l2 * (float(np.sum(hw**2)) + float(np.vdot(pw, pw)))
    loss = float(r @ r) / (2.0 * n) + penalty
    dhidden, dw, db = _backprop(pw, design, phi, (r / n).reshape(1, 1, -1))
    dhidden[:, :-1] += l2 * hw
    return loss, [dhidden, dw + l2 * pw, db]


def train_rfnn_baseline(data: Dataset, hidden: int = RfnnHyper.hidden,
                        lr: float = RfnnHyper.lr, epochs: int = RfnnHyper.epochs,
                        l2: float = RfnnHyper.l2, seed: int = RfnnHyper.seed) -> RfnnModel:
    """Train the regularized feed-forward baseline on {+1,-1} labels, from
    the ``RfnnHyper`` that its keyword arguments make."""
    hyper = RfnnHyper(hidden, lr, epochs, l2, seed)
    class_rows(data)  # validates binary +-1 labels and completeness
    design = _design(data.features)
    targets = data.labels.astype(np.float64)
    params, final = descend(
        _init_net(Rng(hyper.seed), data.n_features, hyper.hidden, 1),
        lambda params: rfnn_objective(params, design, targets, hyper.l2),
        hyper.lr, hyper.epochs, 0.0, "rfnn", "rfnn")
    return RfnnModel(TanhBank.trained(params, final), hyper)
