"""Binary twin neural network and the regularized feed-forward baseline.

Every network here and in ``multiclass`` is one ``TanhNet``: a tanh
feature map phi(x) = tanh(W x + c) feeding p planes w_j.phi(x) + b_j.  A
twin side and the rfnn baseline are one-plane nets; a multiclass bank
is a p-plane net.  Each net's distance to a point is that of its nearest
plane, min_j |w_j.phi(x)+b_j| / ||w_j||, with the plane norms computed
once per net.

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

All networks train through ``descend``, one full-batch gradient step and
one forward pass per epoch; only the twin sides stop early, on ``tol``.
Parameters train as ``[[W | c], plane W (p, h), plane b (p,)]`` over a
design matrix built once per fit: the rows (for a twin side ``[other;
own]``) with a column of ones appended, so the hidden biases fold into
the weights.  An epoch is one pass over the design,
``phi = tanh(design @ [W | c].T)``, and one ``_backprop`` of the
per-sample, per-plane output gradients.  The two sides are never stacked
into one matrix, so each keeps its own row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numcore import DivergenceError, Rng, ShapeError
from .data import Dataset, DataError

__all__ = [
    "TwinHyper",
    "TanhNet",
    "TwinNNModel",
    "descend",
    "side_objective",
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
        if self.c_plus < 0 or self.c_minus < 0:
            raise ValueError("c_plus and c_minus must be non-negative")
        if self.hidden < 1:
            raise ValueError(f"hidden width must be >= 1, got {self.hidden}")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True, eq=False)
class TanhNet:
    """tanh feature map phi(x) = tanh(W x + c) feeding p planes
    w_j.phi(x) + b_j; immutable, validated once, with its plane norms
    computed once.  Parameters must be finite and every plane norm finite
    and non-zero, so ``distance`` is always defined."""

    weights: np.ndarray  # W, (h, M)
    biases: np.ndarray  # c, (h,)
    plane_weights: np.ndarray  # (p, h)
    plane_biases: np.ndarray  # (p,)
    final_loss: float | None = None
    plane_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w, c, pw, pb = (np.asarray(a, dtype=np.float64) for a in
                        (self.weights, self.biases, self.plane_weights, self.plane_biases))
        if (w.ndim != 2 or pw.ndim != 2 or 0 in w.shape or 0 in pw.shape
                or c.shape != w.shape[:1] or pw.shape[1] != w.shape[0]
                or pb.shape != pw.shape[:1]):
            raise ShapeError("a tanh net needs (h, M) weights, (h,) biases, "
                             "(p, h) plane weights and (p,) plane biases")
        if not all(np.isfinite(a).all() for a in (w, c, pw, pb)):
            raise ValueError("tanh net parameters must be finite")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(pw, axis=1)
        if not (np.isfinite(norms).all() and norms.all()):
            bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0)).tolist()
            raise ValueError(f"planes {bad} have zero or overflowing norms; distance undefined")
        for name, value in (("weights", w), ("biases", c), ("plane_weights", pw),
                            ("plane_biases", pb), ("plane_norms", norms)):
            object.__setattr__(self, name, value)

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def planes(self, x: np.ndarray) -> np.ndarray:
        """Plane pre-activations: (p,) for one sample (M,), (N, p) for a batch."""
        return np.tanh(x @ self.weights.T + self.biases) @ self.plane_weights.T + self.plane_biases

    def distance(self, x: np.ndarray):
        """Nearest-plane distance min_j |w_j.phi(x) + b_j| / ||w_j||, on raw
        pre-activations, so it is invariant to positive rescaling of any
        plane: a scalar for one sample (M,), (N,) for a batch."""
        d = np.abs(self.planes(x))
        d /= self.plane_norms  # in place: a large batch holds one array less
        return d.min(axis=-1)


@dataclass(frozen=True, eq=False)
class TwinNNModel:
    """Trained pair of class networks; immutable and safe to share."""

    plus: TanhNet
    minus: TanhNet
    hyper: TwinHyper
    n_features: int


def _check_rows(rows: np.ndarray, name: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ShapeError(f"{name} must be a non-empty (N, M) array")
    return rows


def _design(*blocks: np.ndarray) -> np.ndarray:
    """Row blocks stacked in order, with a column of ones appended so that
    one product with ``[W | c]`` applies the hidden weights and biases."""
    rows = np.vstack(blocks)
    return np.column_stack((rows, np.ones(rows.shape[0])))


def _fold(hw: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Hidden weights (h, M) and biases (h,) as one (h, M + 1) matrix."""
    return np.column_stack((hw, hb))


def _one_plane(hw: np.ndarray, hb: np.ndarray, w: np.ndarray, b) -> list:
    """Trainable ``[[W | c], plane W (1, h), plane b (1,)]`` of a one-plane
    net given as hidden W, hidden c, head w (h,) and head b."""
    return [_fold(hw, hb), np.reshape(w, (1, -1)), np.reshape(b, (1,))]


def _net(params, final_loss: float | None = None) -> TanhNet:
    """The net of trained ``[[W | c], plane W, plane b]``."""
    hidden, pw, pb = params
    return TanhNet(np.ascontiguousarray(hidden[:, :-1]), hidden[:, -1].copy(), pw, pb,
                   final_loss)


def _forward(params, design: np.ndarray):
    """(phi, plane pre-activations (N, p)) of ``[[W | c], plane W, plane b]``
    over a design with the ones column appended."""
    hidden, pw, pb = params
    phi = np.tanh(design @ hidden.T)
    return phi, phi @ pw.T + pb


def _backprop(plane_w: np.ndarray, design: np.ndarray, phi: np.ndarray, delta: np.ndarray):
    """Gradients [[W | c], plane W, plane b] of per-sample, per-plane output
    gradients ``delta`` (N, p) pushed back through the planes ``plane_w``
    and ``phi = tanh(design @ [W | c].T)``."""
    t = (1.0 - phi * phi) * (delta @ plane_w)
    return [t.T @ design, delta.T @ phi, delta.sum(axis=0)]


def _side_objective(params, design: np.ndarray, n_other: int, c: float, target: float):
    """Unchecked core of side_objective over a one-plane net's
    ``[[W | c], plane W, plane b]`` and a ``_design(other, own)`` whose
    first ``n_other`` rows are the other class's."""
    phi, out = _forward(params, design)
    out = out[:, 0]
    y = np.tanh(out[:n_other])
    r = y - target
    z = out[n_other:]
    n_own = design.shape[0] - n_other
    loss = float(r @ r) / (2.0 * n_other) + c * float(z @ z) / (2.0 * n_own)
    delta = np.concatenate((r * (1.0 - y * y) / n_other, (c / n_own) * z))
    return loss, _backprop(params[1], design, phi, delta.reshape(-1, 1))


def side_objective(params, own: np.ndarray, other: np.ndarray, c: float,
                   target: float):
    """Loss and gradients of one side, from one forward pass over the
    stacked ``other`` and ``own`` rows.

    ``params`` is [hidden W (h, M), hidden c (h,), head w (h,), head b].
    The loss is the margin term, the mean squared gap between tanh
    outputs on ``other`` rows and ``target`` (-1 for the positive side,
    +1 for the negative side), plus the proximal term, ``c`` times the
    mean squared pre-activation on ``own`` rows, each halved.  Gradients
    come in parameter order.
    """
    own = _check_rows(own, "own_rows")
    other = _check_rows(other, "other_rows")
    loss, (dhidden, dw, db) = _side_objective(_one_plane(*params), _design(other, own),
                                              other.shape[0], c, target)
    return loss, [dhidden[:, :-1], dhidden[:, -1], dw[0], float(db[0])]


def _uniform_init(rng: Rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    n = int(np.prod(shape))
    return rng.uniform(-bound, bound, n).reshape(shape)


def _draw_initial_params(rng: Rng, hidden: int, n_features: int):
    """One shared parameter draw used to initialize both sides."""
    hw = _uniform_init(rng, (hidden, n_features), n_features)
    hb = _uniform_init(rng, (hidden,), n_features)
    while True:
        w = _uniform_init(rng, (hidden,), hidden)
        if np.linalg.norm(w) > 0:
            break
    b = float(rng.uniform(-1.0 / np.sqrt(hidden), 1.0 / np.sqrt(hidden)))
    return hw, hb, w, b


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


def train(data: Dataset, hyper: TwinHyper) -> TwinNNModel:
    """Full-batch gradient descent of both side losses, independently.

    Deterministic in ``hyper.seed``: both sides share one initial draw,
    with the head sign oriented by the side's margin target.  Stops early
    when the applied parameter update falls below ``hyper.tol`` in
    infinity norm.
    """
    a, b = class_rows(data)
    hw, hb, w, head_b = _draw_initial_params(Rng(hyper.seed), hyper.hidden, data.n_features)
    sides = []
    for name, own, other, c, target, sign in (("plus", a, b, hyper.c_plus, -1.0, 1.0),
                                              ("minus", b, a, hyper.c_minus, 1.0, -1.0)):
        design = _design(other, own)
        params, final = descend(
            _one_plane(hw, hb, sign * w, sign * head_b),
            lambda params: _side_objective(params, design, other.shape[0], c, target),
            hyper.lr, hyper.epochs, hyper.tol, f"{name} side", name)
        sides.append(_net(params, final))
    return TwinNNModel(*sides, hyper, data.n_features)


def decision_values(model: TwinNNModel, x):
    """Per-side absolute normalized plane distances |w.phi(x)+b| / ||w||
    for one sample (M,) or a batch (N, M)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.n_features:
        raise ShapeError(f"expected {model.n_features} features, got {x.shape[-1]}")
    return model.plus.distance(x), model.minus.distance(x)


def predict(model: TwinNNModel, x):
    """Label +1 where the positive plane is at least as close, else -1."""
    d_plus, d_minus = decision_values(model, x)
    labels = np.where(d_plus <= d_minus, 1, -1)
    return int(labels) if np.ndim(x) == 1 else labels.astype(np.int64)


@dataclass(frozen=True, eq=False)
class RfnnModel:
    """One-hidden-layer tanh network with a linear output, the one plane
    of ``net``, L2-regularized."""

    net: TanhNet
    l2: float
    lr: float
    epochs: int
    seed: int

    @property
    def n_features(self) -> int:
        return self.net.n_features


def rfnn_decision(model: RfnnModel, x) -> np.ndarray | float:
    """Raw network output for one sample or a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.n_features:
        raise ShapeError(f"expected {model.n_features} features, got {x.shape[-1]}")
    z = model.net.planes(x)[..., 0]
    return float(z) if x.ndim == 1 else z


def rfnn_predict(model: RfnnModel, x):
    """Sign of the output; ties at exactly zero go to +1."""
    z = rfnn_decision(model, x)
    labels = np.where(np.asarray(z) >= 0, 1, -1)
    return int(labels) if np.ndim(x) == 1 else labels.astype(np.int64)


def _rfnn_objective(params, design: np.ndarray, targets: np.ndarray, l2: float):
    """Unchecked core of rfnn_objective over a one-plane net's
    ``[[W | c], plane W, plane b]`` and a ``_design(rows)``."""
    hidden, pw, _ = params
    phi, out = _forward(params, design)
    r = out[:, 0] - targets
    hw = hidden[:, :-1]
    penalty = 0.5 * l2 * (float(np.sum(hw**2)) + float(np.vdot(pw, pw)))
    loss = float(r @ r) / (2.0 * design.shape[0]) + penalty
    dhidden, dw, db = _backprop(pw, design, phi, (r / design.shape[0]).reshape(-1, 1))
    dhidden[:, :-1] += l2 * hw
    return loss, [dhidden, dw + l2 * pw, db]


def rfnn_objective(params, rows: np.ndarray, targets: np.ndarray, l2: float):
    """Loss and gradients of the baseline from one forward pass.

    ``params`` is [hidden W, hidden c, output w, output b].  The loss is
    half the mean squared error to ``targets`` plus l2/2 times the squared
    weight norms.  Biases are not penalized, so under extreme l2 the
    output collapses to the target mean.
    """
    loss, (dhidden, dw, db) = _rfnn_objective(_one_plane(*params), _design(rows), targets, l2)
    return loss, [dhidden[:, :-1], dhidden[:, -1], dw[0], float(db[0])]


def train_rfnn_baseline(data: Dataset, hidden: int = 10, lr: float = 0.05,
                        epochs: int = 2000, l2: float = 1e-4,
                        seed: int = 0) -> RfnnModel:
    """Train the regularized feed-forward baseline on {+1,-1} labels."""
    class_rows(data)  # validates binary +-1 labels and completeness
    if hidden < 1:
        raise ValueError(f"hidden width must be >= 1, got {hidden}")
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if l2 < 0:
        raise ValueError(f"l2 must be non-negative, got {l2}")
    design = _design(data.features)
    targets = data.labels.astype(np.float64)
    params, final = descend(
        _one_plane(*_draw_initial_params(Rng(seed), hidden, data.n_features)),
        lambda params: _rfnn_objective(params, design, targets, l2),
        lr, epochs, 0.0, "rfnn", "rfnn")
    return RfnnModel(_net(params, final), l2, lr, epochs, seed)
