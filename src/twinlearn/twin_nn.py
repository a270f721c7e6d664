"""Binary twin neural network and the regularized feed-forward baseline.

Two independent one-hidden-layer tanh networks are trained, one per
class.  Each network drives its own class onto the output hyperplane
(pre-activation 0) while pushing the other class to a tanh output of -1
(through the positive-class network) or +1 (through the negative-class
network), the least-squares analogue of the twin SVM's unit-margin
constraints.  Prediction assigns the class whose hyperplane is closer in
normalized absolute distance |w.phi(x)+b| / ||w||.

Both networks draw the same initial parameters from the model seed; the
output head is oriented by the side's margin target, which makes the two
side losses exact mirror images.  Swapping class labels together with
(c_plus, c_minus) therefore flips every prediction bit for bit.

All three networks (both twin sides, the rfnn baseline and the multiclass
banks) train through ``descend``, one full-batch gradient step and one
forward pass per epoch; only the twin sides stop early, on ``tol``.

Each twin side and the rfnn baseline build their design matrix once per
fit: the side's rows stacked as ``[other; own]`` (rfnn: all rows) with a
column of ones appended, so the hidden biases fold into the weights as
``[W | c]``.  An epoch is then one pass over the design:
``phi = tanh(design @ [W | c].T)``, one backprop term
``t = (1 - phi**2) * outer(delta, w)`` and one product ``t.T @ design``
that gives the hidden weight and bias gradients together.  The two sides
are never stacked into one matrix, so each keeps its own row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import DivergenceError, Rng, ShapeError
from .data import Dataset, DataError

__all__ = [
    "TwinHyper",
    "HiddenLayer",
    "HeadParams",
    "SideNet",
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
class HiddenLayer:
    """tanh feature map: x -> tanh(W x + c) with W of shape (h, M)."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ShapeError("hidden layer needs (h, M) weights and (h,) biases")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("hidden layer parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def width(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def map(self, x: np.ndarray) -> np.ndarray:
        """Feature map of one sample (M,) or a batch (N, M)."""
        return np.tanh(x @ self.weights.T + self.biases)


@dataclass(frozen=True, eq=False)
class HeadParams:
    """Output hyperplane in the hidden feature space."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise ShapeError("head weight must be 1-D")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.b)):
            raise ValueError("head parameters must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.w))


@dataclass(frozen=True, eq=False)
class SideNet:
    """One class's network: feature map plus output hyperplane."""

    hidden: HiddenLayer
    head: HeadParams
    final_loss: float | None = None

    def preactivation(self, x: np.ndarray) -> np.ndarray | float:
        z = self.hidden.map(x) @ self.head.w + self.head.b
        return float(z) if np.ndim(x) == 1 else z


@dataclass(frozen=True, eq=False)
class TwinNNModel:
    """Trained pair of class networks; immutable and safe to share."""

    plus: SideNet
    minus: SideNet
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


def _unfold(hidden: np.ndarray) -> HiddenLayer:
    """The hidden layer of a trained (h, M + 1) ``[W | c]`` matrix."""
    return HiddenLayer(np.ascontiguousarray(hidden[:, :-1]), hidden[:, -1].copy())


def _backprop(w: np.ndarray, design: np.ndarray, phi: np.ndarray, delta: np.ndarray):
    """Gradients [hidden [W | c], head w, head b] of per-sample output
    gradients ``delta`` pushed back through ``phi = tanh(design @ [W | c].T)``
    and a head ``w``."""
    t = (1.0 - phi * phi) * np.outer(delta, w)
    return [t.T @ design, phi.T @ delta, float(delta.sum())]


def _side_objective(params, design: np.ndarray, n_other: int, c: float, target: float):
    """Unchecked core of side_objective over params [[W | c], w, b] and a
    ``_design(other, own)`` whose first ``n_other`` rows are the other
    class's."""
    hidden, w, b = params
    phi = np.tanh(design @ hidden.T)
    out = phi @ w + b
    y = np.tanh(out[:n_other])
    r = y - target
    z = out[n_other:]
    n_own = design.shape[0] - n_other
    loss = float(r @ r) / (2.0 * n_other) + c * float(z @ z) / (2.0 * n_own)
    delta = np.concatenate((r * (1.0 - y * y) / n_other, (c / n_own) * z))
    return loss, _backprop(w, design, phi, delta)


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
    hw, hb, w, b = params
    loss, (dhidden, dw, db) = _side_objective([_fold(hw, hb), w, b], _design(other, own),
                                              other.shape[0], c, target)
    return loss, [dhidden[:, :-1], dhidden[:, -1], dw, db]


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
    rng = Rng(hyper.seed)
    hw, hb, w, head_b = _draw_initial_params(rng, hyper.hidden, data.n_features)
    sides = []
    for name, own, other, c, target, sign in (("plus", a, b, hyper.c_plus, -1.0, 1.0),
                                              ("minus", b, a, hyper.c_minus, 1.0, -1.0)):
        design = _design(other, own)
        (hidden, head_w, bias), final = descend(
            [_fold(hw, hb), sign * w, sign * head_b],
            lambda params: _side_objective(params, design, other.shape[0], c, target),
            hyper.lr, hyper.epochs, hyper.tol, f"{name} side", name)
        sides.append(SideNet(_unfold(hidden), HeadParams(head_w, bias), final_loss=final))
    return TwinNNModel(*sides, hyper, data.n_features)


def _side_distance(side: SideNet, x: np.ndarray):
    norm = side.head.norm
    if norm == 0.0:
        raise ValueError("head weight vector has zero norm; distance undefined")
    return np.abs(side.preactivation(x)) / norm


def decision_values(model: TwinNNModel, x):
    """Per-side absolute normalized plane distances |w.phi(x)+b| / ||w||
    for one sample (M,) or a batch (N, M)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.n_features:
        raise ShapeError(f"expected {model.n_features} features, got {x.shape[-1]}")
    return _side_distance(model.plus, x), _side_distance(model.minus, x)


def predict(model: TwinNNModel, x):
    """Label +1 where the positive plane is at least as close, else -1."""
    d_plus, d_minus = decision_values(model, x)
    labels = np.where(d_plus <= d_minus, 1, -1)
    return int(labels) if np.ndim(x) == 1 else labels.astype(np.int64)


@dataclass(frozen=True, eq=False)
class RfnnModel:
    """One-hidden-layer tanh network with a linear output, L2-regularized."""

    hidden: HiddenLayer
    w: np.ndarray
    b: float
    l2: float
    lr: float
    epochs: int
    seed: int
    final_loss: float | None = None

    @property
    def n_features(self) -> int:
        return self.hidden.n_features


def rfnn_decision(model: RfnnModel, x) -> np.ndarray | float:
    """Raw network output for one sample or a batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.n_features:
        raise ShapeError(f"expected {model.n_features} features, got {x.shape[-1]}")
    z = model.hidden.map(x) @ model.w + model.b
    return float(z) if x.ndim == 1 else z


def rfnn_predict(model: RfnnModel, x):
    """Sign of the output; ties at exactly zero go to +1."""
    z = rfnn_decision(model, x)
    labels = np.where(np.asarray(z) >= 0, 1, -1)
    return int(labels) if np.ndim(x) == 1 else labels.astype(np.int64)


def _rfnn_objective(params, design: np.ndarray, targets: np.ndarray, l2: float):
    """Unchecked core of rfnn_objective over params [[W | c], w, b] and a
    ``_design(rows)``."""
    hidden, w, b = params
    phi = np.tanh(design @ hidden.T)
    r = phi @ w + b - targets
    hw = hidden[:, :-1]
    penalty = 0.5 * l2 * (float(np.sum(hw**2)) + float(w @ w))
    loss = float(r @ r) / (2.0 * design.shape[0]) + penalty
    dhidden, dw, db = _backprop(w, design, phi, r / design.shape[0])
    dhidden[:, :-1] += l2 * hw
    return loss, [dhidden, dw + l2 * w, db]


def rfnn_objective(params, rows: np.ndarray, targets: np.ndarray, l2: float):
    """Loss and gradients of the baseline from one forward pass.

    ``params`` is [hidden W, hidden c, output w, output b].  The loss is
    half the mean squared error to ``targets`` plus l2/2 times the squared
    weight norms.  Biases are not penalized, so under extreme l2 the
    output collapses to the target mean.
    """
    hw, hb, w, b = params
    loss, (dhidden, dw, db) = _rfnn_objective([_fold(hw, hb), w, b], _design(rows),
                                              targets, l2)
    return loss, [dhidden[:, :-1], dhidden[:, -1], dw, db]


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
    hw, hb, w, b = _draw_initial_params(Rng(seed), hidden, data.n_features)
    (weights, w, b), final = descend(
        [_fold(hw, hb), w, b],
        lambda params: _rfnn_objective(params, design, targets, l2),
        lr, epochs, 0.0, "rfnn", "rfnn")
    return RfnnModel(_unfold(weights), w, b, l2, lr, epochs, seed, final_loss=final)
