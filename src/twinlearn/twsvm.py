"""Reference twin SVM solved through its two box-constrained dual QPs.

The positive plane solves  max_a  e'a - a' G (H'H + rI)^-1 G' a / 2  over
0 <= a <= c1 with H = [A, e], G = [B, e], recovering u = -(H'H+rI)^-1 G'a;
the negative plane is the mirror problem over 0 <= b <= c2 recovering
v = +(G'G+rI)^-1 H'b.  Both boxes are handled by projected gradient
ascent with a fixed 1/L step, L being the Gershgorin row-sum bound of the
quadratic term, which makes the objective non-decreasing.

A ridge defaulting to 1e-6*trace/dim keeps the Gram inversions well posed
(they are singular whenever a class has fewer samples than features + 1).
Kernel problems build H and G from kernel rows against all training
points and keep those points as the expansion support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import (
    ConvergenceError,
    ShapeError,
    as_matrix,
    default_ridge,
    solve_spd,
)

__all__ = [
    "KernelSpec",
    "TwsvmProblem",
    "TwsvmModel",
    "kernel_matrix",
    "dual_matrices",
    "dual_objective",
    "box_kkt_residual",
    "projected_gradient_box_max",
    "solve_dual",
    "plane_norms",
    "twsvm_distances",
    "twsvm_predict",
]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: "linear" or "rbf" with bandwidth gamma."""

    kind: str = "linear"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not self.gamma > 0:
                raise ValueError(f"rbf kernel needs gamma > 0, got {self.gamma!r}")
        elif self.gamma is not None:
            raise ValueError("gamma is only meaningful for the rbf kernel")


def kernel_matrix(spec: KernelSpec, x, y) -> np.ndarray:
    """Gram block K[i, j] = k(x_i, y_j)."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"feature dims differ: {x.shape[1]} vs {y.shape[1]}")
    if spec.kind == "linear":
        return x @ y.T
    sq = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
    np.maximum(sq, 0.0, out=sq)
    if y is x:
        np.fill_diagonal(sq, 0.0)
    return np.exp(-spec.gamma * sq)


@dataclass(frozen=True, eq=False)
class TwsvmProblem:
    """Training data and hyperparameters for one twin SVM fit.

    ``a`` holds the class +1 rows, ``b`` the class -1 rows; c1/c2 are the
    dual box bounds.  ``ridge=None`` selects 1e-6*trace/dim per Gram
    matrix.
    """

    a: np.ndarray
    b: np.ndarray
    c1: float
    c2: float
    kernel: KernelSpec = KernelSpec()
    ridge: float | None = None

    def __post_init__(self):
        a = as_matrix(self.a, "class +1 rows")
        b = as_matrix(self.b, "class -1 rows")
        if a.shape[1] != b.shape[1]:
            raise ShapeError("class blocks have different feature counts")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("box bounds c1 and c2 must be non-negative")
        if self.ridge is not None and self.ridge < 0:
            raise ValueError(f"ridge must be non-negative, got {self.ridge}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class TwsvmModel:
    """Solved plane pair; u = [w_plus; b_plus], v = [w_minus; b_minus].

    For kernel problems the weight part of u/v lives in the expansion
    over ``support`` (all training rows, class +1 block first).
    """

    u: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kernel: KernelSpec
    ridge_alpha: float
    ridge_beta: float
    n_features: int
    support: np.ndarray | None
    norm_plus: float
    norm_minus: float


def _design_blocks(problem: TwsvmProblem):
    """(H, G, support): margin designs with the bias column appended."""
    if problem.kernel.kind == "linear":
        a_part, b_part, support = problem.a, problem.b, None
    else:
        support = np.vstack([problem.a, problem.b])
        a_part = kernel_matrix(problem.kernel, problem.a, support)
        b_part = kernel_matrix(problem.kernel, problem.b, support)
    h = np.hstack([a_part, np.ones((a_part.shape[0], 1))])
    g = np.hstack([b_part, np.ones((b_part.shape[0], 1))])
    return h, g, support


def dual_matrices(problem: TwsvmProblem) -> tuple[np.ndarray, np.ndarray]:
    """The PSD quadratic terms of the two duals, for verification.

    Returns (G (H'H+rI)^-1 G', H (G'G+rI)^-1 H').
    """
    h, g, _ = _design_blocks(problem)
    return _dual_side(h, g, problem.ridge)[0], _dual_side(g, h, problem.ridge)[0]


def _dual_side(own: np.ndarray, other: np.ndarray, ridge: float | None):
    """(M, own'own, r) for the dual over ``other``'s rows; M = other (own'own+rI)^-1 other'."""
    gram = own.T @ own
    r = ridge if ridge is not None else default_ridge(gram)
    return other @ solve_spd(gram, other.T, ridge=r), gram, r


def dual_objective(m: np.ndarray, x: np.ndarray) -> float:
    """e'x - x'Mx/2."""
    return float(x.sum() - 0.5 * (x @ (m @ x)))


def box_kkt_residual(m: np.ndarray, x: np.ndarray, c: float) -> float:
    """Infinity norm of the projected gradient of the box-constrained dual.

    Zero iff x satisfies the KKT conditions: interior coordinates have
    zero gradient, coordinates at 0 have non-positive gradient, and
    coordinates at c have non-negative gradient.
    """
    return _projected_gradient_norm(1.0 - m @ x, x, c)


def _projected_gradient_norm(g: np.ndarray, x: np.ndarray, c: float) -> float:
    """box_kkt_residual given the gradient g = e - Mx."""
    pg = g.copy()
    at_lower = x <= 0.0
    at_upper = x >= c
    pg[at_lower] = np.maximum(g[at_lower], 0.0)
    pg[at_upper] = np.minimum(g[at_upper], 0.0)
    pg[at_lower & at_upper] = 0.0
    return float(np.max(np.abs(pg))) if pg.size else 0.0


def _active_set_polish(m: np.ndarray, x: np.ndarray, c: float,
                       tol: float) -> np.ndarray | None:
    """Exact solve on the face the iterate sits on; None unless it
    verifies the KKT conditions inside the box."""
    free = (x > 0.0) & (x < c)
    z = x.copy()
    if free.any():
        rhs = 1.0 - m[np.ix_(free, ~free)] @ x[~free] if (~free).any() \
            else np.ones(int(free.sum()))
        # lstsq tolerates the singular blocks duplicated rows produce
        sol, *_ = np.linalg.lstsq(m[np.ix_(free, free)], rhs, rcond=None)
        if (sol < 0.0).any() or (sol > c).any():
            return None
        z[free] = sol
    return z if box_kkt_residual(m, z, c) <= tol else None


def projected_gradient_box_max(m: np.ndarray, c: float, tol: float = 1e-8,
                               max_iter: int = 200_000,
                               trace: list | None = None) -> np.ndarray:
    """Maximize e'x - x'Mx/2 over the box [0, c]^n.

    Fixed step 1/L with L the Gershgorin row-sum bound of M, so the
    objective never decreases.  Converges when the projected gradient
    drops to ``tol`` in infinity norm.  Once the residual is small the
    active set is stable, so the face is periodically polished with one
    exact solve (kept only when it verifies KKT), which spares the slow
    fixed-step tail on ill-conditioned duals.  Hitting ``max_iter``
    raises ConvergenceError carrying the best iterate and its residual.
    """
    n = m.shape[0]
    if c == 0.0:
        return np.zeros(n)
    lipschitz = float(np.max(np.abs(m).sum(axis=1)))
    if lipschitz == 0.0:
        # quadratic term vanishes: the linear objective pins x at the top
        return np.full(n, c)
    step = 1.0 / lipschitz
    x = np.zeros(n)
    for iteration in range(max_iter):
        grad = 1.0 - m @ x
        residual = _projected_gradient_norm(grad, x, c)
        if trace is not None:
            trace.append(dual_objective(m, x))
        if residual <= tol:
            return x
        if iteration and iteration % 256 == 0:
            polished = _active_set_polish(m, x, c, tol)
            if polished is not None:
                return polished
        x = np.clip(x + step * grad, 0.0, c)
    residual = box_kkt_residual(m, x, c)
    if residual <= tol:
        return x
    raise ConvergenceError(
        f"projected gradient hit the {max_iter}-iteration cap at residual "
        f"{residual:.3e} (tol {tol:.1e})",
        best=x, residual=residual,
    )


def solve_dual(problem: TwsvmProblem, tol: float = 1e-8,
               max_iter: int = 200_000) -> TwsvmModel:
    """Solve both dual QPs and recover the two planes."""
    h, g, support = _design_blocks(problem)
    m_alpha, hth, r_alpha = _dual_side(h, g, problem.ridge)
    alpha = projected_gradient_box_max(m_alpha, problem.c1, tol=tol, max_iter=max_iter)
    u = -solve_spd(hth, g.T @ alpha, ridge=r_alpha)

    m_beta, gtg, r_beta = _dual_side(g, h, problem.ridge)
    beta = projected_gradient_box_max(m_beta, problem.c2, tol=tol, max_iter=max_iter)
    v = solve_spd(gtg, h.T @ beta, ridge=r_beta)

    norm_plus, norm_minus = plane_norms(problem.kernel, support, u, v)
    return TwsvmModel(
        u=u, v=v, alpha=alpha, beta=beta, kernel=problem.kernel,
        ridge_alpha=r_alpha, ridge_beta=r_beta,
        n_features=problem.a.shape[1], support=support,
        norm_plus=norm_plus, norm_minus=norm_minus,
    )


def plane_norms(kernel: KernelSpec, support, u, v) -> tuple[float, float]:
    """Norms of the weight parts of u and v: Euclidean for the linear
    kernel, sqrt(w'Kw) over the expansion ``support`` otherwise."""
    if kernel.kind == "linear":
        return float(np.linalg.norm(u[:-1])), float(np.linalg.norm(v[:-1]))
    gram = kernel_matrix(kernel, support, support)
    return tuple(float(np.sqrt(max(w[:-1] @ (gram @ w[:-1]), 0.0))) for w in (u, v))


def _plane_values(model: TwsvmModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if model.kernel.kind == "linear":
        basis = rows
    else:
        basis = kernel_matrix(model.kernel, rows, model.support)
    s_plus = basis @ model.u[:-1] + model.u[-1]
    s_minus = basis @ model.v[:-1] + model.v[-1]
    return s_plus, s_minus


def twsvm_distances(model: TwsvmModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Normalized absolute distances to the two planes."""
    rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if rows.shape[1] != model.n_features:
        raise ShapeError(f"expected {model.n_features} features, got {rows.shape[1]}")
    if model.norm_plus == 0.0 or model.norm_minus == 0.0:
        raise ValueError("a plane has zero norm; distances are undefined")
    s_plus, s_minus = _plane_values(model, rows)
    d_plus = np.abs(s_plus) / model.norm_plus
    d_minus = np.abs(s_minus) / model.norm_minus
    if np.ndim(x) == 1:
        return float(d_plus[0]), float(d_minus[0])
    return d_plus, d_minus


def twsvm_predict(model: TwsvmModel, x):
    """+1 where the positive plane is at least as close, else -1."""
    d_plus, d_minus = twsvm_distances(model, x)
    labels = np.where(np.asarray(d_plus) <= d_minus, 1, -1)
    return int(labels) if np.ndim(x) == 1 else labels.astype(np.int64)
