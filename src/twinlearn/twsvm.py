"""Reference twin SVM solved through its two box-constrained dual QPs.

The positive plane solves  max_a  e'a - a' G (H'H + rI)^-1 G' a / 2  over
0 <= a <= c1 with H = [A, e], G = [B, e], recovering u = -(H'H+rI)^-1 G'a;
the negative plane is the mirror problem over 0 <= b <= c2 recovering
v = +(G'G+rI)^-1 H'b.  Both boxes are handled by projected coordinate
descent (the dual coordinate descent / SOR scheme): each sweep maximizes
the objective exactly along one coordinate at a time and clips to the
box.  Every few sweeps an active-set polish solves the face the iterate
sits on exactly, walking to the box boundary where that face's maximizer
lies outside it.  Neither step lowers the objective, and the result is
accepted only when the exactly recomputed KKT residual meets the
tolerance.

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

# Sweep cap of the dual solver.  The slowest dual measured, a 400-row RBF
# dual (gamma=1, c=10), took 1,281 sweeps; the cap leaves room for larger
# problems while a dual that cannot converge still fails in bounded time.
MAX_SWEEPS = 10_000
# sweeps between active-set polishes
POLISH_EVERY = 16


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
    """(H, G, support, gram): margin designs with the bias column appended.
    Kernel problems build the support's Gram matrix once; its row blocks
    are the kernel parts of H and G (``gram`` is None for linear)."""
    if problem.kernel.kind == "linear":
        a_part, b_part, support, gram = problem.a, problem.b, None, None
    else:
        support = np.vstack([problem.a, problem.b])
        gram = kernel_matrix(problem.kernel, support, support)
        a_part, b_part = gram[:problem.a.shape[0]], gram[problem.a.shape[0]:]
    h = np.hstack([a_part, np.ones((a_part.shape[0], 1))])
    g = np.hstack([b_part, np.ones((b_part.shape[0], 1))])
    return h, g, support, gram


def dual_matrices(problem: TwsvmProblem) -> tuple[np.ndarray, np.ndarray]:
    """The PSD quadratic terms of the two duals, for verification.

    Returns (G (H'H+rI)^-1 G', H (G'G+rI)^-1 H').
    """
    h, g, _, _ = _design_blocks(problem)
    return _dual_side(h, g, problem.ridge)[0], _dual_side(g, h, problem.ridge)[0]


def _dual_side(own: np.ndarray, other: np.ndarray, ridge: float | None):
    """(M, Z, r) for the dual over ``other``'s rows: Z = (own'own+rI)^-1 other'
    and M = other Z, so the plane is +-Z x for the dual solution x."""
    gram = own.T @ own
    r = ridge if ridge is not None else default_ridge(gram)
    z = solve_spd(gram, other.T, ridge=r)
    return other @ z, z, r


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
                       tol: float) -> np.ndarray:
    """Walk uphill from x to the maximizer of the face it sits on.

    Each pass solves the free block for the step to the face's maximizer
    (lstsq tolerates the singular blocks that duplicated rows and low
    rank produce).  Where part of the gradient lies outside the block's
    range, the objective rises linearly along that part, so that part is
    the step instead.  The point takes the best length along the step;
    when a bound comes first, it stops at the bound, fixes that
    coordinate and solves the smaller face.  No move lowers the objective
    and the point stays in the box; whether it is optimal is left to the
    caller's KKT test.
    """
    z = x.copy()
    free = np.flatnonzero((z > 0.0) & (z < c))
    while free.size:
        g = 1.0 - m[free] @ z
        block = m[np.ix_(free, free)]
        step, *_ = np.linalg.lstsq(block, g, rcond=None)
        unabsorbed = g - block @ step
        if np.max(np.abs(unabsorbed)) > tol:
            step = unabsorbed
        rise = g @ step
        if not rise > 0.0:
            break
        curvature = step @ (block @ step)
        best = rise / curvature if curvature > 0.0 else np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step > 0.0, (c - z[free]) / step,
                            np.where(step < 0.0, -z[free] / step, np.inf))
        first = int(np.argmin(room))
        if best <= room[first]:
            z[free] = np.clip(z[free] + best * step, 0.0, c)
            break
        z[free] = np.clip(z[free] + room[first] * step, 0.0, c)
        z[free[first]] = c if step[first] > 0.0 else 0.0
        free = np.flatnonzero((z > 0.0) & (z < c))
    return z


def projected_gradient_box_max(m: np.ndarray, c: float, tol: float = 1e-8,
                               max_iter: int = MAX_SWEEPS,
                               trace: list | None = None) -> np.ndarray:
    """Maximize e'x - x'Mx/2 over the box [0, c]^n for PSD M.

    Projected coordinate descent: each sweep visits the coordinates in
    order and sets x_i to the clipped exact maximizer along that axis,
    x_i <- clip(x_i + g_i/M_ii, 0, c), updating the gradient g = e - Mx
    by one column.  The gradient is recomputed exactly at the start of
    every sweep and that value alone drives the convergence test (the
    projected gradient's infinity norm at most ``tol``), so rounding
    drift in the updates cannot fake convergence.  A coordinate with
    M_ii = 0 has a zero row (M is PSD) and sits at c.  Every
    ``POLISH_EVERY``-th sweep begins with the active-set polish, which
    moves the iterate uphill to the maximizer of its face; that point is
    then tested like any other iterate.  ``trace`` receives the objective
    of each sweep's tested point, so it never decreases.  ``max_iter``
    caps the sweeps; hitting it raises ConvergenceError carrying the last
    iterate and its residual.
    """
    n = m.shape[0]
    if c == 0.0:
        return np.zeros(n)
    c = float(c)
    diag = np.diag(m)
    x = np.where(diag > 0.0, 0.0, c)
    active = np.flatnonzero(diag > 0.0).tolist()
    diag = diag.tolist()
    columns = np.ascontiguousarray(m.T)  # row i is column i of m
    for sweep in range(max_iter):
        if sweep % POLISH_EVERY == 0:
            x = _active_set_polish(m, x, c, tol)
        g = 1.0 - m @ x
        residual = _projected_gradient_norm(g, x, c)
        if trace is not None:
            trace.append(dual_objective(m, x))
        if residual <= tol:
            return x
        # Python floats in the loop: numpy scalar arithmetic is slower
        values = x.tolist()
        for i in active:
            old = values[i]
            new = min(max(old + g.item(i) / diag[i], 0.0), c)
            if new != old:
                values[i] = new
                g -= (new - old) * columns[i]
        x = np.array(values)
    residual = box_kkt_residual(m, x, c)
    if residual <= tol:
        return x
    raise ConvergenceError(
        f"coordinate descent hit the iteration cap of {max_iter} sweeps at "
        f"residual {residual:.3e} (tol {tol:.1e})",
        best=x, residual=residual,
    )


def solve_dual(problem: TwsvmProblem, tol: float = 1e-8,
               max_iter: int = MAX_SWEEPS) -> TwsvmModel:
    """Solve both dual QPs and recover the two planes."""
    h, g, support, gram = _design_blocks(problem)
    m_alpha, z_alpha, r_alpha = _dual_side(h, g, problem.ridge)
    alpha = projected_gradient_box_max(m_alpha, problem.c1, tol=tol, max_iter=max_iter)
    u = -(z_alpha @ alpha)

    m_beta, z_beta, r_beta = _dual_side(g, h, problem.ridge)
    beta = projected_gradient_box_max(m_beta, problem.c2, tol=tol, max_iter=max_iter)
    v = z_beta @ beta

    norm_plus, norm_minus = plane_norms(problem.kernel, support, u, v, gram)
    return TwsvmModel(
        u=u, v=v, alpha=alpha, beta=beta, kernel=problem.kernel,
        ridge_alpha=r_alpha, ridge_beta=r_beta,
        n_features=problem.a.shape[1], support=support,
        norm_plus=norm_plus, norm_minus=norm_minus,
    )


def plane_norms(kernel: KernelSpec, support, u, v, gram=None) -> tuple[float, float]:
    """Norms of the weight parts of u and v: Euclidean for the linear
    kernel, sqrt(w'Kw) over the expansion ``support`` otherwise, with K
    the support's Gram matrix ``gram``, built here when not given."""
    if kernel.kind == "linear":
        return float(np.linalg.norm(u[:-1])), float(np.linalg.norm(v[:-1]))
    if gram is None:
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
