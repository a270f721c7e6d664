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
tolerance.  Most visits to a coordinate leave it where it is, so a visit
is one read of the gradient, one division and two comparisons in Python
floats, with no function call; only a change pays for a gradient update,
which reads one row of the symmetric dual matrix.  Each dual holds that
one n x n matrix and no copy of it.

The dual matrices depend on neither box bound, the alpha dual only on c1
and the beta dual only on c2.  So ``solve_grid`` solves the problems of
a grid search over c1 and c2 together: per (kernel, ridge) it builds the
designs and each side's dual matrix once, and it solves each dual once
per distinct bound, every result bit for bit that of ``solve_dual``.

A ridge defaulting to 1e-6*trace/dim keeps the Gram inversions well posed
(they are singular whenever a class has fewer samples than features + 1).
Kernel problems build H and G from kernel rows against all training
points and keep those points as the expansion support.

A solved model is two ``TwsvmPlane``s, as a twin network is two nets:
each holds its [w; b], norm and kernel expansion, and measures its own
distance |w.k(x) + b| / ||w||.  A point takes the nearer plane's class.
A batch is scored in blocks of rows (``numcore.score_rows``), so a kernel
expansion holds kernel rows for one block against the support at a time,
never the whole batch's.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .numcore import (
    FIT_ERRORS,
    ConvergenceError,
    ShapeError,
    as_matrix,
    check_fields,
    default_ridge,
    score_rows,
    solve_spd,
)

__all__ = [
    "TwsvmHyper",
    "KernelSpec",
    "TwsvmProblem",
    "TwsvmModel",
    "TwsvmPlane",
    "kernel_matrix",
    "dual_matrices",
    "dual_objective",
    "box_kkt_residual",
    "projected_gradient_box_max",
    "solve_dual",
    "solve_grid",
    "solve_plus",
    "twsvm_distances",
    "twsvm_predict",
]

# Sweep cap of the dual solver.  The slowest dual measured, a 400-row RBF
# dual (gamma=1, c=10), took 1,281 sweeps; the cap leaves room for larger
# problems while a dual that cannot converge still fails in bounded time.
MAX_SWEEPS = 10_000
# the dual solver's tolerance on the projected gradient's infinity norm
KKT_TOL = 1e-8
# sweeps between active-set polishes
POLISH_EVERY = 16


@dataclass(frozen=True)
class TwsvmHyper:
    """Twin SVM hyperparameters: the dual box bounds c1 and c2, the Gram
    ridge (None: 1e-6*trace/dim per Gram matrix) and the RBF bandwidth
    gamma, which the linear kernel ignores.  ``TwsvmProblem`` and an RBF
    ``KernelSpec`` check their values through it."""

    c1: float = 1.0
    c2: float = 1.0
    ridge: float | None = None
    gamma: float = 1.0

    def __post_init__(self):
        check_fields(self, positive=("c1", "c2", "gamma"), non_negative=("ridge",))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: "linear" or "rbf" with bandwidth gamma, checked and
    stored as ``TwsvmHyper`` checks it."""

    kind: str = "linear"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            object.__setattr__(self, "gamma", TwsvmHyper(gamma=self.gamma).gamma)
        elif self.gamma is not None:
            raise ValueError("gamma is only meaningful for the rbf kernel")


def kernel_matrix(spec: KernelSpec, x, y) -> np.ndarray:
    """Gram block K[i, j] = k(x_i, y_j) of two non-empty, finite matrices
    with the same feature count (ShapeError, NumericalError otherwise)."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"feature dims differ: {x.shape[1]} vs {y.shape[1]}")
    return _kernel(spec, x, y)


def _kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``kernel_matrix`` without its input checks, for rows already
    shape-checked: an empty x gives (0, S), and a row of x with a NaN gives
    a row of NaN.  Where the expansion of a finite row overflows, its
    squared distance is taken directly, so the kernel value is not NaN."""
    if spec.kind == "linear":
        return x @ y.T
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
        redo = np.isfinite(sq)
        np.less(redo, np.isfinite(x).all(axis=1)[:, None], out=redo)  # overflowed, x finite
        rows, cols = np.nonzero(redo)
        sq[rows, cols] = np.square(x[rows] - y[cols]).sum(axis=1)
        np.maximum(sq, 0.0, out=sq)
        if y is x:
            np.fill_diagonal(sq, 0.0)
        # in place: at most two (N, S) arrays and one mask are alive at once
        sq *= -spec.gamma
    return np.exp(sq, out=sq)


@dataclass(frozen=True, eq=False)
class TwsvmProblem:
    """Training data and hyperparameters for one twin SVM fit.

    ``a`` holds the class +1 rows, ``b`` the class -1 rows; c1/c2 are the
    dual box bounds.  ``ridge=None`` selects 1e-6*trace/dim per Gram
    matrix.  ``TwsvmHyper`` checks c1, c2 and the ridge.
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
        hyper = TwsvmHyper(self.c1, self.c2, self.ridge)
        for name, value in (("a", a), ("b", b), ("c1", hyper.c1), ("c2", hyper.c2),
                            ("ridge", hyper.ridge)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class TwsvmPlane:
    """One solved plane u = [w; b] and its norm, computed once: Euclidean
    for the linear kernel, sqrt(w'Kw) for a kernel expansion over
    ``support`` (all training rows, class +1 block first), with K the
    support's Gram matrix, which a kernel expansion must pass as ``gram``.
    A zero norm is kept, and ``_score`` refuses it."""

    u: np.ndarray
    kernel: KernelSpec
    support: np.ndarray | None
    gram: InitVar[np.ndarray | None] = None
    norm: float = field(init=False)

    def __post_init__(self, gram):
        w = self.u[:-1]
        if self.kernel.kind == "linear":
            norm = float(np.linalg.norm(w))
        elif gram is None:
            raise ValueError("a kernel expansion needs the Gram matrix of its support")
        else:
            norm = float(np.sqrt(max(w @ (gram @ w), 0.0)))
        object.__setattr__(self, "norm", norm)

    @property
    def n_features(self) -> int:
        """Input width: u less its bias (linear), else the support's width."""
        return self.u.size - 1 if self.kernel.kind == "linear" else self.support.shape[1]

    def _basis(self, rows) -> np.ndarray:
        """The rows, as (N, M), or for a kernel expansion their kernel rows
        against the support (N, S).  Like the other plane types, an empty
        batch scores as (0,) and a row with a NaN as NaN, so the rows that
        ``score_rows`` passes are not checked again."""
        rows = np.atleast_2d(rows)
        return rows if self.kernel.kind == "linear" else _kernel(self.kernel, rows,
                                                                 self.support)

    def _score(self, basis: np.ndarray) -> np.ndarray:
        """Distances of ``_basis`` rows."""
        if self.norm == 0.0:
            raise ValueError("a plane has zero norm; distances are undefined")
        return np.abs(basis @ self.u[:-1] + self.u[-1]) / self.norm


@dataclass(frozen=True, eq=False)
class TwsvmModel:
    """Solved plane pair: ``plus`` is u = [w_plus; b_plus] from the alpha
    dual, ``minus`` is v = [w_minus; b_minus] from the beta dual."""

    plus: TwsvmPlane
    minus: TwsvmPlane
    alpha: np.ndarray
    beta: np.ndarray
    ridge_alpha: float
    ridge_beta: float


def _design_blocks(problem: TwsvmProblem):
    """(H, G, plane): margin designs with the bias column appended, and the
    one maker of the problem's planes, ``plane(u)``.  Kernel problems build
    the support's Gram matrix once: its row blocks are H's and G's kernel parts."""
    if problem.kernel.kind == "linear":
        a_part, b_part, support, gram = problem.a, problem.b, None, None
    else:
        support = np.vstack([problem.a, problem.b])
        gram = kernel_matrix(problem.kernel, support, support)
        a_part, b_part = gram[:problem.a.shape[0]], gram[problem.a.shape[0]:]
    h = np.hstack([a_part, np.ones((a_part.shape[0], 1))])
    g = np.hstack([b_part, np.ones((b_part.shape[0], 1))])
    return h, g, lambda u: TwsvmPlane(u, problem.kernel, support, gram)


def dual_matrices(problem: TwsvmProblem) -> tuple[np.ndarray, np.ndarray]:
    """The PSD quadratic terms of the two duals, for verification.

    Returns (G (H'H+rI)^-1 G', H (G'G+rI)^-1 H').
    """
    h, g, _ = _design_blocks(problem)
    return _dual_side(h, g, problem.ridge)[0], _dual_side(g, h, problem.ridge)[0]


def _dual_side(own: np.ndarray, other: np.ndarray, ridge: float | None):
    """(M, Z, r) for the dual over ``other``'s rows: Z = (own'own+rI)^-1 other'
    and M = other Z, so the plane is +-Z x for the dual solution x."""
    with np.errstate(over="ignore"):  # an overflowed Gram is refused by solve_spd
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


def _active_set_polish(m: np.ndarray, x: np.ndarray, c: float) -> np.ndarray:
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
        if np.max(np.abs(unabsorbed)) > KKT_TOL:
            step = unabsorbed
        rise = g @ step
        if not rise > 0.0:
            break
        curvature = step @ (block @ step)
        best = rise / curvature if curvature > 0.0 else np.inf
        # an overflowed room is +inf: no bound within reach
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def projected_gradient_box_max(m: np.ndarray, c: float) -> np.ndarray:
    """Maximize e'x - x'Mx/2 over the box [0, c]^n for symmetric PSD M.

    Projected coordinate descent: each sweep visits the coordinates in
    order and sets x_i to the clipped exact maximizer along that axis,
    x_i <- clip(x_i + g_i/M_ii, 0, c), updating the gradient g = e - Mx
    by column i of M, read as its row i, so no transposed copy of M is
    made.  The gradient is recomputed exactly at the start of every sweep
    and that value alone drives the convergence test (the projected
    gradient's infinity norm at most ``KKT_TOL``), so neither rounding
    drift in the updates nor a last-bit asymmetry of a computed M can
    fake convergence.  A coordinate with M_ii = 0 has a zero row (M is
    PSD) and sits at c.  Every ``POLISH_EVERY``-th sweep begins with the
    active-set polish, which moves the iterate uphill to the maximizer of
    its face; that point is then tested like any other iterate, so the
    objective of the tested iterates never decreases.  ``MAX_SWEEPS``,
    read at each call, caps the sweeps; hitting it raises ConvergenceError
    carrying the last iterate and its residual.
    """
    c = float(c)
    diag = np.diag(m)
    x = np.where(diag > 0.0, 0.0, c)
    active = np.flatnonzero(diag > 0.0).tolist()
    diag = diag.tolist()
    for sweep in range(MAX_SWEEPS):
        if sweep % POLISH_EVERY == 0:
            x = _active_set_polish(m, x, c)
        g = 1.0 - m @ x
        residual = _projected_gradient_norm(g, x, c)
        if residual <= KKT_TOL:
            return x
        # Python floats in the loop: numpy scalar arithmetic is slower.  Most
        # visits change nothing, so a visit reads g through a memoryview and
        # clips by comparisons, with no call; the branches return what
        # min(max(new, 0.0), c) returns for c >= 0, -0.0 and NaN included.
        values = x.tolist()
        gradient = memoryview(g)
        for i in active:
            old = values[i]
            new = old + gradient[i] / diag[i]
            if new < 0.0:
                new = 0.0
            elif new > c:
                new = c
            if new != old:
                values[i] = new
                g -= (new - old) * m[i]
        x = np.array(values)
    residual = box_kkt_residual(m, x, c)
    if residual <= KKT_TOL:
        return x
    raise ConvergenceError(
        f"coordinate descent hit the iteration cap of {MAX_SWEEPS} sweeps at "
        f"residual {residual:.3e} (tol {KKT_TOL:.1e})",
        best=x, residual=residual,
    )


def _solve_duals(own: np.ndarray, other: np.ndarray, ridge: float | None, bounds,
                 sign: float, plane) -> dict:
    """c -> (x, plane(sign * Z x), r) for each box bound c in ``bounds``: the
    dual over ``other``'s rows (see ``_dual_side``) solved in [0, c], or the
    error the dual matrix or that solve raised.  One dual matrix serves
    every bound and is dropped on return.  Every twin SVM dual is solved here."""
    try:
        m, z, r = _dual_side(own, other, ridge)
    except FIT_ERRORS as exc:
        return dict.fromkeys(bounds, exc)
    out = {}
    for c in bounds:
        try:
            x = projected_gradient_box_max(m, c)
        except FIT_ERRORS as exc:
            out[c] = exc
        else:
            out[c] = (x, plane(sign * (z @ x)), r)
    return out


def solve_grid(problems) -> list:
    """What ``solve_dual`` returns or raises for each problem, bit for bit,
    with no part computed twice.  The dual matrices depend on neither box
    bound, so problems over the same row arrays with one kernel and ridge
    (a grid search's points over c1 and c2) share one ``_design_blocks``
    call and one dual matrix per side, and their alpha duals one solve per
    distinct c1, their beta duals one per distinct c2.  The alpha matrix
    and its solves come first, then the beta matrix and its solves for the
    c2 of the problems whose alpha dual was solved, so one dual matrix is
    alive at a time.  A problem's error is the first that ``solve_dual``
    would raise for it: alpha matrix, alpha solve, beta matrix, beta
    solve."""
    groups = {}
    for i, p in enumerate(problems):
        groups.setdefault((id(p.a), id(p.b), p.kernel, p.ridge), []).append(i)
    out = [None] * len(problems)
    for members in groups.values():
        lead = problems[members[0]]
        h, g, plane = _design_blocks(lead)
        alphas = _solve_duals(h, g, lead.ridge, dict.fromkeys(problems[i].c1 for i in members),
                              -1.0, plane)
        solved = [i for i in members if isinstance(alphas[problems[i].c1], tuple)]
        betas = _solve_duals(g, h, lead.ridge, dict.fromkeys(problems[i].c2 for i in solved),
                             1.0, plane) if solved else {}
        for i in members:
            alpha, beta = alphas[problems[i].c1], betas.get(problems[i].c2)
            if not isinstance(alpha, tuple):
                out[i] = alpha
            elif not isinstance(beta, tuple):
                out[i] = beta
            else:
                out[i] = TwsvmModel(alpha[1], beta[1], alpha[0], beta[0], alpha[2], beta[2])
    return out


def solve_dual(problem: TwsvmProblem) -> TwsvmModel:
    """Solve both dual QPs and recover the two planes: ``solve_grid`` of
    the one problem."""
    (model,) = solve_grid([problem])
    if isinstance(model, Exception):
        raise model
    return model


def solve_plus(problem: TwsvmProblem) -> TwsvmPlane:
    """The positive plane of ``solve_dual(problem)`` alone, bit for bit: the
    alpha half of its solve, one ``_solve_duals`` call at the bound c1."""
    h, g, plane = _design_blocks(problem)
    alpha = _solve_duals(h, g, problem.ridge, (problem.c1,), -1.0, plane)[problem.c1]
    if isinstance(alpha, Exception):
        raise alpha
    return alpha[1]


def twsvm_distances(model: TwsvmModel, x):
    """Normalized absolute distances to the two planes: two scalars for one
    sample (M,), two (N,) arrays for a batch (N, M).  Both planes expand
    over the same kernel and support, so the batch is scored in row blocks
    (``numcore.score_rows``) and each block's basis is built once, for
    both planes."""
    def block(rows):
        basis = model.plus._basis(rows)
        return np.column_stack((model.plus._score(basis), model.minus._score(basis)))

    d = score_rows(x, model.plus.n_features, block)
    if np.ndim(x) == 1:
        return float(d[0, 0]), float(d[0, 1])
    return d[:, 0], d[:, 1]


def twsvm_predict(model: TwsvmModel, x):
    """+1 where the positive plane is at least as close, else -1: an int for
    one sample (M,), int64 (N,) for a batch (N, M).  At a near-tie a row's
    label can differ between a one-row call and a batch."""
    d_plus, d_minus = twsvm_distances(model, x)
    labels = np.where(np.asarray(d_plus) <= d_minus, 1, -1)
    return int(labels) if np.ndim(x) == 1 else labels
