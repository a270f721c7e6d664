"""Dense linear-algebra helpers and a self-contained random number generator.

All numeric code in the package works on plain float64 numpy arrays:
matrices are 2-D row-major, vectors are 1-D.  The helpers here add the
shape/finiteness validation and the error types the rest of the package
relies on, ``check_fields``, the one check of every hyperparameter type,
``solve_spd``, the twin SVM's Cholesky solve on numpy's own BLAS,
``score_rows``, the row-block loop through which both plane types score
a batch, and ``nearest``, the nearest-of-K choice of the multiclass
predicts and training.  The RNG is a small xoshiro256** generator so that seeded
streams are identical on every platform and numpy version, which keeps
benchmark results reproducible bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields

import numpy as np

__all__ = [
    "ShapeError",
    "NumericalError",
    "FactorizationError",
    "DivergenceError",
    "ConvergenceError",
    "FIT_ERRORS",
    "as_matrix",
    "check_fields",
    "SCORE_BLOCK",
    "score_rows",
    "nearest",
    "solve_spd",
    "TRI_BLOCK",
    "default_ridge",
    "Rng",
    "mix_seed",
]


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class NumericalError(ArithmeticError):
    """A numeric routine produced or detected an unusable result."""


class FactorizationError(NumericalError):
    """Symmetric factorization failed: matrix not positive definite."""


class DivergenceError(NumericalError):
    """Iterative training produced a non-finite loss."""

    def __init__(self, message: str, side: str | None = None, epoch: int | None = None):
        super().__init__(message)
        self.side = side
        self.epoch = epoch


class ConvergenceError(NumericalError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    Carries the best iterate seen (``best``) and its residual so callers
    can decide whether the partial answer is usable.
    """

    def __init__(self, message: str, best=None, residual: float | None = None):
        super().__init__(message)
        self.best = best
        self.residual = residual


# what a fit raises when its data or values do not train a model; CV
# records them as failures of the grid point or fold
FIT_ERRORS = (NumericalError, ValueError)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising structured errors."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalError(f"{name} contains non-finite entries")
    return m


def check_fields(hyper, at_least_one=(), positive=(), non_negative=()) -> None:
    """The one check of every frozen hyperparameter type, made by its
    ``__post_init__``: ValueError naming the first field that is not a
    number (a bool or a string included; None is allowed only where the
    field is declared ``float | None``), not finite, not integral where it
    is declared ``int``, or not >= 1 (``at_least_one``), > 0 (``positive``)
    or >= 0 (``non_negative``).  Each field is stored as its declared
    ``int`` or ``float``, read from an annotation string or a type."""
    bounds = {**dict.fromkeys(at_least_one, (">=", 1)), **dict.fromkeys(positive, (">", 0)),
              **dict.fromkeys(non_negative, (">=", 0))}
    for f in fields(hyper):
        name, value = f.name, getattr(hyper, f.name)
        declared = f.type.__name__ if isinstance(f.type, type) else str(f.type)
        if value is None and declared.endswith("| None"):
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        integral = declared.startswith("int")
        try:
            number = int(value) if integral else float(value)
        except (OverflowError, ValueError):  # nan or inf as an int, an int past float range
            number = math.nan
        if not -math.inf < number < math.inf:
            raise ValueError(f"{name} must be finite, got {value}")
        if integral and number != value:
            raise ValueError(f"{name} must be an integer, got {value}")
        op, bound = bounds.get(name, (">=", -math.inf))
        if not (number > bound if op == ">" else number >= bound):
            raise ValueError(f"{name} must be {op} {bound}, got {number}")
        object.__setattr__(hyper, name, number)


# Rows per scoring block.  A bank of K networks scores a block
# feature-major, as (K*h, 4096) activations and (K, p, 4096) plane
# outputs, so one block's temporaries stay near 4096 * width * 8 bytes
# (512 KB for the activations of a twin pair at h = 8).  With one BLAS thread blocked scoring agrees bit for bit with a
# whole-batch call, and 64-row calls with a whole-stream call, on the
# benchmark's scoring shapes (tests/test_scoring.py).
SCORE_BLOCK = 4096


def score_rows(x, n_features: int, score):
    """``score`` applied to one sample (M,) or a batch (N, M) of rows; the
    one input check of both plane types, ``twin_nn.TanhBank``, the one
    network type, and ``TwsvmPlane``.

    ShapeError unless x is 1-D or 2-D with M = ``n_features`` features.  A
    sample, or a batch of at most one block (SCORE_BLOCK rows, or one more),
    is one call ``score(x)``.  A larger batch is scored block by block into
    one preallocated output, so the temporaries of ``score`` are those of
    one block, not of the batch.  A one-row tail joins the block before it:
    BLAS reduces a single row in another order (gemv, not gemm), so it
    could differ from the same row in a whole-batch call in its last bits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ShapeError(f"expected one sample (M,) or a batch (N, M), got shape {x.shape}")
    if x.shape[-1] != n_features:
        raise ShapeError(f"expected {n_features} features, got {x.shape[-1]}")
    n = x.shape[0]
    if x.ndim == 1 or n <= SCORE_BLOCK + 1:
        return score(x)
    edges = [*range(0, n, SCORE_BLOCK), n]
    if n - edges[-2] == 1:
        del edges[-2]
    first = score(x[:edges[1]])
    out = np.empty((n, *first.shape[1:]), dtype=first.dtype)
    out[:edges[1]] = first
    for lo, hi in zip(edges[1:-1], edges[2:]):
        out[lo:hi] = score(x[lo:hi])
    return out


def nearest(distances) -> np.ndarray:
    """Index of the smallest of K distance arrays, row by row: (N,) intp
    for K arrays of shape (N,), each row's first minimum, so ties go to
    the lowest index.

    A running strict-< minimum along N: each array costs a comparison, a
    masked store and an elementwise minimum, where an argmin over the
    column-stacked (N, K) distances would run its inner loop over the
    short K axis.  A row that is NaN in every array, as a NaN input row
    scores, goes to index 0, as with argmin; a NaN stops a row's search,
    so a row NaN in some arrays only keeps the index it had."""
    distances = iter(distances)
    best = np.array(next(distances), dtype=np.float64)
    index = np.zeros(best.shape, dtype=np.intp)
    for k, d in enumerate(distances, start=1):
        index[d < best] = k
        np.minimum(best, d, out=best)
    return index


def default_ridge(m: np.ndarray) -> float:
    """Default diagonal regularization: 1e-6 * trace / dimension."""
    return 1e-6 * float(np.trace(m)) / m.shape[0]


# Rows per block of the triangular solve.  At 2,101 rows and 2,000
# right-hand sides (the RBF twin SVM's alpha side on 100+2,000 rows), 64
# was faster than 32, 128 and 256 with one BLAS thread.
TRI_BLOCK = 64


def _tri_solve(t: np.ndarray, inverses: list, b: np.ndarray, lower: bool) -> np.ndarray:
    """Overwrite ``b`` with the solution x of ``t x = b`` for square
    triangular ``t``, block by block, and return it; ``inverses`` holds the
    inverses of t's diagonal blocks of TRI_BLOCK rows, from the top.

    Forward from the top for a lower ``t``, backward from the bottom for an
    upper one.  Each block subtracts the part of the solution already found
    with one product, and then applies the inverse of its own diagonal
    block with a second product: at 2,000 right-hand sides that is several
    times faster than ``np.linalg.solve`` of each 64-row block.  ``b`` may
    be (n,) or (n, k).  An explicit block inverse is not backward stable for
    an ill-conditioned block (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 8.2 and 14.2), so the caller refines the result once
    and decides by its backward error whether it is accurate enough."""
    n = t.shape[0]
    starts = range(0, n, TRI_BLOCK) if lower else range((n - 1) // TRI_BLOCK * TRI_BLOCK, -1, -TRI_BLOCK)
    for lo in starts:
        hi = min(lo + TRI_BLOCK, n)
        rhs = b[lo:hi]
        if lower and lo:
            rhs = rhs - t[lo:hi, :lo] @ b[:lo]
        elif not lower and hi < n:
            rhs = rhs - t[lo:hi, hi:] @ b[hi:]
        b[lo:hi] = inverses[lo // TRI_BLOCK] @ rhs
    return b


def solve_spd(m, rhs, ridge: float) -> np.ndarray:
    """Solve ``(m + ridge*I) x = rhs`` for symmetric positive definite ``m``.

    Uses a Cholesky factorization, ``np.linalg.cholesky``, and a blocked
    triangular solve forward with its lower factor L and back with L'.
    ``rhs`` may be a vector or a matrix of stacked right-hand sides
    (solved column-wise).  The ridge is required and must be
    non-negative; ``0.0`` disables regularization entirely.  The twin
    SVM's default, ``default_ridge``, is worked out by its caller.

    Raises FactorizationError when the ridged matrix is not positive
    definite, with a hint to increase the ridge, and when a solution's
    normwise backward error is more than rounding explains.
    """
    m = as_matrix(m, "system matrix")
    n, cols = m.shape
    if n != cols:
        raise ShapeError(f"system matrix must be square, got {n}x{cols}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if not np.allclose(m, m.T, atol=1e-8 * (1.0 + scale), rtol=0.0):
        raise ShapeError("system matrix must be symmetric")

    rhs_arr = np.asarray(rhs, dtype=np.float64)
    if rhs_arr.ndim not in (1, 2) or rhs_arr.shape[0] != n:
        raise ShapeError(f"rhs has shape {rhs_arr.shape}, expected leading dim {n}")
    if not np.all(np.isfinite(rhs_arr)):
        raise NumericalError("rhs contains non-finite entries")

    if ridge < 0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")

    ridged = m if ridge == 0.0 else m + ridge * np.eye(n)
    try:
        lower = np.linalg.cholesky(ridged)
        # the diagonal blocks of L are inverted once for the four triangular
        # solves; those of L' are their transposes
        inverses = [np.linalg.inv(lower[lo:lo + TRI_BLOCK, lo:lo + TRI_BLOCK])
                    for lo in range(0, n, TRI_BLOCK)]
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"matrix is not positive definite with ridge={ridge!r}; "
            "supply a larger ridge"
        ) from exc
    transposed = [v.T for v in inverses]

    def cho_solve(b):  # forward with L, back with L', in one copy of b
        return _tri_solve(lower.T, transposed, _tri_solve(lower, inverses, b.copy(), True), False)

    # entries near the float limit overflow: refused once, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        x = cho_solve(rhs_arr)
        # one round of iterative refinement keeps the residual bound below
        # attainable even for poorly conditioned ridged systems
        x = x + cho_solve(rhs_arr - ridged @ x)
        if not np.all(np.isfinite(x)):
            raise NumericalError("the system passes the float range: its solution is not finite")

        # normwise backward error per right-hand side (Rigal and Gaches; Higham,
        # Accuracy and Stability of Numerical Algorithms, sec. 7.1): a backward
        # stable solve leaves |r_j| near n*eps*(|A| |x_j| + |rhs_j|) in the
        # infinity norm however ill-conditioned A is, so only a solve that
        # really failed exceeds ten times that
        residual, x_max, rhs_max = (np.max(np.abs(a.reshape(n, -1)), axis=0)
                                    for a in (ridged @ x - rhs_arr, x, rhs_arr))
        norm = np.max(np.sum(np.abs(ridged), axis=1))
        bound = 10.0 * n * np.finfo(np.float64).eps * (norm * x_max + rhs_max)
    failed = np.flatnonzero(~(residual <= bound))
    if failed.size:
        j = failed[0]
        raise FactorizationError(
            f"solve residual {residual[j]:.3e} exceeds bound {bound[j]:.3e}; "
            "the system is too ill-conditioned, supply a larger ridge"
        )
    return x


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 output function: a 64-bit finalizer with good diffusion."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(seed: int, *keys: int) -> int:
    """Derive a child seed from a base seed and integer keys.

    Deterministic and order-sensitive, so per-job seeds can be derived
    from (master seed, repeat, fold, ...) tuples without any shared RNG
    state.  Negative keys are folded into 64 bits.
    """
    h = _mix64((int(seed) & _MASK64) ^ _GOLDEN)
    for k in keys:
        h = _mix64(h ^ _mix64((int(k) & _MASK64) + _GOLDEN))
    return h


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** generator with splitmix64 seeding.

    The same seed yields the same stream on every platform; streams never
    depend on numpy's RNG implementation.  Instances are single-owner:
    they hold mutable state and must not be shared between threads.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        sm = self.seed & _MASK64
        state = []
        for _ in range(4):
            sm = (sm + _GOLDEN) & _MASK64
            state.append(_mix64(sm))
        self._s = state

    def _next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self, size: int | None = None):
        """Uniform floats in [0, 1) with 53-bit resolution."""
        if size is None:
            return (self._next_u64() >> 11) * 2.0**-53
        return np.array([(self._next_u64() >> 11) * 2.0**-53 for _ in range(size)])

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """Uniform floats in [low, high)."""
        if not high > low:
            raise ValueError(f"uniform requires high > low, got [{low}, {high})")
        span = high - low
        if size is None:
            return low + span * self.random()
        return low + span * self.random(size)

    def normal(self, mean: float = 0.0, std: float = 1.0, size: int | None = None):
        """Gaussian samples via the Box-Muller transform of uniform pairs.

        Each pair of uniforms (u1 in (0,1], u2 in [0,1)) produces
        sqrt(-2 ln u1) * (cos, sin)(2 pi u2); for odd sizes the spare
        sample of the last pair is discarded.
        """
        if std <= 0:
            raise ValueError(f"normal requires std > 0, got {std}")
        n = 1 if size is None else size
        out = np.empty(n)
        for i in range(0, n, 2):
            u1 = ((self._next_u64() >> 11) + 1) * 2.0**-53
            u2 = (self._next_u64() >> 11) * 2.0**-53
            r = np.sqrt(-2.0 * np.log(u1))
            out[i] = r * np.cos(2.0 * np.pi * u2)
            if i + 1 < n:
                out[i + 1] = r * np.sin(2.0 * np.pi * u2)
        out = mean + std * out
        return float(out[0]) if size is None else out

    def integers(self, low: int, high: int) -> int:
        """One integer uniform on [low, high), free of modulo bias."""
        if not high > low:
            raise ValueError(f"integers requires high > low, got [{low}, {high})")
        span = high - low
        # rejection sampling over the largest multiple of span below 2^64
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            draw = self._next_u64()
            if draw < limit:
                return low + draw % span

    def shuffle(self, values) -> None:
        """In-place Fisher-Yates shuffle of a list or 1-D array."""
        n = len(values)
        for i in range(n - 1, 0, -1):
            j = self.integers(0, i + 1)
            values[i], values[j] = values[j], values[i]
