"""Dense linear-algebra helpers and a self-contained random number generator.

All numeric code in the package works on plain float64 numpy arrays:
matrices are 2-D row-major, vectors are 1-D.  The helpers here add the
shape/finiteness validation and the error types the rest of the package
relies on.  The RNG is a small xoshiro256** generator so that seeded
streams are identical on every platform and numpy version, which keeps
benchmark results reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "ShapeError",
    "NumericalError",
    "FactorizationError",
    "DivergenceError",
    "ConvergenceError",
    "as_matrix",
    "solve_spd",
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


def default_ridge(m: np.ndarray) -> float:
    """Default diagonal regularization: 1e-6 * trace / dimension."""
    return 1e-6 * float(np.trace(m)) / m.shape[0]


def solve_spd(m, rhs, ridge: float | None = None) -> np.ndarray:
    """Solve ``(m + ridge*I) x = rhs`` for symmetric positive definite ``m``.

    Uses a Cholesky factorization.  ``rhs`` may be a vector or a matrix of
    stacked right-hand sides (solved column-wise).  ``ridge=None`` picks
    the default ``1e-6 * trace(m) / dim``; pass ``0.0`` to disable
    regularization entirely.

    Raises FactorizationError when the ridged matrix is not positive
    definite, with a hint to increase the ridge.
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

    if ridge is None:
        ridge = default_ridge(m)
    if ridge < 0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")

    ridged = m if ridge == 0.0 else m + ridge * np.eye(n)
    try:
        factor = cho_factor(ridged, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"matrix is not positive definite with ridge={ridge!r}; "
            "supply a larger ridge"
        ) from exc
    x = cho_solve(factor, rhs_arr, check_finite=False)
    # one round of iterative refinement keeps the residual bound below
    # attainable even for poorly conditioned ridged systems
    x = x + cho_solve(factor, rhs_arr - ridged @ x, check_finite=False)

    residual = np.max(np.abs(ridged @ x - rhs_arr))
    bound = 1e-8 * (1.0 + np.max(np.abs(rhs_arr)))
    if not residual <= bound:
        raise FactorizationError(
            f"solve residual {residual:.3e} exceeds bound {bound:.3e}; "
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

    def permutation(self, n: int) -> np.ndarray:
        """Shuffled arange(n)."""
        idx = np.arange(n)
        self.shuffle(idx)
        return idx
