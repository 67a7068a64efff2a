"""Domain types: coefficient laws, basis families, regions, levels, time grids.

All types are immutable after construction and safe to share across
concurrent evaluators.  Basis evaluation returns value and derivative
together, since most density formulas need both at every point; callers
that need only the values (the power route of the density, the winding
counter, the conditional means of ``moments_path_density``, the difference
quotients of ``validate_basis``) ask the basis to skip the derivatives.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "CoefficientProfile",
    "ComplexLevel",
    "Rectangle",
    "TimeGrid",
    "BasisFamily",
    "MonomialBasis",
    "WeightedMonomialBasis",
    "PrefixSumBasis",
    "TabulatedBasis",
    "build_brownian_basis",
    "validate_basis",
]

# validate_basis: points sampled from a fixed seed in the square
# [-_VALIDATE_BOX, _VALIDATE_BOX]^2, the central-difference step, the relative
# tolerance of the derivative check, and the tolerance on imaginary parts on
# the real line.
_VALIDATE_SAMPLES = 100
_VALIDATE_BOX = 2.0
_VALIDATE_SEED = 0
_VALIDATE_STEP = 1e-5
_VALIDATE_RTOL = 1e-6
_VALIDATE_REAL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Scalar-ish value objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexLevel:
    """Target level K = k1 + i*k2 of the random sum."""

    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.k1) and np.isfinite(self.k2)):
            raise ConfigurationError("level components must be finite")

    @classmethod
    def from_complex(cls, k: complex) -> "ComplexLevel":
        k = complex(k)
        return cls(k.real, k.imag)

    @property
    def value(self) -> complex:
        return complex(self.k1, self.k2)


def as_level(level) -> ComplexLevel:
    """Coerce a complex number (or ComplexLevel) to a ComplexLevel."""
    if isinstance(level, ComplexLevel):
        return level
    return ComplexLevel.from_complex(level)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle in the complex plane."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(np.isfinite(v) for v in vals):
            raise ConfigurationError("rectangle bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigurationError(
                f"rectangle must satisfy x_min < x_max and y_min < y_max, got {vals}"
            )

    def contains(self, z: np.ndarray) -> np.ndarray:
        """Strict interior test for complex points."""
        z = np.asarray(z)
        return (
            (z.real > self.x_min)
            & (z.real < self.x_max)
            & (z.imag > self.y_min)
            & (z.imag < self.y_max)
        )

    def boundary_distance(self, z: np.ndarray) -> np.ndarray:
        """Distance from complex points to the boundary curve of the rectangle."""
        z = np.asarray(z)
        x, y = z.real, z.imag
        # Signed gaps to each edge line; inside -> all positive.
        gx = np.minimum(x - self.x_min, self.x_max - x)
        gy = np.minimum(y - self.y_min, self.y_max - y)
        inside = (gx >= 0) & (gy >= 0)
        inside_dist = np.minimum(gx, gy)
        dx = np.maximum(np.maximum(self.x_min - x, x - self.x_max), 0.0)
        dy = np.maximum(np.maximum(self.y_min - y, y - self.y_max), 0.0)
        outside_dist = np.hypot(dx, dy)
        return np.where(inside, inside_dist, outside_dist)


class TimeGrid:
    """Strictly increasing observation times t_0 < t_1 < ... < t_N, t_0 >= 0."""

    def __init__(self, times: Sequence[float]):
        times = np.array(times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ConfigurationError("time grid needs at least two times")
        if not np.all(np.isfinite(times)):
            raise ConfigurationError("times must be finite")
        if times[0] < 0.0:
            raise ConfigurationError("times must be nonnegative")
        if not np.all(np.diff(times) > 0.0):
            raise ConfigurationError("times must be strictly increasing")
        self._times = times
        self._times.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return self._times

    def __len__(self) -> int:
        return self._times.size

    def gaps(self) -> np.ndarray:
        """Increment variances t_k - t_{k-1} with the convention t_{-1} = 0."""
        return np.diff(self._times, prepend=0.0)


# ---------------------------------------------------------------------------
# Coefficient profile
# ---------------------------------------------------------------------------


class CoefficientProfile:
    """Per-index means and variances of the complex coefficients a_j + i*b_j.

    Variances must be strictly positive (a degenerate index would make the
    planar covariance singular) and at least two entries are required; the
    closed forms are stated for sums with more than one term.
    """

    def __init__(self, mu_a, var_a, mu_b, var_b):
        arrays = [np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (mu_a, var_a, mu_b, var_b)]
        n = max(a.size for a in arrays)
        arrays = [np.broadcast_to(a, (n,)).copy() for a in arrays]
        self._mu_a, self._var_a, self._mu_b, self._var_b = arrays
        if n < 2:
            raise ConfigurationError("profile needs at least two coefficient entries")
        for name, arr in zip(("mu_a", "var_a", "mu_b", "var_b"), arrays):
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"{name} entries must be finite")
            arr.setflags(write=False)
        if np.any(self._var_a <= 0.0) or np.any(self._var_b <= 0.0):
            raise ConfigurationError("variances must be strictly positive")

    @classmethod
    def from_entries(cls, entries: Sequence[dict]) -> "CoefficientProfile":
        """Build from records {mu_a, var_a, mu_b, var_b}."""
        return cls(
            [e["mu_a"] for e in entries],
            [e["var_a"] for e in entries],
            [e["mu_b"] for e in entries],
            [e["var_b"] for e in entries],
        )

    @classmethod
    def iid(cls, count: int, var_a: float = 1.0, var_b: float = 1.0,
            mu_a: float = 0.0, mu_b: float = 0.0) -> "CoefficientProfile":
        """Identical law at every index; ``count`` entries."""
        ones = np.ones(count)
        return cls(mu_a * ones, var_a * ones, mu_b * ones, var_b * ones)

    @property
    def size(self) -> int:
        """Number of coefficients N + 1."""
        return self._mu_a.size

    @property
    def degree(self) -> int:
        return self.size - 1

    @property
    def mu_a(self) -> np.ndarray:
        return self._mu_a

    @property
    def var_a(self) -> np.ndarray:
        return self._var_a

    @property
    def mu_b(self) -> np.ndarray:
        return self._mu_b

    @property
    def var_b(self) -> np.ndarray:
        return self._var_b

    @property
    def has_zero_means(self) -> bool:
        return bool(np.all(self._mu_a == 0.0) and np.all(self._mu_b == 0.0))

    def equal_variance(self) -> float | None:
        """Common variance if var_a == var_b == const across indices, else None."""
        v = self._var_a[0]
        if np.all(self._var_a == v) and np.all(self._var_b == v):
            return float(v)
        return None

    def __repr__(self) -> str:
        return (f"CoefficientProfile(n={self.size}, zero_means={self.has_zero_means}, "
                f"equal_variance={self.equal_variance()})")


# ---------------------------------------------------------------------------
# Basis families
# ---------------------------------------------------------------------------


class BasisFamily(ABC):
    """Family f_0, ..., f_N of holomorphic functions real on the real line.

    ``values_and_derivatives`` is the hot-path call: it returns the stacked
    values f_j(z) and derivatives f_j'(z) for all j at once, with shape
    ``(count,) + shape(z)``.  With ``derivatives=False`` it returns
    ``(values, None)`` and forms no derivative row.  It is a keyword of this
    one method rather than a method of its own because the benchmark tracer
    (``bench/tracing.py``) times this method as the basis layer.
    """

    @property
    @abstractmethod
    def count(self) -> int:
        """Number of members N + 1."""

    @abstractmethod
    def values_and_derivatives(self, z, derivatives: bool = True):
        """Return (values, derivatives) stacked over the family index.

        Without ``derivatives`` return (values, None).
        """

    def polynomial_coefficients(self, eta: np.ndarray) -> np.ndarray | None:
        """Monomial coefficients of sum_j eta_j f_j, or None if not a polynomial family.

        When available, zero counting can use the companion-matrix route.
        ``eta`` may be a vector (one draw) or a matrix of shape (draws, count).
        """
        return None


class MonomialBasis(BasisFamily):
    """f_j(z) = z^j for j = 0..degree."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ConfigurationError("degree must be at least 1")
        self._degree = int(degree)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def count(self) -> int:
        return self._degree + 1

    def values_and_derivatives(self, z, derivatives: bool = True):
        """Return (values, derivatives), or (values, None) without ``derivatives``.

        The derivative row j*z^(j-1) is a value one index lower, so the power
        route of the density needs only the values.
        """
        z = np.asarray(z, dtype=np.complex128)
        # z^j by doubling, with 0^0 = 1: once rows 0..m-1 hold z^0..z^(m-1),
        # rows m..2m-1 are those rows times z^m, one broadcast product over
        # whole contiguous rows.  Every entry is a chain of complex products
        # of z, so it is exactly real on the real axis, the table at -z is
        # (-1)^j times the table at z and the table at conj(z) its conjugate.
        # The rounding error grows like j*eps rather than sqrt(j)*eps.
        vals = np.empty((self.count,) + z.shape, dtype=np.complex128)
        vals[0] = 1.0
        vals[1] = z
        m = 2
        while m < self.count:
            k = min(m, self.count - m)
            np.multiply(vals[:k], vals[m - 1] * z, out=vals[m : m + k])
            m *= 2
        if not derivatives:
            return vals, None
        # Derivative j*z^(j-1), with the j=0 row exactly zero.
        derivs = np.empty_like(vals)
        derivs[0] = 0.0
        j = np.arange(1.0, self.count).reshape((self._degree,) + (1,) * z.ndim)
        np.multiply(vals[:-1], j, out=derivs[1:])
        return vals, derivs

    def polynomial_coefficients(self, eta):
        return np.asarray(eta, dtype=np.complex128)


class WeightedMonomialBasis(BasisFamily):
    """f_j(z) = w_j z^j with real deterministic weights w_j."""

    def __init__(self, weights: Sequence[float]):
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise ConfigurationError("need at least two weights")
        if not np.all(np.isfinite(w)):
            raise ConfigurationError("weights must be finite")
        self._weights = w
        self._weights.setflags(write=False)
        self._inner = MonomialBasis(w.size - 1)
        # Members with trailing zero weights vanish identically, so the sum's
        # polynomial has lower degree; a degree-0 remainder keeps c_0.
        self._poly_terms = int(np.flatnonzero(w).max(initial=0)) + 1

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def count(self) -> int:
        return self._weights.size

    def values_and_derivatives(self, z, derivatives: bool = True):
        vals, derivs = self._inner.values_and_derivatives(z, derivatives=derivatives)
        shape = (self.count,) + (1,) * (vals.ndim - 1)
        w = self._weights.reshape(shape)
        return w * vals, None if derivs is None else w * derivs

    def polynomial_coefficients(self, eta):
        coeffs = np.asarray(eta, dtype=np.complex128) * self._weights
        return coeffs[..., : self._poly_terms]


class PrefixSumBasis(BasisFamily):
    """F_k(z) = sum_{j=k}^{N} f_j(z) over an inner family.

    The Brownian-observation reformulation rewrites sum_j (A_j + i B_j) f_j
    as sum_k F_k Delta_k with independent increments Delta_k, so each F_k is
    paired with one increment.
    """

    def __init__(self, inner: BasisFamily):
        self._inner = inner

    @property
    def count(self) -> int:
        return self._inner.count

    def values_and_derivatives(self, z, derivatives: bool = True):
        vals, derivs = self._inner.values_and_derivatives(z, derivatives=derivatives)
        # Suffix sums over the family index: F_k = f_k + f_{k+1} + ... + f_N.
        rev = slice(None, None, -1)
        vals = np.cumsum(vals[rev], axis=0)[rev]
        if derivs is None:
            return vals, None
        return vals, np.cumsum(derivs[rev], axis=0)[rev]

    def polynomial_coefficients(self, eta):
        # sum_k eta_k F_k = sum_j (eta_0 + ... + eta_j) f_j
        eta = np.asarray(eta, dtype=np.complex128)
        return self._inner.polynomial_coefficients(np.cumsum(eta, axis=-1))


class TabulatedBasis(BasisFamily):
    """User-supplied (value, derivative) callback pairs.

    Derivatives are trusted at evaluation time; run ``validate_basis`` once to
    check the Cauchy-Riemann and real-on-real contracts of the callbacks.
    Callbacks must accept complex numpy arrays.  Monte Carlo estimation
    counts blocks of trials on several threads, so the callbacks may be
    called from several threads at once.
    """

    def __init__(self, pairs: Sequence[tuple[Callable, Callable]]):
        if len(pairs) < 2:
            raise ConfigurationError("need at least two basis members")
        self._pairs = tuple(pairs)

    @property
    def count(self) -> int:
        return len(self._pairs)

    def values_and_derivatives(self, z, derivatives: bool = True):
        z = np.asarray(z, dtype=np.complex128)
        vals = np.stack([np.asarray(f(z), dtype=np.complex128) for f, _ in self._pairs])
        if not derivatives:
            return vals, None
        derivs = np.stack([np.asarray(fp(z), dtype=np.complex128) for _, fp in self._pairs])
        return vals, derivs


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def build_brownian_basis(inner: BasisFamily, grid: TimeGrid) -> tuple[PrefixSumBasis, CoefficientProfile]:
    """Prefix-sum basis plus the increment-variance profile for a time grid.

    Observing a complex Brownian path at the grid times turns the coefficient
    sequence into cumulative sums of independent increments; the k-th
    increment has variance t_k - t_{k-1} (t_{-1} = 0) in both components and
    zero mean.  A grid starting at t_0 = 0 is rejected because its first
    increment would be degenerate.
    """
    if inner.count != len(grid):
        raise ConfigurationError(
            f"basis size {inner.count} does not match grid length {len(grid)}"
        )
    gaps = grid.gaps()
    if gaps[0] <= 0.0:
        raise ConfigurationError("t_0 must be positive: the first increment variance is t_0")
    zeros = np.zeros_like(gaps)
    profile = CoefficientProfile(zeros, gaps, zeros, gaps)
    return PrefixSumBasis(inner), profile


def validate_basis(basis: BasisFamily) -> None:
    """Check the analyticity and real-on-real contracts of a basis family.

    Raises ``ConfigurationError`` if, at sampled points, the supplied
    derivative disagrees with the complex central difference
    (f(z + eps) - f(z - eps)) / (2 eps) for eps along both axes, or if values
    or derivatives have nonvanishing imaginary part on the real line.
    """
    rng = np.random.default_rng(_VALIDATE_SEED)
    z = (rng.uniform(-_VALIDATE_BOX, _VALIDATE_BOX, _VALIDATE_SAMPLES)
         + 1j * rng.uniform(-_VALIDATE_BOX, _VALIDATE_BOX, _VALIDATE_SAMPLES))
    _, derivs = basis.values_and_derivatives(z)
    for eps in (_VALIDATE_STEP, 1j * _VALIDATE_STEP):
        plus, _ = basis.values_and_derivatives(z + eps, derivatives=False)
        minus, _ = basis.values_and_derivatives(z - eps, derivatives=False)
        fd = (plus - minus) / (2.0 * eps)
        err = np.abs(fd - derivs)
        scale = 1.0 + np.abs(derivs)
        if np.any(err > _VALIDATE_RTOL * scale):
            j, i = np.unravel_index(np.argmax(err / scale), err.shape)
            raise ConfigurationError(
                f"member {j} fails the central-difference derivative check at "
                f"z={z[i]:.6g} (direction {eps!r}): got {derivs[j, i]:.6g}, "
                f"difference quotient {fd[j, i]:.6g}"
            )
    x = rng.uniform(-5.0, 5.0, _VALIDATE_SAMPLES).astype(np.complex128)
    vals, derivs = basis.values_and_derivatives(x)
    for name, arr in (("value", vals), ("derivative", derivs)):
        bad = np.abs(arr.imag) > _VALIDATE_REAL_TOL * (1.0 + np.abs(arr))
        if np.any(bad):
            j = int(np.argwhere(bad)[0][0])
            raise ConfigurationError(f"member {j} {name} is not real on the real line")
