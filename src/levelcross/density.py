"""Closed-form expected density of complex level crossings of random sums.

The random sum is S_N(z) = sum_j (a_j + i b_j) f_j(z) with independent real
normal coefficients and a holomorphic basis real on the real line.  The
expected number of solutions of S_N(z) = K in a region T is the area integral
of the density h(z) evaluated here.

Evaluators
----------
``zero_mean_density``      per-index variances, zero means (general closed form)
``equal_variance_density`` common variance sigma^2 for every a_j and b_j
``general_mean_density``   per-index variances and arbitrary means
``zero_level_density``     K = 0 rational form (no exponential factor)
``brownian_density_direct`` Brownian observations by explicit suffix sums;
                           theorem 5 itself is ``zero_mean_density`` on the
                           prefix basis of ``build_brownian_basis``

Oracles
-------
``moments_path_density``          conditional-moment reconstruction, zero means
``conditioned_jacobian_density``  linear-Gaussian conditioning, any means

All closed-form evaluators accept scalar or array ``z`` and return a parts
record exposing the intermediate quadratic forms next to the density value
``h``; everything is a pure function of immutable inputs and safe to call
concurrently.  The two oracles are deliberately scalar and slow: they recompute h
from first principles (conditional moments of the Jacobian determinant times
the Gaussian density of the field) without sharing the assembled formulas,
and exist to cross-check the closed forms.

Theorems 2, 3 and 4 share one set of quadratic forms (y1, y2, y3, d1, d2,
d3 and the mean sums), which ``_basis_forms`` reduces over blocks of points
by one of two routes, chosen by the structure of the basis.  The monomial
families, ``MonomialBasis`` and its subclass ``WeightedMonomialBasis``,
take the power route: the weights fold into the variances and means
(w_j^2 var_j, w_j mu_j), and the derivative f_j' = j z^(j-1) is a value
one index lower, so the forms come from the powers z^k = u_k + i v_k
alone: the interleaved squares (u_k^2, v_k^2) reduced against five weight
rows, plus the cross products u_k v_k against two.  Every other basis
takes the general route over eight value/derivative products.  The power
route writes d1 and d2 through the sums P1, P2 (nonnegative terms) and C,
not as the half-sums (S1 +- D1)/2 of a Hermitian and a bilinear sum, which
cancel when var_a and var_b are far apart.  ``_quadratic_forms`` adds the
determinant for theorems 2 and 4; theorem 3 reads B0 = y1, B1 = d1 and
B2 = d3/2 from the unit-variance forms.  Both routes form the mean sums
of theorem 4 from the real rows (mu_a, mu_b): one real matmul over the
interleaved real and imaginary parts of the table gives sum mu_a f and
sum mu_b f, and likewise against f'.

Conjugate pairs.  On a basis real on the real line,
conj S(conj z) = sum conj(eta_j) f_j(z), so h for the means mu at the level
K, evaluated at conj z, is h for conj mu at conj K, evaluated at z.  The
conjugated law keeps every variance, so both share the forms y1 ... d3,
det and d0 at z; only the level and the mean sums change.  With
``mirror=True``, ``zero_mean_density`` and ``general_mean_density`` return
the pair mean (h(z) + h(conj z)) / 2 from that one set of forms.  The
level-free terms (``_level_free_quotients``) are formed once per point; the
second term repeats only the arithmetic of the level, at conj K, and for
theorem 4 of the mean sums of conj mu, which the real rows give with no
second product.  Where the law is its own conjugate (every mu_b zero and K
real) the pair mean is h, bit for bit.  The two terms agree with h at z and
at conj z only to rounding: the table and the forms at conj z are the exact
conjugates of those at z, but the assembly's intermediates (r, q2 r,
|d1 + i d2|^2) are not invariant under the conjugation, and its braces
cancel by factors of 1e5 to 1e6 at degree 40 near |z| = 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    ConfigurationError,
    DegenerateCovarianceError,
    DegeneratePointError,
)
from .model import (
    BasisFamily,
    CoefficientProfile,
    MonomialBasis,
    TimeGrid,
    WeightedMonomialBasis,
    _check_sizes,
    as_level,
    build_brownian_basis,
)
# The density does not call neumaier_sum; the name stays bound here because
# the benchmark tracer wraps it at this module.
from .numerics import diff_of_products, neumaier_sum  # noqa: F401

__all__ = [
    "DensityParts",
    "EqualVarianceParts",
    "DensityPartsGeneral",
    "zero_mean_density",
    "equal_variance_density",
    "general_mean_density",
    "zero_level_density",
    "brownian_density_direct",
    "moments_path_density",
    "conditioned_jacobian_density",
]

# Relative floor under which Y1*Y3 - Y2^2 is treated as singular.
_DEGENERACY_FLOOR = 1e-14

# Point-terms (points times basis size) per block of basis evaluation and
# reduction.  The general route keeps about 104 B per point-term (values,
# derivatives, eight product rows and one temporary), about 850 kB per
# block.  The power route keeps about 40 B (values, the interleaved squares
# and one cross row), about 650 kB per block of its own, larger size: at
# 16384 it measured faster than at 8192 or 32768, while 16384 on the general
# route was slower than 8192.
_BLOCK_TERMS = 8192
_POWER_BLOCK_TERMS = 16384


# ---------------------------------------------------------------------------
# Parts records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityParts:
    """Quadratic forms of one zero-mean density evaluation.

    y1, y2, y3 are the covariance entries of (Re S, Im S); d0 = sqrt of their
    determinant; d1, d2, d3 the mixed value/derivative accumulations entering
    the conditional Jacobian moment; h the density value.
    """

    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    h: np.ndarray


@dataclass(frozen=True)
class EqualVarianceParts:
    """Hermitian sums of the equal-variance reduction.

    b0 = sum |f_j|^2, b1 = sum conj(f_j) f_j', b2 = sum |f_j'|^2.
    """

    b0: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    sigma2: float
    h: np.ndarray


@dataclass(frozen=True)
class DensityPartsGeneral(DensityParts):
    """Quadratic forms of one general-mean density evaluation.

    The plain forms y1 ... d3 are those of ``DensityParts``: means do not
    enter the covariance, so they are the same as for the zero-mean profile
    with these variances.  ex1, ex2 are the means of (Re S, Im S);
    m = sum E(a_j + i b_j) f_j'(z) is the derivative of the mean field.
    """

    m: np.ndarray
    ex1: np.ndarray
    ex2: np.ndarray


# ---------------------------------------------------------------------------
# Shared accumulation
# ---------------------------------------------------------------------------


def _col(arr: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a per-index vector for broadcasting against (count,) + z.shape."""
    return arr.reshape(arr.shape + (1,) * ndim)


def _basis_blocks(basis: BasisFamily, points: np.ndarray, terms: int = _BLOCK_TERMS, **request):
    """Yield (block, values, derivatives) over consecutive blocks of ``points``.

    ``points`` is 1-D.  A block holds at most ``terms`` point-terms (points
    times ``basis.count``), so the scratch arrays of one evaluation stay the
    same size whatever the number of points or the degree.  ``request`` is
    passed on to ``values_and_derivatives`` (``derivatives=False`` on the
    power route, which then gets None for the derivatives).
    """
    step = max(1, terms // basis.count)
    for start in range(0, points.size, step):
        block = slice(start, start + step)
        yield (block, *basis.values_and_derivatives(points[block], **request))


def _weighted_sums(weights, vals, derivs):
    """Every weight row summed against every basis product, in one matmul.

    With f = u + iv and f' = P + iQ the products are u^2, v^2, uv, uP, vQ,
    uQ, vP and P^2 + Q^2.  Returns the sums over the index axis with shape
    (rows, 8) + z.shape.
    """
    n = vals.shape[0]
    u, v, p, q = vals.real, vals.imag, derivs.real, derivs.imag
    prods = np.empty((n, 8) + vals.shape[1:])
    for row, (x, y) in enumerate(((u, u), (v, v), (u, v), (u, p), (v, q), (u, q), (v, p), (p, p))):
        np.multiply(x, y, out=prods[:, row])
    prods[:, 7] += q * q
    sums = weights @ prods.reshape(n, -1)
    return sums.reshape((weights.shape[0],) + prods.shape[1:])


def _mean_sums(mu, table):
    """Sum the real rows ``mu`` = (mu_a, mu_b) against the complex ``table``.

    One real matmul over the interleaved real and imaginary parts of the
    table gives sum mu_a f and sum mu_b f, from which the sums of both mu
    and conj(mu) follow with no complex product.
    """
    return (mu @ np.ascontiguousarray(table).view(np.float64)).view(np.complex128)


def _product_forms(var_a, var_b, mu, basis, points):
    """Return (forms, cross, mean_sums) at ``points`` from value/derivative products.

    The general route: ``forms`` holds y1, y2, y3, d3 and ``cross`` d1, d2,
    reduced by ``_weighted_sums`` per block; ``mean_sums`` holds the sums of
    the real rows ``mu`` = (mu_a, mu_b) against f and against f' (see
    ``_mean_sums``), shape (2, 2, points), or is None without ``mu``.
    """
    weights = np.stack((var_a, var_b))
    forms = np.empty((4, points.size))
    cross = np.empty((2, points.size), dtype=np.complex128)
    mean_sums = None if mu is None else np.empty((2, 2, points.size), dtype=np.complex128)
    for block, vals, derivs in _basis_blocks(basis, points):
        a, b = _weighted_sums(weights, vals, derivs)
        a_uu, a_vv, a_uv, a_up, a_vq, a_uq, a_vp, a_pp = a
        b_uu, b_vv, b_uv, b_up, b_vq, b_uq, b_vp, b_pp = b
        forms[:, block] = a_uu + b_vv, a_uv - b_uv, b_uu + a_vv, a_pp + b_pp
        cross[:, block] = (a_up + b_vq) + 1j * (a_uq - b_vp), (b_up + a_vq) + 1j * (b_uq - a_vp)
        if mu is not None:
            mean_sums[..., block] = _mean_sums(mu, vals), _mean_sums(mu, derivs)
    return forms, cross, mean_sums


def _power_forms(var_a, var_b, mu, basis, points):
    """Return what ``_product_forms`` returns, for the plain powers z^j of ``basis``.

    With z^k = u_k + i v_k and f_j' = j z^(j-1), every derivative product is
    a value product one index lower, so the basis is asked for the values
    alone, in blocks of ``_POWER_BLOCK_TERMS`` point-terms.  Per block, the
    interleaved squares (u_k^2, v_k^2) of the values, one contiguous pass,
    are reduced in one matmul against five weight rows a, b, j^2 (a + b),
    j a and j b, and the cross products u_k v_k in a second against the two
    rows a - b and j (a - b)  (j = k + 1, a = var_a, b = var_b).  Each square
    row comes out as a pair of sums, over u^2 and over v^2 (A_u, A_v for
    row a, and so on), and
    y1 = A_u + B_v,  y3 = B_u + A_v,  d3 = D_u + D_v,
    P1 = sum j (a_j u_k^2 + b_j v_k^2) = JA_u + JB_v,
    P2 = sum j (b_j u_k^2 + a_j v_k^2) = JB_u + JA_v,
    each the sum of two sums of nonnegative terms; the cross rows give y2
    and C = sum j (a_j - b_j) u_k v_k.  From u_j = x u_k - y v_k and
    v_j = y u_k + x v_k at z = x + iy,
    d1 = (x P1 - y C) + i (x C - y P2) and d2 = (x P2 + y C) - i (x C + y P1).
    """
    a, b = var_a, var_b
    n = a.size
    j = np.arange(1.0, n)
    # The derivative weights of term j sit at row k = j - 1.
    square_weights = np.zeros((5, n))
    square_weights[0], square_weights[1] = a, b
    square_weights[2, :-1] = j * j * (a[1:] + b[1:])
    square_weights[3, :-1], square_weights[4, :-1] = j * a[1:], j * b[1:]
    cross_weights = np.zeros((2, n))
    cross_weights[0] = a - b
    cross_weights[1, :-1] = j * (a[1:] - b[1:])
    if mu is not None:
        mu_deriv = np.zeros_like(mu)
        mu_deriv[..., :-1] = j * mu[..., 1:]
    # Interleaved like the squares: (u^2 sum, v^2 sum) per point.
    square_sums = np.empty((5, 2 * points.size))
    cross_sums = np.empty((2, points.size))
    mean_sums = None if mu is None else np.empty((2, 2, points.size), dtype=np.complex128)
    for block, vals, _ in _basis_blocks(basis, points, _POWER_BLOCK_TERMS, derivatives=False):
        pairs = slice(2 * block.start, 2 * block.stop)
        np.matmul(square_weights, np.square(vals.view(np.float64)), out=square_sums[:, pairs])
        np.matmul(cross_weights, vals.real * vals.imag, out=cross_sums[:, block])
        if mu is not None:
            # Two products, not one over mu and mu_deriv stacked: with the
            # complex means the stacked matmul was no faster
            # (general_mean_density on 7200 points, one BLAS thread: equal
            # within 1% at N = 2 and 10, 3% slower at N = 40).
            mean_sums[..., block] = _mean_sums(mu, vals), _mean_sums(mu_deriv, vals)
    (a_u, a_v), (b_u, b_v), (d_u, d_v), (ja_u, ja_v), (jb_u, jb_v) = (
        square_sums.reshape(5, -1, 2).transpose(0, 2, 1)
    )
    y1, y3, d3 = a_u + b_v, b_u + a_v, d_u + d_v
    p1, p2 = ja_u + jb_v, jb_u + ja_v
    y2, c = cross_sums
    x, y = points.real, points.imag
    cross = np.empty((2, points.size), dtype=np.complex128)
    cross[0].real, cross[0].imag = x * p1 - y * c, x * c - y * p2
    cross[1].real, cross[1].imag = x * p2 + y * c, -(x * c + y * p1)
    return (y1, y2, y3, d3), cross, mean_sums


def _basis_forms(var_a, var_b, mu, basis, points):
    """Return (forms, cross, mean_sums) at the 1-D ``points`` by the structure of ``basis``.

    The one choice of route.  The monomial families (``MonomialBasis`` and
    its subclass ``WeightedMonomialBasis``) take ``_power_forms``: a member
    w_j z^j whose coefficient has variances (var_a_j, var_b_j) and means
    (mu_a_j, mu_b_j) is the power z^j with variances w_j^2 var_a_j,
    w_j^2 var_b_j and means w_j mu_a_j, w_j mu_b_j, so the weights are
    folded into the laws and the route is handed the plain powers.  Every
    other basis takes ``_product_forms``.  The arguments are arrays, not a
    ``CoefficientProfile``: a zero weight folds into a zero variance.
    ``mu`` is None when the mean sums are not wanted, else the real rows
    (mu_a, mu_b) of ``_mean_sums``.
    """
    if not isinstance(basis, MonomialBasis):
        return _product_forms(var_a, var_b, mu, basis, points)
    if isinstance(basis, WeightedMonomialBasis):
        w = basis.weights
        w2 = w * w
        var_a, var_b = w2 * var_a, w2 * var_b
        mu = None if mu is None else w * mu
        basis = MonomialBasis(basis.degree)
    return _power_forms(var_a, var_b, mu, basis, points)


def _quadratic_forms(profile, basis, z, mu=None):
    """Return ((y1, y2, y3, det, d0, d1, d2, d3), mean_sums) at z.

    ``mean_sums`` is None without ``mu``, else the sums of the real rows
    ``mu`` = (mu_a, mu_b) against f and f' (see ``_mean_sums``), shape
    (2, 2) + z.shape: ((sum mu_a f, sum mu_b f), (sum mu_a f', sum mu_b f')).
    ``_basis_forms`` picks the route, ``_power_forms`` or ``_product_forms``.

    Plain summation is enough for them: y1, y3, d3 and, on the power route,
    P1 and P2 add nonnegative terms, and the one cancellation that matters,
    y1*y3 - y2^2, goes through the compensated ``diff_of_products``.  The
    power route builds d1, d2 from P1, P2 and C rather than as
    (S1 +- D1)/2 with S1 = sum (a+b) conj(f) f' and D1 = sum (a-b) f f':
    that half-sum cancels when var_a and var_b differ by orders of
    magnitude.

    Raises ``DegenerateCovarianceError`` when the determinant falls below the
    relative floor; the density is undefined there.
    """
    z = np.asarray(z, dtype=np.complex128)
    forms, cross, mean_sums = _basis_forms(profile.var_a, profile.var_b, mu, basis, z.reshape(-1))
    y1, y2, y3, d3 = (form.reshape(z.shape) for form in forms)
    d1, d2 = cross.reshape((2,) + z.shape)
    det = diff_of_products(y1, y3, y2, y2)
    if np.any(det <= _DEGENERACY_FLOOR * y1 * y3):
        raise DegenerateCovarianceError(
            "covariance of (Re S, Im S) is numerically singular at an evaluation point"
        )
    d0 = np.sqrt(det)
    if mean_sums is not None:
        mean_sums = mean_sums.reshape(mean_sums.shape[:-1] + z.shape)
    return (y1, y2, y3, det, d0, d1, d2, d3), mean_sums


def _level_free_quotients(forms):
    """|d1|^2, |d2|^2, |d1 + i d2|^2, y2 + y3, y1 + y2 and y2, each over d0.

    The terms of theorems 2 and 4 that hold neither K nor the means.  Each
    |d|^2 y/det is taken as (|d|^2/d0) (y/d0), and q/d0^3 as (q/det)/d0:
    |d1|^2 y and d0*det pass the double range from |z| of about 20 at degree
    40, while each quotient stays in range.
    """
    y1, y2, y3, _, d0, d1, d2, _ = forms
    ad1 = d1.real**2 + d1.imag**2
    ad2 = d2.real**2 + d2.imag**2
    d12 = d1 + 1j * d2
    ad12 = d12.real**2 + d12.imag**2
    return ad1 / d0, ad2 / d0, ad12 / d0, (y2 + y3) / d0, (y1 + y2) / d0, y2 / d0


def _zero_mean_h(forms, quotients, k1, k2):
    """Assemble the zero-mean closed form from its forms and ``_level_free_quotients``."""
    y1, y2, y3, det, d0, _, _, d3 = forms
    a1, a2, a12, s23, s12, s2 = quotients
    q1 = k1 * y3 - k2 * y2
    q2 = k1 * y2 - k2 * y1
    r_d0 = (k1 * (y2 + y3) - k2 * (y1 + y2)) / d0
    braces = (
        d3
        - a1 * (s23 - (q1 / det) * r_d0)
        - a2 * (s12 - (q2 / det) * r_d0)
        + a12 * (s2 - (q1 / det) * (q2 / d0))
    )
    expo = -(k1 * k1 * y3 + k2 * k2 * y1 - 2.0 * k1 * k2 * y2) / (2.0 * det)
    return np.exp(expo) / (2.0 * np.pi * d0) * braces


def _general_mean_h(forms, trace_term, kt1, kt2, m):
    """Assemble the general-mean closed form at the shifted level kt = K - E(S)."""
    y1, y2, y3, det, d0, d1, d2, _ = forms
    q1 = kt1 * y3 - kt2 * y2
    q2 = kt1 * y2 - kt2 * y1
    cond_deriv = m + (q1 * d1 - 1j * q2 * d2) / det
    edet = trace_term + cond_deriv.real**2 + cond_deriv.imag**2
    expo = -(kt1 * kt1 * y3 + kt2 * kt2 * y1 - 2.0 * kt1 * kt2 * y2) / (2.0 * det)
    return edet * np.exp(expo) / (2.0 * np.pi * d0)


# ---------------------------------------------------------------------------
# Closed-form evaluators
# ---------------------------------------------------------------------------


def zero_mean_density(
    profile: CoefficientProfile, basis: BasisFamily, level, z, mirror: bool = False
) -> DensityParts:
    """Density for zero-mean coefficients with per-index variances.

    Requires ``profile.has_zero_means``; use ``general_mean_density`` for
    coefficients with drift.  With ``mirror`` the record's h is the
    conjugate-pair mean (h(z) + h(conj z)) / 2, formed as the mean of h at
    K and at conj K on the one set of forms at z (see the module notes).
    """
    _check_sizes(profile, basis)
    if not profile.has_zero_means:
        raise ContractViolationError(
            "zero_mean_density requires a zero-mean profile; use general_mean_density"
        )
    level = as_level(level)
    forms, _ = _quadratic_forms(profile, basis, z)
    y1, y2, y3, det, d0, d1, d2, d3 = forms
    quotients = _level_free_quotients(forms)
    h = _zero_mean_h(forms, quotients, level.k1, level.k2)
    if mirror and level.k2 != 0.0:
        h = 0.5 * (h + _zero_mean_h(forms, quotients, level.k1, -level.k2))
    return DensityParts(y1=y1, y2=y2, y3=y3, d0=d0, d1=d1, d2=d2, d3=d3, h=h)


def equal_variance_density(sigma2: float, basis: BasisFamily, level, z) -> EqualVarianceParts:
    """Density when every a_j and b_j has the same variance sigma^2.

    h = exp(-|K|^2 / (2 sigma^2 B0)) / (pi B0)
        * { B2 - (|B1| / B0)^2 (B0 - |K|^2 / (2 sigma^2)) }.
    """
    if sigma2 <= 0.0:
        raise ConfigurationError(f"sigma2 must be positive, got {sigma2}")
    level = as_level(level)
    z = np.asarray(z, dtype=np.complex128)
    # B0, B1 and B2 are y1, d1 and d3/2 of the unit-variance forms.  They are
    # read here, not through _quadratic_forms, whose y1*y3 passes the double
    # range at high degree.
    unit = np.ones(basis.count)
    (y1, _, _, d3), (d1, _), _ = _basis_forms(unit, unit, None, basis, z.reshape(-1))
    b0, b1, b2 = (form.reshape(z.shape) for form in (y1, d1, 0.5 * d3))
    if np.any(b0 <= 0.0):
        raise DegeneratePointError("all basis functions vanish at an evaluation point")
    ksq = level.k1**2 + level.k2**2
    # |B1|^2 and B0^2 overflow at high degree where |B1| / B0 does not.
    ratio = np.abs(b1) / b0
    braces = b2 - (ratio * ratio) * (b0 - ksq / (2.0 * sigma2))
    h = np.exp(-ksq / (2.0 * sigma2 * b0)) / (np.pi * b0) * braces
    return EqualVarianceParts(b0=b0, b1=b1, b2=b2, sigma2=float(sigma2), h=h)


def general_mean_density(
    profile: CoefficientProfile, basis: BasisFamily, level, z, mirror: bool = False
) -> DensityPartsGeneral:
    """Density for arbitrary per-index means and variances.

    The field (Re S, Im S) keeps the zero-mean covariance (means do not enter
    second central moments); conditioning on S = K shifts the level by the
    field mean and adds the mean-derivative m to the conditional expectation
    of the coefficient polynomial's derivative.  Concretely, with
    kt = K - E(S) and q1 = kt1*y3 - kt2*y2, q2 = kt1*y2 - kt2*y1:

        E(det grad | S = K) = trace term + |m + (q1 d1 - i q2 d2) / det|^2

    multiplied by the Gaussian density of S at K.  With all means zero this
    reduces exactly to ``zero_mean_density``.

    With ``mirror`` the record's h is the conjugate-pair mean
    (h(z) + h(conj z)) / 2, the mean of h for (mu, K) and for
    (conj mu, conj K) on the one set of forms at z; the mean sums of both
    laws come from the real rows mu_a and mu_b.  ex1, ex2 and m stay those
    of mu.
    """
    _check_sizes(profile, basis)
    level = as_level(level)
    forms, ((ea, eb), (ma, mb)) = _quadratic_forms(
        profile, basis, z, np.stack((profile.mu_a, profile.mu_b))
    )
    ex, m = ea + 1j * eb, ma + 1j * mb
    ex1, ex2 = ex.real, ex.imag
    y1, y2, y3, det, d0, d1, d2, d3 = forms
    a1, a2, a12, s23, s12, s2 = _level_free_quotients(forms)
    trace_term = d3 - a1 * s23 - a2 * s12 + a12 * s2
    h = _general_mean_h(forms, trace_term, level.k1 - ex1, level.k2 - ex2, m)
    if mirror and (level.k2 != 0.0 or np.any(profile.mu_b)):
        # conj(mu) sums to ea - i eb against f and ma - i mb against f'; its level is conj K.
        ex_c = ea - 1j * eb
        h_c = _general_mean_h(
            forms, trace_term, level.k1 - ex_c.real, -level.k2 - ex_c.imag, ma - 1j * mb)
        h = 0.5 * (h + h_c)
    return DensityPartsGeneral(
        y1=y1, y2=y2, y3=y3, d0=d0, d1=d1, d2=d2, d3=d3, h=h, m=m, ex1=ex1, ex2=ex2,
    )


def zero_level_density(profile: CoefficientProfile, basis: BasisFamily, z):
    """Zero-mean density at K = 0: the rational (exponential-free) form.

    h = (d0^2 d3 - |d1|^2 (y2 + y3) - |d2|^2 (y1 + y2) + |d1 + i d2|^2 y2)
        / (2 pi d0^3).
    """
    _check_sizes(profile, basis)
    if not profile.has_zero_means:
        raise ContractViolationError("zero_level_density requires a zero-mean profile")
    (y1, y2, y3, det, d0, d1, d2, d3), _ = _quadratic_forms(profile, basis, z)
    ad1 = d1.real**2 + d1.imag**2
    ad2 = d2.real**2 + d2.imag**2
    d12 = d1 + 1j * d2
    ad12 = d12.real**2 + d12.imag**2
    # The numerator is divided by d0^2 term by term, each factor by d0:
    # det*d3 and d0*det overflow from |z| of about 20 at degree 40.
    braces = (
        d3
        - (ad1 / d0) * ((y2 + y3) / d0)
        - (ad2 / d0) * ((y1 + y2) / d0)
        + (ad12 / d0) * (y2 / d0)
    )
    return braces / (2.0 * np.pi * d0)


def brownian_density_direct(inner: BasisFamily, grid: TimeGrid, level, z) -> DensityParts:
    """Theorem 5 through the expanded per-increment sums.

    ``zero_mean_density`` on the prefix basis and increment profile that
    ``build_brownian_basis`` returns evaluates the same quantity.  Here only
    the increment variances (and the checks of the grid) come from that
    construction: the suffix sums of the inner basis are formed explicitly
    and the quadratic forms accumulated per increment, as the expanded
    statement displays them.  Kept as an independent arithmetic path for
    testing.
    """
    _, profile = build_brownian_basis(inner, grid)
    gaps = profile.var_a
    level = as_level(level)
    z = np.asarray(z, dtype=np.complex128)
    vals, derivs = inner.values_and_derivatives(z)
    rev = slice(None, None, -1)
    su = np.cumsum(vals.real[rev], axis=0)[rev]   # sum_{j>=k} u_j
    sv = np.cumsum(vals.imag[rev], axis=0)[rev]
    sup = np.cumsum(derivs.real[rev], axis=0)[rev]
    svp = np.cumsum(derivs.imag[rev], axis=0)[rev]
    g = _col(gaps, z.ndim)
    y1 = np.sum(g * (su * su + sv * sv), axis=0)
    y2 = np.zeros_like(y1)  # equal per-increment variances in both components
    y3 = y1
    d1 = np.sum(g * (su - 1j * sv) * (sup + 1j * svp), axis=0)
    d2 = d1
    d3 = np.sum(2.0 * g * (sup * sup + svp * svp), axis=0)
    det = y1 * y3 - y2 * y2
    if np.any(det <= _DEGENERACY_FLOOR * y1 * y3):
        raise DegenerateCovarianceError("singular covariance in direct evaluation")
    d0 = np.sqrt(det)
    forms = (y1, y2, y3, det, d0, d1, d2, d3)
    h = _zero_mean_h(forms, _level_free_quotients(forms), level.k1, level.k2)
    return DensityParts(y1=y1, y2=y2, y3=y3, d0=d0, d1=d1, d2=d2, d3=d3, h=h)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _conditional_coefficient_means(profile, basis, level, z):
    """E(a_j | S = K) and E(b_j | S = K) for a zero-mean profile (scalar z)."""
    level = as_level(level)
    vals, _ = basis.values_and_derivatives(complex(z), derivatives=False)
    u, v = vals.real, vals.imag
    va, vb = profile.var_a, profile.var_b
    y1 = float(np.sum(va * u * u + vb * v * v))
    y2 = float(np.sum((va - vb) * u * v))
    y3 = float(np.sum(vb * u * u + va * v * v))
    det = y1 * y3 - y2 * y2
    if det <= 0.0:
        raise DegenerateCovarianceError("singular covariance")
    q1 = level.k1 * y3 - level.k2 * y2
    q2 = level.k1 * y2 - level.k2 * y1
    mean_a = va * (q1 * u - q2 * v) / det
    mean_b = -vb * (q1 * v + q2 * u) / det
    return mean_a, mean_b


def moments_path_density(profile: CoefficientProfile, basis: BasisFamily, level, z) -> float:
    """Density reconstructed from conditional moments (zero means, scalar z).

    Independent oracle for ``zero_mean_density``: builds the conditional
    means and pairwise conditional covariances of the coefficients given
    S(z) = K, assembles the conditional expectation of the Jacobian
    determinant by direct double summation over index pairs, and multiplies
    by the joint Gaussian density of (Re S, Im S) at the level.  No part of
    the assembled closed form is reused.
    """
    _check_sizes(profile, basis)
    if not profile.has_zero_means:
        raise ContractViolationError("moments_path_density requires a zero-mean profile")
    level = as_level(level)
    zc = complex(z)
    vals, derivs = basis.values_and_derivatives(zc)
    u, v = vals.real, vals.imag
    up, vp = derivs.real, derivs.imag
    va, vb = profile.var_a, profile.var_b

    y1 = float(np.sum(va * u * u + vb * v * v))
    y2 = float(np.sum((va - vb) * u * v))
    y3 = float(np.sum(vb * u * u + va * v * v))
    det = y1 * y3 - y2 * y2
    if det <= 0.0:
        raise DegenerateCovarianceError("singular covariance of (Re S, Im S)")

    mean_a, mean_b = _conditional_coefficient_means(profile, basis, level, zc)

    uu = np.outer(u, u)
    vv = np.outer(v, v)
    uv = np.outer(u, v)
    vu = np.outer(v, u)
    vaa = np.outer(va, va)
    vbb = np.outer(vb, vb)
    vab = np.outer(va, vb)
    vba = np.outer(vb, va)
    cov_aa = np.diag(va) - vaa * (y3 * uu - y2 * (uv + vu) + y1 * vv) / det
    cov_bb = np.diag(vb) - vbb * (y1 * uu + y2 * (uv + vu) + y3 * vv) / det
    cov_ab = -vab * (y1 * vu - y2 * (uu - vv) - y3 * uv) / det
    cov_ba = -vba * (y1 * uv - y2 * (uu - vv) - y3 * vu) / det

    m_aa = cov_aa + np.outer(mean_a, mean_a)
    m_bb = cov_bb + np.outer(mean_b, mean_b)
    m_ab = cov_ab + np.outer(mean_a, mean_b)
    m_ba = cov_ba + np.outer(mean_b, mean_a)

    sym = np.outer(up, up) + np.outer(vp, vp)
    skew = np.outer(vp, up) - np.outer(up, vp)
    expected_det = float(np.sum((m_aa + m_bb) * sym + (m_ab - m_ba) * skew))

    expo = -(level.k1**2 * y3 - 2.0 * level.k1 * level.k2 * y2 + level.k2**2 * y1) / (2.0 * det)
    joint_density = np.exp(expo) / (2.0 * np.pi * np.sqrt(det))
    return expected_det * joint_density


def conditioned_jacobian_density(profile: CoefficientProfile, basis: BasisFamily, level, z) -> float:
    """Density via generic linear-Gaussian conditioning (any means, scalar z).

    Stacks the coefficient vector w = (a, b) with its diagonal covariance,
    conditions on the linear image S(z) = K, and evaluates the conditional
    mean of the Jacobian quadratic form as trace(Q Sigma_c) + m_c' Q m_c,
    times the Gaussian density of S(z) at K.  Works for arbitrary means and
    serves as the oracle for ``general_mean_density``.
    """
    _check_sizes(profile, basis)
    level = as_level(level)
    vals, derivs = basis.values_and_derivatives(complex(z))
    u, v = vals.real, vals.imag
    up, vp = derivs.real, derivs.imag
    n = profile.size

    mean_w = np.concatenate([profile.mu_a, profile.mu_b])
    cov_w = np.concatenate([profile.var_a, profile.var_b])  # diagonal entries
    coeff = np.zeros((2, 2 * n))
    coeff[0, :n], coeff[0, n:] = u, -v
    coeff[1, :n], coeff[1, n:] = v, u

    sigma_xx = (coeff * cov_w) @ coeff.T
    det = np.linalg.det(sigma_xx)
    if det <= 0.0:
        raise DegenerateCovarianceError("singular covariance of (Re S, Im S)")
    sigma_xx_inv = np.linalg.inv(sigma_xx)
    gain = (cov_w[:, None] * coeff.T) @ sigma_xx_inv            # Sigma C' Sigma_xx^-1
    resid = np.array([level.k1, level.k2]) - coeff @ mean_w
    mean_c = mean_w + gain @ resid
    sigma_c = np.diag(cov_w) - gain @ (coeff * cov_w)

    # Jacobian determinant of (x, y) -> (Re S, Im S) as a quadratic form in w;
    # equals |S'(z)|^2, verified blockwise: [[sym, skew], [-skew, sym]].
    sym = np.outer(up, up) + np.outer(vp, vp)
    skew = np.outer(vp, up) - np.outer(up, vp)
    quad = np.block([[sym, skew], [-skew, sym]])

    expected_det = float(np.trace(quad @ sigma_c) + mean_c @ quad @ mean_c)
    density = np.exp(-0.5 * resid @ sigma_xx_inv @ resid) / (2.0 * np.pi * np.sqrt(det))
    return expected_det * density
