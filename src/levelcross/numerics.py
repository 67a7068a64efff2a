"""Floating-point helpers for the density assembly.

The quadratic forms of the density (y1, y2, y3, d1, d2, d3) and the mean
sums are plain sums, reduced as matmuls in ``density._basis_forms``: of
the power products of z^k for the monomial families (``MonomialBasis`` and
``WeightedMonomialBasis``), of the value and derivative products for every
other basis.  Compensation buys nothing there: y1, y3 and d3, and the
sums P1 and P2 that form d1 and d2 on the power route, add nonnegative
terms (Higham, *Accuracy and Stability of Numerical Algorithms*,
section 4).  The cancellation that matters is the determinant
Y1*Y3 - Y2^2, whose square root scales the whole density; it is formed as an
exactly-compensated difference of products via Dekker splitting.

``neumaier_sum`` is not on the density path; it is kept because the
benchmark tracer (``bench/tracing.py``) wraps it by name.
"""

from __future__ import annotations

import numpy as np

# Dekker's splitting constant for binary64: 2**27 + 1.
_SPLITTER = 134217729.0


def neumaier_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum ``terms`` along ``axis`` with Neumaier's compensated algorithm.

    Left-to-right over the axis; complex input is compensated componentwise.
    """
    terms = np.asarray(terms)
    if np.iscomplexobj(terms):
        return neumaier_sum(terms.real, axis) + 1j * neumaier_sum(terms.imag, axis)
    terms = np.moveaxis(terms, axis, 0)
    total = np.zeros(terms.shape[1:], dtype=np.float64)
    comp = np.zeros_like(total)
    for t in terms:
        partial = total + t
        swap = np.abs(total) >= np.abs(t)
        comp += np.where(swap, (total - partial) + t, (t - partial) + total)
        total = partial
    return total + comp


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (p, e) with p = fl(a*b) and a*b = p + e exactly."""
    p = a * b
    a_c = _SPLITTER * a
    a_hi = a_c - (a_c - a)
    a_lo = a - a_hi
    b_c = _SPLITTER * b
    b_hi = b_c - (b_c - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def diff_of_products(a, b, c, d):
    """Compute a*b - c*d with a single rounding-style accuracy.

    Safe head/tail evaluation of the cross-difference; avoids the massive
    cancellation that plain evaluation suffers when a*b is close to c*d.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    p1, e1 = _two_product(a, b)
    p2, e2 = _two_product(c, d)
    return (p1 - p2) + (e1 - e2)
