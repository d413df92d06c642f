"""Real-coefficient univariate polynomials: roots, real-rootedness, interlacing.

Polynomials are 1-D float arrays of coefficients in ascending degree order
(``p[k]`` multiplies ``x**k``), the convention of ``numpy.polynomial``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import DegreeMismatch, DegreeZero, NotRealRooted

# Companion-matrix eigenvalues of products of near-equal roots carry
# O(sqrt(machine eps)) imaginary noise, hence the loose default.
REAL_ROOT_TOL = 1e-7

TRIM_REL = 1e-14


def trim(coeffs) -> np.ndarray:
    """Drop trailing coefficients below ``1e-14 * max|coeff|``."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    scale = np.abs(c).max()
    if scale == 0.0:
        return np.zeros(1)
    keep = np.nonzero(np.abs(c) > TRIM_REL * scale)[0]
    return c[: keep[-1] + 1].copy()


def degree(coeffs) -> int:
    return len(trim(coeffs)) - 1


def roots(coeffs) -> np.ndarray:
    """All complex roots via companion-matrix eigenvalues.

    Raises :class:`DegreeZero` on constant polynomials.
    """
    c = trim(coeffs)
    if len(c) < 2:
        raise DegreeZero("cannot extract roots of a constant polynomial")
    return npp.polyroots(c)


DEFLATE_REL = 1e-12


def deflate_zero_roots(coeffs, rel: float = DEFLATE_REL):
    """Split off the roots at the origin: returns (reduced coeffs, count).

    Low-order coefficients below ``rel * max|coeff|`` are numerically exact
    zeros (rank-deficient families produce them structurally). A root at the
    origin of multiplicity m otherwise splits under coefficient noise into a
    complex cluster of radius eps^(1/m), which would wreck any imaginary-part
    test, so the zeros are removed before root extraction.
    """
    c = trim(coeffs)
    scale = np.abs(c).max()
    k = 0
    while k < len(c) - 1 and abs(c[k]) <= rel * scale:
        k += 1
    return c[k:], k


def is_real_rooted(coeffs, tol: float = REAL_ROOT_TOL) -> bool:
    """True iff every root has ``|imag| <= tol * (1 + max |real part|)``.

    Roots at the origin are deflated exactly first (see
    :func:`deflate_zero_roots`); they count as real.
    """
    c, _ = deflate_zero_roots(coeffs)
    if len(c) < 2:
        return True
    r = npp.polyroots(c)
    scale = 1.0 + np.abs(np.real(r)).max()
    return bool(np.abs(np.imag(r)).max() <= tol * scale)


def real_roots(coeffs, tol: float = REAL_ROOT_TOL) -> np.ndarray:
    """Sorted real parts of the roots; raises :class:`NotRealRooted` if complex.

    Deflated origin roots are reported as exact zeros.
    """
    return _real_roots(*deflate_zero_roots(coeffs), tol)


def _real_roots(c: np.ndarray, nzero: int, tol: float) -> np.ndarray:
    """:func:`real_roots` of the output of :func:`deflate_zero_roots`."""
    if len(c) + nzero < 2:
        raise DegreeZero("cannot extract roots of a constant polynomial")
    if len(c) < 2:
        return np.zeros(nzero)
    r = npp.polyroots(c)
    scale = 1.0 + np.abs(np.real(r)).max()
    bad = np.abs(np.imag(r)).max()
    if bad > tol * scale:
        raise NotRealRooted(f"root imaginary part {bad:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return np.sort(np.concatenate([np.zeros(nzero), np.real(r)]))


def lambda_max(coeffs, tol: float = REAL_ROOT_TOL) -> float:
    """Largest root of a real-rooted polynomial."""
    return float(real_roots(coeffs, tol)[-1])


def interlaces(g, p, tol: float = REAL_ROOT_TOL) -> bool:
    """True iff the roots of ``g`` separate the roots of ``p``.

    Requires ``deg g == deg p - 1``; both must be real-rooted. The sorted
    roots b of p and a of g must satisfy b1 <= a1 <= b2 <= ... <= bn, with
    ``tol``-scaled slack on each comparison.
    """
    gd, pd = deflate_zero_roots(g), deflate_zero_roots(p)
    dg, dp = len(gd[0]) + gd[1] - 1, len(pd[0]) + pd[1] - 1
    if dg != dp - 1:
        raise DegreeMismatch(f"need deg g = deg p - 1, got {dg} and {dp}")
    a = _real_roots(*gd, tol)
    b = _real_roots(*pd, tol)
    slack = tol * (1.0 + max(np.abs(a).max(), np.abs(b).max()))
    for i, ai in enumerate(a):
        if not (b[i] - slack <= ai <= b[i + 1] + slack):
            return False
    return True


def has_common_interlacing(polys: Sequence, tol: float = REAL_ROOT_TOL) -> bool:
    """Exact test of the common-interlacing criterion.

    Real-rooted polynomials of one degree have a common interlacer iff their
    sorted roots interleave column by column, ``max_j r_i^(j) <= min_j
    r_(i+1)^(j)`` for every i (Marcus-Spielman-Srivastava, Interlacing
    Families I; Dedieu 1992). The comparison takes the ``tol``-scaled slack
    of :func:`interlaces`. Returns False if any member is not real-rooted;
    constant families and single members pass.
    """
    parts = [deflate_zero_roots(p) for p in polys]
    degs = {len(c) + nzero - 1 for c, nzero in parts}
    if len(degs) != 1:
        raise DegreeMismatch(f"mixed degrees {sorted(degs)}")
    if degs == {0}:
        return True
    try:
        r = np.array([_real_roots(c, nzero, tol) for c, nzero in parts])
    except NotRealRooted:
        return False
    slack = tol * (1.0 + np.abs(r).max())
    return bool(np.all(r[:, :-1].max(axis=0) <= r[:, 1:].min(axis=0) + slack))
