"""Real-coefficient univariate polynomials: roots, real-rootedness, interlacing.

Polynomials are 1-D float arrays of coefficients in ascending degree order
(``p[k]`` multiplies ``x**k``), the convention of ``numpy.polynomial``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DegreeMismatch, DegreeZero, NotRealRooted

# Companion-matrix eigenvalues of products of near-equal roots carry
# O(sqrt(machine eps)) imaginary noise, hence the loose default.
REAL_ROOT_TOL = 1e-7


def trim(coeffs) -> np.ndarray:
    """Drop trailing zero coefficients (one zero is kept for the zero polynomial).

    Only exact zeros go: a relative threshold would drop a genuine leading
    coefficient when the constant term is large (a monic polynomial with
    constant term beyond 1e14).
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    keep = np.flatnonzero(c)
    if len(keep) == 0:
        return np.zeros(1)
    return c[: keep[-1] + 1].copy()


DEFLATE_REL = 1e-12


def deflate_zero_roots(coeffs):
    """Split off the roots at the origin: returns (reduced coeffs, count).

    Low-order coefficients below ``DEFLATE_REL * max|coeff|`` are
    numerically exact zeros (rank-deficient families produce them
    structurally). A root at the origin of multiplicity m otherwise splits
    under coefficient noise into a complex cluster of radius eps^(1/m), which
    would wreck any imaginary-part test, so the zeros are removed before root
    extraction.
    """
    c = trim(coeffs)
    scale = np.abs(c).max()
    k = 0
    while k < len(c) - 1 and abs(c[k]) <= DEFLATE_REL * scale:
        k += 1
    return c[k:], k


def is_real_rooted(coeffs, tol: float = REAL_ROOT_TOL) -> bool:
    """True iff every root has ``|imag| <= tol * (1 + max |real part|)``.

    The test of :func:`real_roots`: roots at the origin are deflated exactly
    first (see :func:`deflate_zero_roots`) and count as real; constants pass.
    """
    try:
        real_roots(coeffs, tol)
    except NotRealRooted:
        return False
    except DegreeZero:
        pass
    return True


def real_roots(coeffs, tol: float = REAL_ROOT_TOL) -> np.ndarray:
    """Sorted real parts of the roots; raises :class:`NotRealRooted` if complex.

    Deflated origin roots are reported as exact zeros.
    """
    return next(iter_real_roots([coeffs], tol))


def iter_real_roots(polys: Sequence, tol: float = REAL_ROOT_TOL):
    """Yield :func:`real_roots` of each of ``polys`` in turn, from one
    eigensolve per coefficient length; a member that fails raises when its
    turn comes."""
    return _real_roots([deflate_zero_roots(p) for p in polys], tol)


def _real_roots(parts: Sequence, tol: float):
    """:func:`real_roots` of each output of :func:`deflate_zero_roots` in
    ``parts``, in turn.

    The one root extraction of the package: the eigenvalues of numpy's
    companion matrices (``numpy.polynomial.polynomial.polyroots``), accepted
    when every ``|imag| <= tol * (1 + max |real part|)``. Every member with
    the same number of coefficients goes to one eigensolve, and degree 1
    takes the closed form. The members are checked in order: the first that
    is constant raises :class:`DegreeZero` and the first with a complex root
    :class:`NotRealRooted`, with the roots of the members before it yielded.
    """
    stacks = {}
    for c, _ in parts:
        if len(c) > 2:
            stacks.setdefault(len(c), []).append(c)
    found = {}
    for m, members in stacks.items():
        stack = np.array(members)
        # numpy's companion matrix: ones below the diagonal, and the last
        # column less the coefficients over the leading one
        mats = np.zeros((len(stack), m - 1, m - 1))
        mats.reshape(len(stack), -1)[:, m - 1 :: m] = 1.0
        mats[:, :, -1] -= stack[:, :-1] / stack[:, -1:]
        found[m] = iter(np.linalg.eigvals(mats))
    for c, nzero in parts:
        if len(c) + nzero < 2:
            raise DegreeZero("cannot extract roots of a constant polynomial")
        if len(c) < 2:
            yield np.zeros(nzero)
            continue
        r = next(found[len(c)]) if len(c) > 2 else np.array([-c[0] / c[1]])
        scale = 1.0 + np.abs(np.real(r)).max()
        bad = np.abs(np.imag(r)).max()
        if bad > tol * scale:
            raise NotRealRooted(f"root imaginary part {bad:.3e} exceeds {tol:.1e} * {scale:.3e}")
        yield np.sort(np.concatenate([np.zeros(nzero), np.real(r)]))


def lambda_max(coeffs, tol: float = REAL_ROOT_TOL) -> float:
    """Largest root of a real-rooted polynomial."""
    return float(real_roots(coeffs, tol)[-1])


def has_common_interlacing(polys: Sequence, tol: float = REAL_ROOT_TOL) -> bool:
    """Exact test of the common-interlacing criterion.

    Real-rooted polynomials of one degree have a common interlacer iff their
    sorted roots interleave column by column, ``max_j r_i^(j) <= min_j
    r_(i+1)^(j)`` for every i (Marcus-Spielman-Srivastava, Interlacing
    Families I; Dedieu 1992). Each comparison has the slack
    ``tol * (1 + max |root|)``. Returns False if any member is not
    real-rooted; constant families and single members pass.
    """
    parts = [deflate_zero_roots(p) for p in polys]
    degs = {len(c) + nzero - 1 for c, nzero in parts}
    if len(degs) != 1:
        raise DegreeMismatch(f"mixed degrees {sorted(degs)}")
    if degs == {0}:
        return True
    try:
        r = np.array(list(_real_roots(parts, tol)))
    except NotRealRooted:
        return False
    slack = tol * (1.0 + np.abs(r).max())
    return bool(np.all(r[:, :-1].max(axis=0) <= r[:, 1:].min(axis=0) + slack))
