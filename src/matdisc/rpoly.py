"""Real-coefficient univariate polynomials: roots, real-rootedness, interlacing.

Polynomials are 1-D float arrays of coefficients in ascending degree order
(``p[k]`` multiplies ``x**k``), the convention of ``numpy.polynomial``. A
2-D array is a stack of polynomials, one per row.
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


def deflate_zero_roots(stack: np.ndarray) -> np.ndarray:
    """The number of roots at the origin of each row of a 2-D stack whose
    rows end in their leading coefficient.

    Low-order coefficients below ``DEFLATE_REL * max|coeff|`` of their row
    are numerically exact zeros (rank-deficient families produce them
    structurally); the count stops at the first larger one, which the
    largest coefficient is. A root at the origin of multiplicity m otherwise
    splits under coefficient noise into a complex cluster of radius
    eps^(1/m), which would wreck any imaginary-part test, so the zeros are
    removed before root extraction.
    """
    a = np.abs(stack)
    return (a > DEFLATE_REL * a.max(axis=1, keepdims=True)).argmax(axis=1)


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
    """Sorted real parts of the roots; raises :class:`NotRealRooted` if a
    root is complex and :class:`DegreeZero` if the polynomial is constant.
    Deflated origin roots are reported as exact zeros.

    A 2-D ``coeffs`` is a stack whose rows are polynomials of degree
    ``shape[1] - 1``, or constants: the result holds their sorted roots row
    by row, and a row that fails (a complex root, or constant) is all NaN;
    :func:`real_roots` of that row alone raises its exception.
    """
    stack = np.asarray(coeffs, dtype=float)
    if stack.ndim == 2:
        return _real_roots(stack, tol)[0]
    roots, fault = _real_roots(trim(stack)[None], tol)
    if fault is not None:
        raise fault
    return roots[0]


def _companion_eigvals(c: np.ndarray) -> np.ndarray:
    """The eigenvalues of numpy's companion matrices of the rows of ``c``,
    whose last coefficients are nonzero, from one eigensolve: ones below the
    diagonal, and the last column less the coefficients over the leading
    one (``numpy.polynomial.polynomial.polycompanion``)."""
    count, m = c.shape
    mats = np.zeros((count, m - 1, m - 1))
    mats.reshape(count, -1)[:, m - 1 :: m] = 1.0
    mats[:, :, -1] -= c[:, :-1] / c[:, -1:]
    return np.linalg.eigvals(mats)


def _real_roots(stack: np.ndarray, tol: float) -> tuple:
    """The sorted roots of the rows of a 2-D stack as :func:`real_roots`
    returns them, and the exception of the first row that fails (None when
    every row passes).

    The one root extraction of the package: the eigenvalues of numpy's
    companion matrices (:func:`_companion_eigvals`) of each row less its
    origin roots (:func:`deflate_zero_roots`), accepted when every
    ``|imag| <= tol * (1 + max |real part|)``. A stack of full-degree rows
    with no origin root, the common case, goes to one eigensolve as it is.
    Otherwise the rows of one reduced length go to one eigensolve, reduced
    degree 1 too, whose 1 x 1 companion's eigenvalue is ``-c_0 / c_1``: the
    same matrices either way, so a row's roots do not depend on the branch.
    A row whose leading coefficient is zero and that is not constant has
    another degree than its stack: :class:`DegreeMismatch`.
    """
    count, width = stack.shape
    zeros = deflate_zero_roots(stack)
    if width > 1 and stack[:, -1].all() and not zeros.any():
        r = _companion_eigvals(stack)
        if not np.iscomplexobj(r) and tol >= 0.0:
            # eigenvalues with no imaginary part pass every tolerance >= 0
            r.sort(axis=1)
            return r, None
        roots = r.real.copy()
        bad = np.abs(r.imag).max(axis=1)
        const = np.zeros(count, dtype=bool)
    else:
        # a row with a zero leading coefficient must be a constant
        const = stack[:, -1] == 0.0 if width > 1 else np.ones(count, dtype=bool)
        if const.any() and stack[const, 1:].any():
            raise DegreeMismatch(f"rows of degree below {width - 1} in a stack")
        # the coefficients left per row; a constant has no root to extract
        length = np.where(const, 1, width - zeros)
        roots = np.zeros((count, width - 1))
        bad = np.zeros(count)
        for m in sorted(set(length.tolist()) - {1}):
            rows = np.flatnonzero(length == m)
            r = _companion_eigvals(stack[rows, width - m :])
            roots[rows, width - m :] = r.real
            if np.iscomplexobj(r):
                bad[rows] = np.abs(r.imag).max(axis=1)
    # the origin roots are zeros, which leave the largest |real part| as it is
    scale = 1.0 + np.abs(roots).max(axis=1, initial=0.0)
    fails = const | (bad > tol * scale)
    roots.sort(axis=1)
    if not fails.any():
        return roots, None
    roots[fails] = np.nan
    i = int(fails.argmax())
    if const[i]:
        return roots, DegreeZero("cannot extract roots of a constant polynomial")
    return roots, NotRealRooted(f"root imaginary part {bad[i]:.3e} exceeds {tol:.1e} * {scale[i]:.3e}")


def lambda_max(coeffs, tol: float = REAL_ROOT_TOL) -> float:
    """Largest root of a real-rooted polynomial."""
    return float(real_roots(coeffs, tol)[-1])


def has_common_interlacing(polys: Sequence, tol: float = REAL_ROOT_TOL) -> bool:
    """Exact test of the common-interlacing criterion of
    :func:`common_interlacing_by_group` on one family, which may be ragged.

    Raises :class:`DegreeMismatch` on members of different degrees; constant
    families and single members pass.
    """
    cs = [trim(p) for p in polys]
    degs = {len(c) - 1 for c in cs}
    if len(degs) != 1:
        raise DegreeMismatch(f"mixed degrees {sorted(degs)}")
    if degs == {0}:
        return True
    return bool(common_interlacing_by_group(real_roots(np.array(cs), tol), [0], tol)[0])


def common_interlacing_by_group(roots: np.ndarray, starts, tol: float) -> np.ndarray:
    """Per group of rows of ``roots``, the stack of sorted roots that
    :func:`real_roots` returns (group g holds the rows from ``starts[g]`` to
    the next start), whether the group's polynomials have a common
    interlacer.

    Real-rooted polynomials of one degree have one iff their sorted roots
    interleave column by column, ``max_j r_i^(j) <= min_j r_(i+1)^(j)`` for
    every i (Marcus-Spielman-Srivastava, Interlacing Families I; Dedieu
    1992). Each comparison has the slack ``tol * (1 + max |root|)`` of the
    group. A group with a row that is not real-rooted (NaN) fails.
    """
    real = np.logical_and.reduceat(~np.isnan(roots).any(axis=1), starts)
    slack = tol * (1.0 + np.maximum.reduceat(np.abs(roots).max(axis=1), starts))
    below = np.maximum.reduceat(roots[:, :-1], starts) <= np.minimum.reduceat(roots[:, 1:], starts) + slack[:, None]
    return real & below.all(axis=1)
