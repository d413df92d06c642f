"""Schatten p-norm discrepancy and the moment-comparison upper bounds.

For even p = 2q the general bound's expectation ``E tr S^q`` is a finite sum
over words of length q in the squared terms, each weighted by exact moments
of the finite supports, so the bound is computed exactly. The p = 2
(Frobenius) bound and the Rademacher bound are closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import disc, model
from .errors import InvalidOrder, NotPSD

PSD_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class SchattenReport:
    """Discrepancy at order p with every applicable upper bound.

    ``bounds['general_khintchine']`` is an (estimate, stderr) pair, exact
    with stderr 0.0, and ``bounds['rademacher_closed_form']`` a float; each
    is None where it does not apply.
    """

    p: float
    disc_p: float
    bounds: dict


def _psd_eigs(mat: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(mat)
    scale = max(1.0, float(np.abs(w).max()))
    if float(w.min()) < PSD_EIG_FLOOR * scale:
        raise NotPSD(f"matrix expected PSD has eigenvalue {w.min():.3e}")
    return np.clip(w, 0.0, None)


def _schatten_of_sqrt(mat: np.ndarray, p: float) -> float:
    """|| M^(1/2) ||_p for PSD M and finite p, through the eigendecomposition."""
    return float(np.sum(_psd_eigs(mat) ** (p / 2.0)) ** (1.0 / p))


def _squares(inst: model.Instance) -> tuple:
    """The stacked squares A_i^2, shape (n, d, d), and ``sum_i Var[xi_i]^2 A_i^2``."""
    sq = np.array([m @ m for m in model.terms(inst)])
    variances = np.array([rv.variance for rv in inst.rvs])
    return sq, np.tensordot(variances**2, sq, axes=(0, 0))


def disc_p(inst: model.Instance, p: float, threads: Optional[int] = None) -> float:
    """Exact Schatten-p discrepancy by enumeration (p >= 2, or inf), under
    ``disc.ENUM_CAP`` read at call time."""
    if p != np.inf and p < 2:
        raise InvalidOrder(f"Schatten discrepancy is defined here for p >= 2, got {p}")
    kind = "spectral" if p == np.inf else ("schatten", float(p))
    return disc.exact_minimum(inst, kind, threads)[0]


def frobenius_bound(inst: model.Instance) -> float:
    """The closed-form p = 2 bound for any variables,
    ``|| (sum_i Var[xi_i]^2 A_i^2)^(1/2) ||_2`` (variance inside the square)."""
    return _schatten_of_sqrt(_squares(inst)[1], 2.0)


def rademacher_bound(inst: model.Instance, p: float) -> float:
    """The closed-form Rademacher bound ``sqrt(p-1) * || (sum_i A_i^2)^(1/2) ||_p``
    at a finite order p >= 2."""
    return math.sqrt(p - 1.0) * _schatten_of_sqrt(_squares(inst)[0].sum(axis=0), p)


def _moment_trace(inst: model.Instance, sq: np.ndarray, var_sq: np.ndarray, q: int) -> float:
    """``E tr S^q`` for ``S = var_sq + sum_i a_i A_i^2``, ``a_i = (xi_i - E xi_i)^2``.

    With ``M_0 = var_sq`` and ``M_i = A_i^2`` the expectation is the sum over
    the words ``w`` in ``{0..n}^q`` of ``tr(M_w1 ... M_wq) * prod_i
    E[a_i^c_i(w)]``, where ``c_i(w)`` counts the letters i >= 1 of w and the
    moments are exact over the finite supports. The ``(n+1)^q`` words are
    refused beyond ``disc.ENUM_CAP`` and multiplied out in blocks of at most
    ``disc._PRODUCT_BLOCK`` matrix entries. A sum that rounds below zero is 0.
    """
    n, d = inst.n, inst.dim
    mats = np.concatenate([var_sq[None], sq])
    # moments[i, r] = E[a_i^r] for r = 0..q; row 0 weights M_0, which is fixed
    moments = np.ones((n + 1, q + 1))
    for i, rv in enumerate(inst.rvs, start=1):
        dev_sq = (np.asarray(rv.support) - rv.mean) ** 2
        moments[i] = dev_sq ** np.arange(q + 1)[:, None] @ np.asarray(rv.probs)
    total = (n + 1) ** q
    disc._check_cap(total)
    block = max(1, disc._PRODUCT_BLOCK // (d * d))
    acc = 0.0
    for start in range(0, total, block):
        words = np.stack(np.unravel_index(np.arange(start, min(start + block, total)), (n + 1,) * q), axis=1)
        prod = mats[words[:, 0]]
        for k in range(1, q):
            prod = prod @ mats[words[:, k]]
        weights = np.ones(len(words))
        for k in range(q):
            # each letter's moment, taken at its first occurrence in the word
            letter = words[:, k : k + 1]
            first = ~(words[:, :k] == letter).any(axis=1)
            count = (words == letter).sum(axis=1)
            weights *= np.where(first, moments[letter[:, 0], count], 1.0)
        acc += float(np.trace(prod, axis1=1, axis2=2).real @ weights)
    return max(acc, 0.0)


def khintchine_bounds(inst: model.Instance, p: float, threads: Optional[int] = None) -> SchattenReport:
    """Discrepancy report with the applicable moment-comparison bounds.

    For even p = 2q the general bound is ``sqrt((p-1)/2) * (E tr S^q)^(1/p)``
    with ``S = sum_i ((xi_i - E xi_i)^2 A_i^2 + (Var[xi_i] A_i)^2)``, computed
    exactly by :func:`_moment_trace` (stderr 0.0); at any other order it is
    None. For Rademacher variables the closed form of
    :func:`rademacher_bound` also applies at every finite p. At p = inf both
    are None and only the spectral discrepancy is reported.
    """
    value = disc_p(inst, p, threads=threads)
    bounds: dict = {"general_khintchine": None, "rademacher_closed_form": None}
    if p == np.inf:
        return SchattenReport(float(p), value, bounds)

    sq, var_sq = _squares(inst)
    if p % 2 == 0:
        z = _moment_trace(inst, sq, var_sq, int(p) // 2)
        bounds["general_khintchine"] = (math.sqrt((p - 1.0) / 2.0) * z ** (1.0 / p), 0.0)
    if all(rv.is_rademacher() for rv in inst.rvs):
        bounds["rademacher_closed_form"] = rademacher_bound(inst, p)
    return SchattenReport(float(p), value, bounds)
