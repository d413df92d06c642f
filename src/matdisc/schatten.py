"""Schatten p-norm discrepancy and the moment-comparison upper bounds.

Every order is an even or other finite p >= 2, and one enumeration serves
all the orders a caller asks for. For even p = 2q the general bound's
expectation ``E tr S^q`` is a finite sum over words of length q in the
squared terms, each weighted by exact moments of the finite supports, so the
bound is computed exactly. The p = 2 (Frobenius) bound and the Rademacher
bound are closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import disc, model
from .errors import InvalidOrder, NotPSD

PSD_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class SchattenReport:
    """Discrepancy at one order p with the general moment bound.

    ``bounds['general_khintchine']`` is an (estimate, stderr) pair, exact
    with stderr 0.0, at even p and None at any other order.
    """

    disc_p: float
    bounds: dict


def _sqrt_norms(mat: np.ndarray, orders: Sequence[float]) -> list:
    """|| M^(1/2) ||_p for PSD M at each finite order p, from one eigensolve."""
    w = np.linalg.eigvalsh(mat)
    scale = max(1.0, float(np.abs(w).max()))
    if float(w.min()) < PSD_EIG_FLOOR * scale:
        raise NotPSD(f"matrix expected PSD has eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return [float(np.sum(w ** (p / 2.0)) ** (1.0 / p)) for p in orders]


def _squares(inst: model.Instance) -> tuple:
    """The stacked squares A_i^2, shape (n, d, d), and ``sum_i Var[xi_i]^2 A_i^2``."""
    sq = np.array([m @ m for m in model.terms(inst)])
    variances = np.array([rv.variance for rv in inst.rvs])
    return sq, np.tensordot(variances**2, sq, axes=(0, 0))


def disc_p(inst: model.Instance, orders: Sequence[float], threads: Optional[int] = None) -> list:
    """Exact Schatten-p discrepancy at each finite order p >= 2 of
    ``orders``, all from one enumeration under ``disc.ENUM_CAP`` read at
    call time."""
    for p in orders:
        if not p >= 2:
            raise InvalidOrder(f"Schatten discrepancy is defined here for p >= 2, got {p}")
    return [value for value, _ in disc.exact_minimum(inst, [("schatten", float(p)) for p in orders], threads)]


def frobenius_bound(inst: model.Instance) -> float:
    """The closed-form p = 2 bound for any variables,
    ``|| (sum_i Var[xi_i]^2 A_i^2)^(1/2) ||_2`` (variance inside the square)."""
    return _sqrt_norms(_squares(inst)[1], [2.0])[0]


def rademacher_bound(inst: model.Instance, orders: Sequence[float]) -> list:
    """The closed-form Rademacher bound ``sqrt(p-1) * || (sum_i A_i^2)^(1/2) ||_p``
    at each finite order p >= 2 of ``orders``, from one square stack and one
    eigensolve."""
    norms = _sqrt_norms(_squares(inst)[0].sum(axis=0), orders)
    return [math.sqrt(p - 1.0) * norm for p, norm in zip(orders, norms)]


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
    """Discrepancy at the finite order p >= 2 with the general moment bound.

    For even p = 2q the bound is ``sqrt((p-1)/2) * (E tr S^q)^(1/p)`` with
    ``S = sum_i ((xi_i - E xi_i)^2 A_i^2 + (Var[xi_i] A_i)^2)``, computed
    exactly by :func:`_moment_trace` (stderr 0.0); at any other order it is
    None.
    """
    [value] = disc_p(inst, [p], threads=threads)
    bound = None
    if p % 2 == 0:
        z = _moment_trace(inst, *_squares(inst), int(p) // 2)
        bound = (math.sqrt((p - 1.0) / 2.0) * z ** (1.0 / p), 0.0)
    return SchattenReport(value, {"general_khintchine": bound})
