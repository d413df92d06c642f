"""Schatten p-norm discrepancy and the moment-comparison upper bounds.

The general bound takes an expectation over the random variables with no
closed form, so it is estimated by seeded Monte Carlo; for Rademacher
families the integrand is deterministic and the estimate is exact with zero
standard error. The p = 2 (Frobenius) bound is closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import disc, model
from ._util import map_chunks, resolve_threads
from .errors import InvalidOrder, NotPSD

MC_DEFAULT_SAMPLES = 10_000
MC_DEFAULT_SEED = 0xD15C

PSD_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class SchattenReport:
    """Discrepancy at order p with every applicable upper bound.

    ``bounds['general_khintchine']`` is an (estimate, stderr) pair and
    ``bounds['rademacher_closed_form']`` a float; each is None where it does
    not apply.
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
    """|| M^(1/2) ||_p for PSD M, through the eigendecomposition."""
    w = _psd_eigs(mat)
    if p == np.inf:
        return math.sqrt(float(w.max()))
    return float(np.sum(w ** (p / 2.0)) ** (1.0 / p))


def _squares(inst: model.Instance) -> tuple:
    """The stacked squares A_i^2, shape (n, d, d), and ``sum_i Var[xi_i]^2 A_i^2``."""
    if isinstance(inst, model.RankOneInstance):
        mats = model.outer_products(inst.vectors)
    else:
        mats = np.array(inst.matrices)
    sq = np.array([m @ m for m in mats])
    variances = np.array([rv.variance for rv in inst.rvs])
    return sq, np.tensordot(variances**2, sq, axes=(0, 0))


def disc_p(inst: model.Instance, p: float, threads: Optional[int] = None) -> float:
    """Exact Schatten-p discrepancy by enumeration (p >= 2, or inf), under
    ``disc.ENUM_CAP`` read at call time."""
    if p != np.inf and p < 2:
        raise InvalidOrder(f"Schatten discrepancy is defined here for p >= 2, got {p}")
    kind = "spectral" if p == np.inf else ("schatten", float(p))
    return disc.disc_bruteforce(inst, norm_kind=kind, threads=threads).value


def frobenius_bound(inst: model.Instance) -> float:
    """The closed-form p = 2 bound for any variables,
    ``|| (sum_i Var[xi_i]^2 A_i^2)^(1/2) ||_2`` (variance inside the square)."""
    return _schatten_of_sqrt(_squares(inst)[1], 2.0)


def khintchine_bounds(inst: model.Instance, p: float, threads: Optional[int] = None) -> SchattenReport:
    """Discrepancy report with the applicable moment-comparison bounds.

    The general bound is ``sqrt((p-1)/2)`` times the p-th root of
    ``E || (sum_i ((xi_i - E xi_i)^2 A_i^2 + (Var[xi_i] A_i)^2))^(1/2) ||_p^p``,
    estimated from ``MC_DEFAULT_SAMPLES`` draws seeded with
    ``MC_DEFAULT_SEED``. For Rademacher variables the integrand collapses to
    ``2 sum A_i^2`` deterministically (stderr exactly 0) and the specialized
    bound ``sqrt(p-1) * || (sum A_i^2)^(1/2) ||_p`` also applies. At p = inf
    the moment bounds are marked inapplicable and only the spectral
    discrepancy is reported.
    """
    if p != np.inf and p < 2:
        raise InvalidOrder(f"need p >= 2 or inf, got {p}")
    value = disc_p(inst, p, threads=threads)
    bounds: dict = {"general_khintchine": None, "rademacher_closed_form": None}
    if p == np.inf:
        return SchattenReport(float(p), value, bounds)

    sq, var_sq = _squares(inst)
    if all(rv.is_rademacher() for rv in inst.rvs):
        total = 2.0 * sq.sum(axis=0)
        z = float(np.sum(_psd_eigs(total) ** (p / 2.0)))
        est = math.sqrt((p - 1.0) / 2.0) * z ** (1.0 / p)
        bounds["general_khintchine"] = (est, 0.0)
        sigma_p = _schatten_of_sqrt(sq.sum(axis=0), p)
        bounds["rademacher_closed_form"] = math.sqrt(p - 1.0) * sigma_p
    else:
        z = _mc_moments(inst, sq, var_sq, p, resolve_threads(threads))
        est_e = float(z.mean())
        se_e = float(z.std(ddof=1) / math.sqrt(len(z))) if len(z) > 1 else 0.0
        factor = math.sqrt((p - 1.0) / 2.0)
        est = factor * est_e ** (1.0 / p)
        se = factor * (1.0 / p) * est_e ** (1.0 / p - 1.0) * se_e if est_e > 0 else 0.0
        bounds["general_khintchine"] = (est, se)
    return SchattenReport(float(p), value, bounds)


def _mc_moments(inst, sq, var_sq, p, threads) -> np.ndarray:
    """Samples of || S(xi)^(1/2) ||_p^p with S = sum ((xi-E)^2 A^2 + (Var A)^2).

    All draws come from one generator seeded up front, so the sample set is
    fixed before any parallel evaluation; chunks only batch the eigensolves.
    """
    n, samples = inst.n, MC_DEFAULT_SAMPLES
    means = np.array([rv.mean for rv in inst.rvs])
    rng = np.random.default_rng(MC_DEFAULT_SEED)
    u = rng.random((samples, n))
    draws = np.empty((samples, n))
    for j, rv in enumerate(inst.rvs):
        cum = np.cumsum(rv.probs)
        idx = np.searchsorted(cum, u[:, j], side="right").clip(0, len(rv.support) - 1)
        draws[:, j] = np.asarray(rv.support)[idx]
    dev_sq = (draws - means) ** 2

    def scan(start, stop):
        s = np.tensordot(dev_sq[start:stop], sq, axes=(1, 0)) + var_sq
        w = np.clip(np.linalg.eigvalsh(s), 0.0, None)
        return np.sum(w ** (p / 2.0), axis=1)

    return np.concatenate(map_chunks(scan, samples, threads, chunk=4096))
