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
from .errors import InvalidOrder, NotPSD, PreconditionViolated

MC_DEFAULT_SAMPLES = 10_000
MC_DEFAULT_SEED = 0xD15C
MC_MIN_SAMPLES = 1_000

PSD_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class SchattenReport:
    """Discrepancy at order p with every applicable upper bound.

    ``bounds['general_khintchine']`` is an (estimate, stderr) pair; the two
    closed forms are plain floats when applicable and None otherwise.
    ``sigma_f_alternative`` logs the variance-outside-the-square Frobenius
    scale alongside the bound actually asserted.
    """

    p: float
    disc_p: float
    bounds: dict
    sigma_f_alternative: Optional[float]

    def to_doc(self) -> dict:
        gk = self.bounds.get("general_khintchine")
        return {
            "p": self.p,
            "disc_p": self.disc_p,
            "bounds": {
                "general_khintchine": None if gk is None else {"estimate": gk[0], "stderr": gk[1]},
                "rademacher_closed_form": self.bounds.get("rademacher_closed_form"),
                "frobenius_closed_form": self.bounds.get("frobenius_closed_form"),
            },
            "sigma_f_alternative": self.sigma_f_alternative,
        }


def _matrices(inst: model.Instance) -> np.ndarray:
    if isinstance(inst, model.RankOneInstance):
        return model.outer_products(inst.vectors)
    return np.array(inst.matrices)


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


def disc_p(
    inst: model.Instance,
    p: float,
    cap: int = disc.ENUM_CAP,
    threads: Optional[int] = None,
) -> float:
    """Exact Schatten-p discrepancy by enumeration (p >= 2, or inf)."""
    if p != np.inf and p < 2:
        raise InvalidOrder(f"Schatten discrepancy is defined here for p >= 2, got {p}")
    kind = "spectral" if p == np.inf else ("schatten", float(p))
    return disc.disc_bruteforce(inst, norm_kind=kind, cap=cap, threads=threads).value


def khintchine_bounds(
    inst: model.Instance,
    p: float,
    mc_samples: int = MC_DEFAULT_SAMPLES,
    seed: int = MC_DEFAULT_SEED,
    cap: int = disc.ENUM_CAP,
    threads: Optional[int] = None,
) -> SchattenReport:
    """Discrepancy report with the applicable moment-comparison bounds.

    The general bound is ``sqrt((p-1)/2)`` times the p-th root of
    ``E || (sum_i ((xi_i - E xi_i)^2 A_i^2 + (Var[xi_i] A_i)^2))^(1/2) ||_p^p``.
    For Rademacher variables the integrand collapses to ``2 sum A_i^2``
    deterministically (stderr exactly 0) and the specialized bound
    ``sqrt(p-1) * || (sum A_i^2)^(1/2) ||_p`` also applies; at p = 2 the
    closed-form Frobenius bound applies for any variables. At p = inf the
    moment bounds are marked inapplicable and only the spectral discrepancy
    is reported.
    """
    if p != np.inf and p < 2:
        raise InvalidOrder(f"need p >= 2 or inf, got {p}")
    mats = _matrices(inst)
    variances = np.array([rv.variance for rv in inst.rvs])
    means = np.array([rv.mean for rv in inst.rvs])
    value = disc_p(inst, p, cap=cap, threads=threads)

    var_sq = np.tensordot(variances**2, np.array([m @ m for m in mats]), axes=(0, 0))
    sigma_f_alt = math.sqrt(max(float(np.trace(np.tensordot(variances, np.array([m @ m for m in mats]), axes=(0, 0))).real), 0.0))

    bounds: dict = {
        "general_khintchine": None,
        "rademacher_closed_form": None,
        "frobenius_closed_form": None,
    }
    if p == np.inf:
        return SchattenReport(float(p), value, bounds, sigma_f_alt)

    rademacher = all(rv.is_rademacher() for rv in inst.rvs)
    sq = np.array([m @ m for m in mats])

    if rademacher:
        total = 2.0 * sq.sum(axis=0)
        z = float(np.sum(_psd_eigs(total) ** (p / 2.0)))
        est = math.sqrt((p - 1.0) / 2.0) * z ** (1.0 / p)
        bounds["general_khintchine"] = (est, 0.0)
        sigma_p = _schatten_of_sqrt(sq.sum(axis=0), p)
        bounds["rademacher_closed_form"] = math.sqrt(p - 1.0) * sigma_p
    else:
        if mc_samples < MC_MIN_SAMPLES:
            raise PreconditionViolated("mc_samples", f"need at least {MC_MIN_SAMPLES}")
        z = _mc_moments(inst, mats, sq, var_sq, means, p, mc_samples, seed, resolve_threads(threads))
        est_e = float(z.mean())
        se_e = float(z.std(ddof=1) / math.sqrt(len(z))) if len(z) > 1 else 0.0
        factor = math.sqrt((p - 1.0) / 2.0)
        est = factor * est_e ** (1.0 / p)
        se = factor * (1.0 / p) * est_e ** (1.0 / p - 1.0) * se_e if est_e > 0 else 0.0
        bounds["general_khintchine"] = (est, se)

    if p == 2.0:
        bounds["frobenius_closed_form"] = _schatten_of_sqrt(var_sq, 2.0)
    return SchattenReport(float(p), value, bounds, sigma_f_alt)


def _mc_moments(inst, mats, sq, var_sq, means, p, mc_samples, seed, threads) -> np.ndarray:
    """Samples of || S(xi)^(1/2) ||_p^p with S = sum ((xi-E)^2 A^2 + (Var A)^2).

    All draws come from one generator seeded up front, so the sample set is
    fixed before any parallel evaluation; chunks only batch the eigensolves.
    """
    n = inst.n
    rng = np.random.default_rng(seed)
    u = rng.random((mc_samples, n))
    draws = np.empty((mc_samples, n))
    for j, rv in enumerate(inst.rvs):
        cum = np.cumsum(rv.probs)
        idx = np.searchsorted(cum, u[:, j], side="right").clip(0, len(rv.support) - 1)
        draws[:, j] = np.asarray(rv.support)[idx]
    dev_sq = (draws - means) ** 2

    def scan(start, stop):
        s = np.tensordot(dev_sq[start:stop], sq, axes=(1, 0)) + var_sq
        w = np.clip(np.linalg.eigvalsh(s), 0.0, None)
        return np.sum(w ** (p / 2.0), axis=1)

    return np.concatenate(map_chunks(scan, mc_samples, threads, chunk=4096))
