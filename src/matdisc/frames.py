"""Tight-frame constructions and the exactly-solvable families.

Frames are rank-one instances (:class:`model.RankOneInstance`). Harmonic
unit-norm tight frames with Rademacher laws supply the family where every
sign pattern has the same spectral norm n/d; the Hadamard-style diagonal
family realizes the matching logarithmic lower bound in exact integer
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import disc, linalg, model
from .errors import InvalidShape, PreconditionViolated, TooLarge

TIGHT_TOL = 1e-9
UNIT_NORM_TOL = 1e-12
PATTERN_TOL = 1e-9

DIAGONAL_MAX_N = 5


def harmonic_untf(n: int, d: int) -> model.RankOneInstance:
    """Unit-norm tight frame from the first d rows of the n-point DFT, with
    Rademacher laws.

    The columns of the d x n submatrix of the unitary DFT all have squared
    norm d/n; rescaling them to unit vectors gives a frame operator (n/d) I.
    Row selection is fixed at 0..d-1 so fixtures are reproducible.
    """
    if not (n >= d >= 1):
        raise InvalidShape(f"need n >= d >= 1, got n={n}, d={d}")
    k = np.arange(n)
    rows = np.exp(-2j * np.pi * np.outer(np.arange(d), k) / n) / math.sqrt(n)
    cols = rows.T * math.sqrt(n / d)
    rvs = tuple(model.DiscreteRandomVariable.rademacher() for _ in range(n))
    return model.RankOneInstance(d, tuple(cols), rvs)


@dataclass(frozen=True)
class FrameAnalysis:
    is_tight: bool
    frame_bound: float
    is_unit_norm: bool
    sigma_sq: float


def analyze_frame(inst: model.RankOneInstance) -> FrameAnalysis:
    """Tightness, frame bound and unit-norm flag of the instance's vectors,
    and its sigma^2 = || sum_i Var[xi_i] (u_i u_i*)^2 || from
    :func:`model.squared_terms`."""
    op = model.outer_products(inst.vectors).sum(axis=0)
    c = float(np.trace(op).real) / inst.dim
    is_tight = linalg.residual_norm(op - c * np.eye(inst.dim)) <= TIGHT_TOL
    is_unit = all(abs(float(np.vdot(v, v).real) - 1.0) <= UNIT_NORM_TOL for v in inst.vectors)
    sigma_sq = linalg.spectral_norm(model.squared_terms(inst).sum(axis=0))
    return FrameAnalysis(is_tight, c, is_unit, float(sigma_sq))


def verify_untf_disc(inst: model.RankOneInstance) -> dict:
    """Enumerate all sign patterns of a Rademacher unit-norm tight frame
    with d <= n <= 2d - 1 and confirm the constant pattern norm n/d; 2^n
    beyond ``disc.ENUM_CAP``, read at call time, raises EnumerationTooLarge.

    The gate asks for unit-norm tight vectors and Rademacher laws
    (:class:`PreconditionViolated` otherwise). Returns ``{"all_patterns_constant":
    bool, "value": n/d, "sigma_sq"}`` after checking every one of the 2^n
    patterns against n/d (1e-9) and the identity value = sqrt(n/d) * sigma
    (1e-9), with the sigma^2 of the gate's :func:`analyze_frame`.
    """
    analysis = analyze_frame(inst)
    n, d = inst.n, inst.dim
    if not (analysis.is_tight and analysis.is_unit_norm and all(rv.is_rademacher() for rv in inst.rvs)):
        raise PreconditionViolated("Rademacher unit-norm tight frame", "input instance fails the gate")
    if not (d <= n <= 2 * d - 1):
        raise PreconditionViolated("pattern range", f"need d <= n <= 2d-1, got n={n}, d={d}")
    disc._check_cap(2**n)

    mats = disc._signed_sums(model.terms(inst))
    norms = np.abs(np.linalg.eigvalsh(mats)).max(axis=1)
    target = n / d
    constant = bool(np.abs(norms - target).max() <= PATTERN_TOL)
    value = float(norms.min())
    sigma = math.sqrt(analysis.sigma_sq)
    cross = abs(value - math.sqrt(target) * sigma) <= PATTERN_TOL
    return {"all_patterns_constant": constant and cross, "value": value, "sigma_sq": analysis.sigma_sq}


# ---------------------------------------------------------------------------
# Diagonal lower-bound family
# ---------------------------------------------------------------------------


def _sign_vectors(n: int) -> np.ndarray:
    d = 1 << n
    k = np.arange(d)
    bits = (k[:, None] >> np.arange(n)[None, :]) & 1
    return 1 - 2 * bits  # bit 0 -> +1, bit 1 -> -1


def verify_lower_bound(n: int) -> dict:
    """Exact integer enumeration of the diagonal family's discrepancy.

    Every Rademacher pattern eps satisfies ``|| sum eps_i A_i || =
    max_k |<h_k, eps>| = n`` because eps itself occurs among the h_k, so the
    discrepancy equals n exactly, as does sigma^2 = || sum A_i^2 ||. The
    ratio against sqrt(log2 d) * sigma is reported to exhibit tightness of
    the logarithmic factor. All arithmetic is on Python integers.
    """
    if not 1 <= n <= DIAGONAL_MAX_N:
        raise TooLarge(f"n must be in [1, {DIAGONAL_MAX_N}], got {n}")
    h = _sign_vectors(n)
    best: Optional[int] = None
    for mask in range(1 << n):
        eps = [1 - 2 * ((mask >> i) & 1) for i in range(n)]
        norm = max(abs(sum(int(h[k, i]) * eps[i] for i in range(n))) for k in range(1 << n))
        best = norm if best is None else min(best, norm)
    sigma_sq = max(sum(int(h[k, i]) ** 2 for i in range(n)) for k in range(1 << n))
    ratio = best / (math.sqrt(n) * math.sqrt(sigma_sq))
    return {"disc": best, "sigma_sq": sigma_sq, "log_factor_ratio": ratio}
