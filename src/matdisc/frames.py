"""Tight-frame constructions and the exactly-solvable families.

Harmonic unit-norm tight frames supply the family where every Rademacher
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


@dataclass(frozen=True)
class Frame:
    """A finite family of vectors in C^d."""

    dim: int
    vectors: tuple

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in self.vectors)
        for v in vecs:
            v.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)
        if any(v.shape != (self.dim,) for v in vecs):
            raise InvalidShape(f"all vectors must have dimension {self.dim}")

    @property
    def n(self) -> int:
        return len(self.vectors)


def harmonic_untf(n: int, d: int) -> Frame:
    """Unit-norm tight frame from the first d rows of the n-point DFT.

    The columns of the d x n submatrix of the unitary DFT all have squared
    norm d/n; rescaling them to unit vectors gives a frame operator (n/d) I.
    Row selection is fixed at 0..d-1 so fixtures are reproducible.
    """
    if not (n >= d >= 1):
        raise InvalidShape(f"need n >= d >= 1, got n={n}, d={d}")
    k = np.arange(n)
    rows = np.exp(-2j * np.pi * np.outer(np.arange(d), k) / n) / math.sqrt(n)
    cols = rows.T * math.sqrt(n / d)
    return Frame(d, tuple(cols))


@dataclass(frozen=True)
class FrameAnalysis:
    is_tight: bool
    frame_bound: float
    is_unit_norm: bool
    sigma_sq: float
    lower_bound_check: Optional[bool]


def analyze_frame(frame: Frame) -> FrameAnalysis:
    """Tightness, frame bound, unit-norm flag, Rademacher sigma^2 and the
    trace lower bound sigma^2 >= C^2 d / n (checked only for tight frames)."""
    outers = model.outer_products(frame.vectors)
    op = outers.sum(axis=0)
    c = float(np.trace(op).real) / frame.dim
    is_tight = linalg.residual_norm(op - c * np.eye(frame.dim)) <= TIGHT_TOL
    norms = [float(np.vdot(v, v).real) for v in frame.vectors]
    is_unit = all(abs(nv - 1.0) <= UNIT_NORM_TOL for nv in norms)
    sigma_sq = linalg.spectral_norm((np.array(norms)[:, None, None] * outers).sum(axis=0))
    check = None
    if is_tight:
        check = sigma_sq >= c * c * frame.dim / frame.n - 1e-9
    return FrameAnalysis(is_tight, c, is_unit, float(sigma_sq), check)


def verify_untf_disc(frame: Frame) -> dict:
    """Enumerate all Rademacher sign patterns of a unit-norm tight frame with
    d <= n <= 2d - 1 and confirm the constant pattern norm n/d; 2^n beyond
    ``disc.ENUM_CAP``, read at call time, raises EnumerationTooLarge.

    Returns ``{"all_patterns_constant": bool, "value": n/d}`` after checking
    every one of the 2^n patterns against n/d (1e-9) and the identity
    value = sqrt(n/d) * sigma (1e-9).
    """
    analysis = analyze_frame(frame)
    n, d = frame.n, frame.dim
    if not (analysis.is_tight and analysis.is_unit_norm):
        raise PreconditionViolated("unit-norm tight frame", "input frame fails the gate")
    if not (d <= n <= 2 * d - 1):
        raise PreconditionViolated("pattern range", f"need d <= n <= 2d-1, got n={n}, d={d}")
    disc._check_cap(2**n)

    mats = disc._signed_sums(model.outer_products(frame.vectors))
    norms = np.abs(np.linalg.eigvalsh(mats)).max(axis=1)
    target = n / d
    constant = bool(np.abs(norms - target).max() <= PATTERN_TOL)
    value = float(norms.min())
    sigma = math.sqrt(analysis.sigma_sq)
    cross = abs(value - math.sqrt(target) * sigma) <= PATTERN_TOL
    return {"all_patterns_constant": constant and cross, "value": value}


def frame_to_instance(frame: Frame) -> model.RankOneInstance:
    """Attach Rademacher variables, producing a solver-ready instance."""
    rvs = tuple(model.DiscreteRandomVariable.rademacher() for _ in range(frame.n))
    return model.RankOneInstance(frame.dim, frame.vectors, rvs)


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
