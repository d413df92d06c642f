"""Numerical verification engine for the proof machinery.

Covers the multivariate barrier walk that certifies (3, 0) above the roots
of Q_n, so that the top-level expected polynomial has its largest root at
most 3, barrier-function evaluation, mixed discriminants with their padded
normalization, and the quadratic/bivariate barrier lemmas on generated
determinantal families.

The walk's evaluator is built from a normalized rank-one instance, the one
vector-family type. The transforms Q_k are evaluated by Cauchy-Binet subset
sums (polynomial in k for fixed dimension, no determinant), which the
evaluator's ``disc._Tail`` computes as it computes the greedy's expected
polynomials, or, where cheaper, from 2^(k-1) determinant pairs per point
(the sign-pair identity); see :class:`QEvaluator`.
Q_k is quadratic in every coordinate, so the certification above the roots
fits every coordinate ray exactly from Q_k at z and z +- e_j, and the
barriers come from the same fit, the unit central difference
``[Q_k(z+e_j) - Q_k(z-e_j)] / 2``: one evaluation call per walk point. The
walk returns its verdict in its trace; the exact check of its conclusion,
the largest root of :func:`disc.expected_charpoly` against 3, is the
caller's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence, Tuple

import numpy as np
import numpy.polynomial.polynomial as npp

from . import disc, model, rpoly
from .errors import (
    DimensionMismatch,
    HypothesisNotMet,
    InvariantViolation,
    NotAboveRoots,
    NotPSD,
)

PSD_SLACK = 1e-10

# Deterministic ray probe used by the above-the-roots certification.
PROBE_POINTS = 16
PROBE_STEP = 0.25

_EVAL_BATCH = 1 << 16


class QEvaluator:
    """Evaluator for Q(x, z) = det[xI + W(z)]^2, W(z) = sum_i z_i tau_i v_i v_i*,
    and its partial transforms Q_k = prod_{i<=k} (1 - (1/2) d^2/dz_i^2) Q.

    Built from a rank-one instance that the caller has normalized with
    :func:`model.normalize`. It keeps the vectors v_i and the standard
    deviations tau_i of the :func:`disc._live` coordinates, nonzero variance
    and nonzero vector, since the others contribute nothing to Q and would
    stall the shift walk at delta_i = 0, and their ``disc._Tail``. The
    dimension is the instance's.

    Two exact routes evaluate Q_k for k >= 1. The determinant is affine in
    each z_j, and for f, g affine in z_j
    ``(1 - (1/2) d^2/dz_j^2)(f g) = [f(z+e_j) g(z-e_j) + f(z-e_j) g(z+e_j)] / 2``,
    so with ``s -> -s`` folded in the sign pairs give

        Q_k(x, z) = 2^(1-k) sum_{s in {-1,1}^k, s_1 = +1} det[xI + W(z+s)] det[xI + W(z-s)],

    2^k determinants per point. With ``xI + W(z) = V diag(lam) V*`` and
    ``W = V* U`` for U = [v_1 .. v_n], Cauchy-Binet expands the determinant
    at z + t as ``sum_S t^S tau^S a_S`` with
    ``a_S = sum_{|R| = |S|} |det W_{R,S}|^2 prod_{r not in R} lam_r``, and the
    transform keeps the squares of the coefficients:

        Q_k(x, z) = sum_{S in [k], |S| <= dim} (-1)^|S| tau_S^2 a_S^2,

    the subset sums, polynomial in k for fixed dimension, with ``tau_S^2``
    the products of the variances. The tail computes them from its
    compounds as it computes the engine's expected polynomials; the sign
    pairs come in blocks from :func:`disc._sign_blocks`.
    """

    def __init__(self, inst: model.RankOneInstance):
        variances = disc._variances(inst)
        live = disc._live(inst.vectors, variances)
        self.vectors = tuple(inst.vectors[i] for i in live)
        self.taus = np.sqrt(variances[live])
        self.n = len(live)
        self.dim = inst.dim
        self.tail = disc._Tail(self.vectors, variances[live], self.dim)
        self._tw = self.tail.tw
        self.deltas = self.taus * np.array([float(np.vdot(v, v).real) for v in self.vectors])

    # -- evaluation --------------------------------------------------------

    def eval_many(self, k: int, xs, zs) -> np.ndarray:
        """Q_k at a batch of points; xs has shape (P,), zs has shape (P, n).

        One determinant per point for k = 0. For k >= 1 the route comes from
        :func:`disc._plan_route` for k variables and P points: the sign
        pairs or the subset sums, whichever is estimated cheaper among those
        whose count fits ``disc.ENUM_CAP``, read at call time
        (:class:`EnumerationTooLarge` when neither does).
        """
        if not 0 <= k <= self.n:
            raise DimensionMismatch(f"k must be in [0, {self.n}]")
        xs = np.asarray(xs, dtype=float).reshape(-1)
        zs = np.asarray(zs, dtype=float).reshape(len(xs), self.n)
        if k and disc._plan_route(self.dim, k, len(xs), symmetric=True) == "subsets":
            return self.tail.subset_sums(k, xs, zs)
        base = xs[:, None, None] * np.eye(self.dim, dtype=complex)
        if self.n:
            base = base + np.tensordot(zs, self._tw, axes=(1, 0))
        if k == 0:
            dets = np.linalg.det(base)
            return dets.real**2 + dets.imag**2
        return self._sign_pairs(k, base)

    def _sign_pairs(self, k: int, base: np.ndarray) -> np.ndarray:
        """Q_k at the points ``base = xI + W(z)`` from their 2^(k-1) sign
        pairs ``W(s)``, s in {-1,1}^k with s_1 = +1; at most ``_EVAL_BATCH``
        matrices go to one determinant call."""
        out = np.zeros(len(base))
        for shifts in disc._sign_blocks(self._tw[:k], 1, _EVAL_BATCH // 2):
            g = len(shifts)
            step = max(1, _EVAL_BATCH // (2 * g))
            for s in range(0, len(base), step):
                b = base[s : s + step, None]
                mats = np.empty((2, len(b), g, self.dim, self.dim), dtype=complex)
                np.add(b, shifts, out=mats[0])
                np.subtract(b, shifts, out=mats[1])
                # each determinant of a Hermitian matrix is real
                dets = np.linalg.det(mats).real
                out[s : s + step] += (dets[0] * dets[1]).sum(axis=1)
        return out * 2.0 ** (1 - k)


# ---------------------------------------------------------------------------
# Above-the-roots certification and barrier evaluation
# ---------------------------------------------------------------------------


def _ray_grid() -> np.ndarray:
    return PROBE_STEP * np.arange(PROBE_POINTS)


def certify_above_roots(qe: QEvaluator, k: int, x: float, z) -> np.ndarray:
    """Certify that (x, z) lies above the roots of Q_k and return the
    barriers ``d/dz_j log Q_k`` there, j = 0 .. n-1.

    One :meth:`QEvaluator.eval_many` call takes Q_k at z and at z +- e_j for
    every j. Q_k is quadratic in each z_j, so these values give coordinate
    ray j exactly, ``f0 + c1 t + c2 t^2`` with ``c1 = (f+ - f-) / 2`` and
    ``c2 = (f+ + f-) / 2 - f0``, and its barrier is c1 / f0. For k = 0 the
    polynomial is a squared determinant, so probing its sign is vacuous;
    positive definiteness of the determinant argument is used instead, which
    is exact there, and the 2n + 1 points take one determinant each. For
    k >= 1 the call also takes the x ray and the all-ones ray past the
    centre, 2n + 31 points in all, and positivity is probed on a
    deterministic 16-point grid along every coordinate ray (from its fit),
    the x ray and the all-ones ray. Raises :class:`NotAboveRoots` on
    failure.
    """
    n = qe.n
    z = np.asarray(z, dtype=float).reshape(n)
    if k == 0:
        m = x * np.eye(qe.dim) + np.tensordot(z, qe._tw, axes=(0, 0))
        if float(np.linalg.eigvalsh(m).min()) <= 0.0:
            raise NotAboveRoots(f"matrix at (x={x:.6g}) is not positive definite")

    t = _ray_grid()
    # the centre, both unit steps along every coordinate, then for k >= 1
    # the x ray and the all-ones ray past the centre
    xs = [np.full(1 + 2 * n, x)]
    zs = [z[None], z + np.eye(n), z - np.eye(n)]
    if k:
        xs += [x + t[1:], np.full(PROBE_POINTS - 1, x)]
        zs += [np.repeat(z[None], PROBE_POINTS - 1, axis=0), z + t[1:, None]]
    vals = qe.eval_many(k, np.concatenate(xs), np.concatenate(zs))

    f0, plus, minus = vals[0], vals[1 : 1 + n], vals[1 + n : 1 + 2 * n]
    c1 = (plus - minus) / 2.0
    if k:
        c2 = (plus + minus) / 2.0 - f0
        bad = np.flatnonzero((f0 + c1[:, None] * t + c2[:, None] * t * t).min(axis=1) <= 0.0)
        if len(bad):
            raise NotAboveRoots(f"coordinate ray {bad[0]} has a nonpositive probe")
        # the centre, the first probe of every ray, passed with the coordinate rays
        for name, ray in zip(("x", "all-ones"), vals[1 + 2 * n :].reshape(2, PROBE_POINTS - 1)):
            if ray.min() <= 0.0:
                raise NotAboveRoots(f"{name} ray has a nonpositive probe")
    return c1 / f0


# ---------------------------------------------------------------------------
# Barrier walk replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkStep:
    step: int
    w: tuple
    hypothesis_value: float
    hypothesis_bound: float
    barriers: dict  # direction -> barrier value of Q_{k+1} at (alpha, w_{k+1})


@dataclass(frozen=True)
class BarrierWalkTrace:
    """The walk's verdict: the steps finished and, on the first violated
    inequality, its step (-1 for the start point) and the reason, both
    ``None`` when the walk passes. ``initial_barriers`` is empty when the
    start point fails its certification."""

    deltas: tuple
    initial_barriers: tuple
    steps: tuple
    failed_step: Optional[int] = None
    reason: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.reason is None

    def to_doc(self) -> dict:
        return {
            "deltas": list(self.deltas),
            "initial_barriers": list(self.initial_barriers),
            "passed": self.passed,
            "failed_step": self.failed_step,
            "reason": self.reason,
            "steps": [
                {
                    "step": s.step,
                    "w": list(s.w),
                    "hypothesis_value": s.hypothesis_value,
                    "hypothesis_bound": s.hypothesis_bound,
                    "barriers": {str(j): v for j, v in s.barriers.items()},
                }
                for s in self.steps
            ],
        }


WALK_ALPHA = 3.0
WALK_BARRIER_TOL = 1e-9
WALK_MONO_TOL = 1e-8


def replay_barrier_walk(inst: model.RankOneInstance) -> BarrierWalkTrace:
    """Replay the shift walk certifying (3, 0) above the roots of Q_n.

    The caller normalizes the instance with :func:`model.normalize`; the
    walk builds its :class:`QEvaluator` from it. Step by step it checks that
    the start point (3, -delta) is above the roots of Q with all barriers at
    most delta_i, that each shift of coordinate k keeps the new point above
    the roots of Q_{k+1}, and that the remaining barriers never increase. Each
    point's barriers come from its certification
    (:func:`certify_above_roots`), one :meth:`QEvaluator.eval_many` call per
    point. The first violated inequality ends the walk, and the trace
    returned then holds the steps finished before it, the step and the
    reason; nothing is raised for it. Raises :class:`EnumerationTooLarge`
    before the first step when neither route of
    :meth:`QEvaluator.eval_many` fits ``disc.ENUM_CAP`` (read at call time)
    for the walk's largest call, the last certification (k = n at 2n + 31
    points). Both routes' counts grow with k and with the points, so every
    other call fits then.
    """
    qe = QEvaluator(inst)
    n = qe.n
    deltas = qe.deltas
    disc._plan_route(qe.dim, n, 2 * n + 2 * PROBE_POINTS - 1, symmetric=True)
    steps = []

    def verdict(initial, failed_step=None, reason=None) -> BarrierWalkTrace:
        return BarrierWalkTrace(
            tuple(float(d) for d in deltas), tuple(float(b) for b in initial), tuple(steps), failed_step, reason
        )

    w = -deltas
    try:
        initial = certify_above_roots(qe, 0, WALK_ALPHA, w)
    except NotAboveRoots as exc:
        return verdict((), -1, f"initial point not above roots: {exc}")
    for i in range(n):
        if initial[i] > deltas[i] + WALK_BARRIER_TOL:
            return verdict(initial, -1, f"initial barrier {i} is {initial[i]:.12f} > delta {deltas[i]:.12f}")

    prev = initial.copy()
    for k in range(n):
        hyp_val, hyp_bound = float(prev[k]), float(deltas[k])
        if hyp_val > hyp_bound + WALK_BARRIER_TOL:
            return verdict(initial, k, f"step hypothesis failed: barrier {hyp_val:.12f} > delta {hyp_bound:.12f}")
        w_next = w.copy()
        w_next[k] = 0.0
        try:
            barriers = certify_above_roots(qe, k + 1, WALK_ALPHA, w_next)
        except NotAboveRoots as exc:
            return verdict(initial, k, f"shifted point not above roots: {exc}")
        new = {}
        for j in range(k + 1, n):
            new[j] = float(barriers[j])
            if new[j] > prev[j] + WALK_MONO_TOL:
                return verdict(initial, k, f"barrier {j} increased: {new[j]:.12f} > {prev[j]:.12f}")
        steps.append(
            WalkStep(
                step=k,
                w=tuple(float(v) for v in w_next),
                hypothesis_value=hyp_val,
                hypothesis_bound=hyp_bound,
                barriers=new,
            )
        )
        prev[k + 1 :] = barriers[k + 1 :]
        w = w_next
    return verdict(initial)


# ---------------------------------------------------------------------------
# Mixed discriminants
# ---------------------------------------------------------------------------


def _as_real_square(mats) -> list:
    out = [np.asarray(m, dtype=float) for m in mats]
    if not out:
        raise DimensionMismatch("need at least one matrix")
    d = out[0].shape[0]
    for m in out:
        if m.ndim != 2 or m.shape != (d, d):
            raise DimensionMismatch(f"expected {d}x{d} matrices")
    return out


def mixed_discriminant(mats: Sequence) -> float:
    """Mixed discriminant of d matrices of size d x d.

    Computed by the inclusion-exclusion polarization
    ``sum_S (-1)^(d - |S|) det(sum_{i in S} X_i)`` over the 2^d subsets.
    """
    xs = _as_real_square(mats)
    d = xs[0].shape[0]
    if len(xs) != d:
        raise DimensionMismatch(f"need exactly {d} matrices of size {d}x{d}, got {len(xs)}")
    sums = np.zeros((1 << d, d, d))
    for mask in range(1, 1 << d):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + xs[low.bit_length() - 1]
    dets = np.linalg.det(sums[1:])
    signs = np.array([(-1.0) ** (d - bin(mask).count("1")) for mask in range(1, 1 << d)])
    return float(signs @ dets)


def mixed_discriminant_permanental(mats: Sequence) -> float:
    """Column-substitution expansion of the mixed discriminant.

    Independent cross-check of the polarization route:
    ``sum over permutations s of det[col_1 of X_{s(1)} | ... | col_d of X_{s(d)}]``.
    Factorial cost; intended for d <= 5.
    """
    xs = _as_real_square(mats)
    d = xs[0].shape[0]
    if len(xs) != d:
        raise DimensionMismatch(f"need exactly {d} matrices, got {len(xs)}")
    total = 0.0
    cols = np.empty((d, d))
    for perm in permutations(range(d)):
        for j, pi in enumerate(perm):
            cols[:, j] = xs[pi][:, j]
        total += float(np.linalg.det(cols))
    return total


def d_tilde(mats: Sequence) -> float:
    """Identity-padded normalized mixed discriminant
    ``D(X_1..X_k, I, ..., I) / (d - k)!``; for k = 1 this equals the trace."""
    xs = _as_real_square(mats)
    d = xs[0].shape[0]
    k = len(xs)
    if k > d:
        raise DimensionMismatch(f"need at most {d} matrices of size {d}x{d}")
    padded = xs + [np.eye(d)] * (d - k)
    return mixed_discriminant(padded) / math.factorial(d - k)


def _require_psd(mat: np.ndarray, name: str) -> None:
    w = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    scale = max(1.0, float(np.abs(mat).max()))
    if float(w.min()) < -PSD_SLACK * scale:
        raise NotPSD(f"{name} has eigenvalue {w.min():.3e}")


def check_alexandrov(x1, x2) -> Tuple[float, float]:
    """Both sides of ``Dtilde(X1) * Dtilde(X2) >= Dtilde(X1, X2)`` for PSD
    inputs, (lhs, rhs); the caller compares them."""
    a, b = _as_real_square([x1, x2])
    d = a.shape[0]
    if d < 2:
        raise DimensionMismatch("the inequality needs dimension >= 2")
    _require_psd(a, "X1")
    _require_psd(b, "X2")
    lhs = d_tilde([a]) * d_tilde([b])
    return lhs, d_tilde([a, b])


# ---------------------------------------------------------------------------
# Quadratic and bivariate barrier lemmas
# ---------------------------------------------------------------------------


def univariate_barrier(coeffs, x: float) -> float:
    """s'(x) / s(x) for a univariate polynomial."""
    c = rpoly.trim(coeffs)
    return float(npp.polyval(x, npp.polyder(c)) / npp.polyval(x, c))


def check_quadratic_barrier(coeffs, probes: Sequence[float]) -> bool:
    """Check that ``f(x) = x - 2 / (s'(x)/s(x))`` is nonincreasing (with 1e-9
    slack) above the roots of a real-rooted quadratic s with positive leading
    coefficient."""
    c = rpoly.trim(coeffs)
    if len(c) != 3 or c[2] <= 0:
        raise InvariantViolation("quadratic", "need degree 2 with positive leading coefficient")
    lam = rpoly.lambda_max(c)
    pts = sorted(float(p) for p in probes)
    if pts[0] <= lam:
        raise NotAboveRoots(f"probe {pts[0]} is not above the largest root {lam}")
    f = [p - 2.0 / univariate_barrier(c, p) for p in pts]
    return all(f[i + 1] <= f[i] + 1e-9 for i in range(len(f) - 1))


@dataclass(frozen=True)
class DeterminantalPolynomial:
    """det[B + sum_i z_i A_i] with PSD coefficient matrices A_i.

    The standard generated family for barrier property sweeps: every point
    where the matrix is positive definite is above the roots (translates only
    add PSD terms), and barriers reduce to resolvent traces.
    """

    psd_parts: tuple
    offset: np.ndarray

    def matrix(self, z) -> np.ndarray:
        m = np.array(self.offset, dtype=float)
        for zi, a in zip(np.asarray(z, float), self.psd_parts):
            m = m + zi * a
        return m

    def barrier(self, i: int, z) -> float:
        m = self.matrix(z)
        return float(np.trace(np.linalg.solve(m, self.psd_parts[i])))

    def second_ratio(self, i: int, z) -> float:
        """(d^2/dz_i^2 p) / p, from the resolvent form."""
        m = self.matrix(z)
        x = np.linalg.solve(m, self.psd_parts[i])
        t = float(np.trace(x))
        return t * t - float(np.trace(x @ x))


@dataclass(frozen=True)
class DeterminantalBivariate:
    """p(x, y) = det[x A + y B + C]^2 with rank(A) <= 1, so p is quadratic
    in x. B is expected positive definite, which makes positive definiteness
    of the pencil an exact above-the-roots certificate."""

    a_part: np.ndarray
    b_part: np.ndarray
    c_part: np.ndarray

    def matrix(self, x: float, y: float) -> np.ndarray:
        return x * np.asarray(self.a_part, float) + y * np.asarray(self.b_part, float) + np.asarray(self.c_part, float)

    def is_above_roots(self, x: float, y: float) -> bool:
        return float(np.linalg.eigvalsh((self.matrix(x, y) + self.matrix(x, y).T) / 2).min()) > 0.0

    def barrier_x(self, x: float, y: float) -> float:
        m = self.matrix(x, y)
        return 2.0 * float(np.trace(np.linalg.solve(m, self.a_part)))

    def barrier_y(self, x: float, y: float) -> float:
        m = self.matrix(x, y)
        return 2.0 * float(np.trace(np.linalg.solve(m, self.b_part)))


def check_bivariate_quadratic_lemma(
    p: DeterminantalBivariate,
    point: Tuple[float, float],
    delta: float,
) -> bool:
    """Check the barrier transfer under ``1 - (1/2) d^2/dx^2`` with shift delta.

    Either delta = 1 (no barrier hypothesis), or delta in (0, 1) together
    with ``Phi^x(point) <= delta / (1 - delta^2)``. Unmet hypotheses raise
    :class:`HypothesisNotMet` (the case is skipped, not failed). Passing
    means the y-barrier of the transformed polynomial at (x0 + delta, y0) is
    at most the y-barrier of p at (x0, y0), with 1e-8 slack.

    Since p is quadratic in x, the transformed polynomial factors into the
    two unit x-shifts of the determinant, which gives exact values for both
    the certification and the y-barrier.
    """
    x0, y0 = point
    if not 0.0 < delta <= 1.0:
        raise InvariantViolation("delta", "must lie in (0, 1]")
    second = np.sort(np.linalg.eigvalsh((np.asarray(p.a_part) + np.asarray(p.a_part).T) / 2.0))
    if len(second) >= 2 and abs(second[-2]) > 1e-10 * max(1.0, abs(second[-1])):
        raise InvariantViolation("rank", "x coefficient matrix must have rank <= 1")
    if not p.is_above_roots(x0, y0):
        raise NotAboveRoots("base point is not above the roots")
    if delta < 1.0:
        phi_x = p.barrier_x(x0, y0)
        if phi_x > delta / (1.0 - delta**2):
            raise HypothesisNotMet(f"Phi^x = {phi_x:.6f} > {delta / (1 - delta**2):.6f}")

    # q(x, y) = (1 - (1/2) d^2/dx^2) p = g(x-1, y) g(x+1, y) for g = det[...]
    xq = x0 + delta
    m_minus = p.matrix(xq - 1.0, y0)
    m_plus = p.matrix(xq + 1.0, y0)
    if (
        float(np.linalg.eigvalsh((m_minus + m_minus.T) / 2).min()) <= 0.0
        or float(np.linalg.eigvalsh((m_plus + m_plus.T) / 2).min()) <= 0.0
    ):
        raise HypothesisNotMet("shifted point is not above the roots of the transformed polynomial")
    g_minus = float(np.linalg.det(m_minus))
    g_plus = float(np.linalg.det(m_plus))
    gy_minus = g_minus * float(np.trace(np.linalg.solve(m_minus, p.b_part)))
    gy_plus = g_plus * float(np.trace(np.linalg.solve(m_plus, p.b_part)))
    phi_q = (gy_minus * g_plus + g_minus * gy_plus) / (g_minus * g_plus)
    return phi_q <= p.barrier_y(x0, y0) + 1e-8
