"""Discrepancy computation.

Four computations live here:

* exhaustive minimization over all sign assignments (the ground-truth oracle),
  which takes row-norm lower bounds from two half-enumerations and builds
  and eigensolves only the matrices that they and a power-step bound do not
  rule out,
* expected characteristic polynomials of partial assignments, computed from
  the variances of the remaining variables by Cauchy-Binet subset sums
  (polynomial in n for fixed dimension, with compound matrices from Laplace
  steps) or, where that is cheaper, over the sign patterns of equal variance;
  :meth:`_Tail.ypolys` is the one place that runs one of these two routes,
  each call planned by :func:`_plan_route`. A :class:`_Tail` holds the
  tail's vectors, variances and compounds for the greedy,
  :func:`expected_charpoly` and the barrier walk's subset sums,
* the same top-level polynomial through the differential-operator route, an
  independent oracle for small n,
* the greedy solver that walks the interlacing family by always descending
  into a branch whose polynomial has the smallest largest root. It takes
  its levels in blocks: one engine call on the fixed parts of every
  assignment of the block's variables, folded up the block, serves that
  many levels, and a block reaching the last level enumerates the leaves
  of the remaining subtree. It is exact: the expectation over the supports
  is the one the variances give.

Plus the menu of named upper bounds and the subset-rounding wrapper.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import _util, linalg, model, rpoly
from ._util import map_chunks, resolve_threads
from .errors import (
    DegreeZero,
    EnumerationTooLarge,
    InvalidOrder,
    InvariantViolation,
    NotRealRooted,
    PreconditionViolated,
)

# Largest enumeration any route takes, read at call time on every path.
ENUM_CAP = 2**24

NormKind = Union[str, Tuple[str, float]]


# ---------------------------------------------------------------------------
# Enumeration plumbing
# ---------------------------------------------------------------------------


def _family(inst):
    """Stacked coefficient matrices (n, d, d), means, support sizes, and
    supports and probabilities padded with zeros to one width."""
    sizes = [len(rv.support) for rv in inst.rvs]
    pads = [(0.0,) * (max(sizes) - size) for size in sizes]
    supp = np.array([rv.support + pad for rv, pad in zip(inst.rvs, pads)])
    prob = np.array([rv.probs + pad for rv, pad in zip(inst.rvs, pads)])
    means = np.array([rv.mean for rv in inst.rvs])
    return model.terms(inst), means, np.array(sizes, dtype=np.int64), supp, prob


def _check_cap(total: int) -> None:
    if total > ENUM_CAP:
        raise EnumerationTooLarge(int(total), int(ENUM_CAP))


def _norm_fn(norm_kind: NormKind):
    if norm_kind == "spectral":
        return lambda eigs: np.abs(eigs).max(axis=-1)
    if isinstance(norm_kind, tuple) and len(norm_kind) == 2 and norm_kind[0] == "schatten":
        p = float(norm_kind[1])
        if not 1 <= p < np.inf:
            raise InvalidOrder(f"Schatten order must be finite and >= 1, got {p}")
        return lambda eigs: np.sum(np.abs(eigs) ** p, axis=-1) ** (1.0 / p)
    raise ValueError(f"unknown norm kind {norm_kind!r}")


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscrepancyReport:
    """Exact spectral discrepancy, the assignment achieving it, and sigma."""

    value: float
    argmin: model.SignAssignment
    sigma: float

    def to_doc(self) -> dict:
        return {
            "value": self.value,
            "argmin": {"indices": list(self.argmin.indices), "values": list(self.argmin.values)},
            "sigma": self.sigma,
        }


# Matrices per eigensolve call in the pruned enumeration scan.
_SCAN_BLOCK = 256
# Relative slack of the scan's pruning test: far above the rounding of row
# norms and eigenvalues, so an assignment that ties the best is never pruned.
_PRUNE_SLACK = 1e-10


def _power_bound(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A lower bound on each matrix's spectral norm, at least its largest
    row norm: ``||M u||`` for the unit vector ``u`` along the column
    ``v = M e_j`` of the largest row ``j`` (``rows`` holds the squared row
    norms). For Hermitian ``M``, ``||v||`` is that row norm and
    ``<e_j, M v> = ||v||^2``, so ``||M v|| >= ||v||^2``."""
    j = rows.argmax(axis=1)
    k = np.arange(len(mats))
    top = np.sqrt(rows[k, j])
    u = mats[k, :, j] / np.where(top > 0.0, top, 1.0)[:, None]
    w = np.einsum("kij,kj->ki", mats, u).view(np.float64)
    return np.sqrt(np.einsum("ki,ki->k", w, w))


def _coefficients(dev: np.ndarray, sizes: list, idx: np.ndarray) -> np.ndarray:
    """The complex row of deviation coefficients of each assignment ``idx``
    of variables with ``sizes`` support points, in mixed-radix order (the
    first variable slowest); ``dev[j][i]`` is variable j's deviation at its
    i-th point."""
    coef = np.zeros((len(idx), len(sizes)), dtype=complex)
    stride = math.prod(sizes)
    for j, size in enumerate(sizes):
        stride //= size
        coef.real[:, j] = dev[j][idx // stride % size]
    return coef


def _deviations(dev: np.ndarray, sizes: list, flat: np.ndarray, d: int, idx: np.ndarray) -> np.ndarray:
    """The deviation matrices of the assignments ``idx``, by the product of
    their coefficient rows with the flat terms. A one-row product takes
    BLAS's matrix-vector path, which rounds differently from the many-row
    ones (and ``numpy.tensordot``), so it gets a second row."""
    coef = _coefficients(dev, sizes, idx if len(idx) > 1 else np.repeat(idx, 2))
    return np.dot(coef, flat)[: len(idx)].reshape(-1, d, d)


class _Halves:
    """Every assignment's deviation matrix as ``P_a + Q_b``.

    The variables split at ``h``: ``P_a`` sums the leading ones' terms under
    their a-th of ``count`` assignments, ``Q_b`` the trailing ones' under
    their b-th of ``width``, and assignment ``a * width + b`` keeps the
    mixed-radix order. The split makes the larger half as small as it can
    with ``width`` at most ``_util.CHUNK``, so whole leading rows make a
    chunk. The trailing sums are built once, the leading ones a chunk's rows
    at a time, so neither half holds more than a chunk's worth.
    """

    def __init__(self, dev: np.ndarray, sizes: list, flat: np.ndarray, d: int):
        fits = [h for h in range(len(sizes) + 1) if math.prod(sizes[h:]) <= _util.CHUNK]
        h = min(fits, key=lambda h: max(math.prod(sizes[:h]), math.prod(sizes[h:])))
        self.dev, self.sizes, self.flat, self.d, self.h = dev, sizes, flat, d, h
        self.count, self.width = math.prod(sizes[:h]), math.prod(sizes[h:])
        self.tails = self._sums(h, len(sizes), np.arange(self.width))
        eps = np.finfo(float).eps
        # ||(P_a + Q_b) e_j||^2 = ||P_a e_j||^2 + ||Q_b e_j||^2
        # + 2 Re<P_a e_j, Q_b e_j> is one real GEMM per column j, the two
        # norms as extra columns. Each norm is lowered by alpha times its
        # matrix's largest: the GEMM's terms add up to at most twice the two
        # largest, so its rounding and the norms' stay below the two
        # lowerings and no bound rises above the row norm of P_a + Q_b.
        self.alpha = 8 * (d + 1) * eps
        tail_parts, tail_sq = self._columns(self.tails, self.alpha)
        right = np.concatenate([2.0 * tail_parts, np.ones(tail_sq.shape + (1,)), tail_sq[..., None]], axis=2)
        self.right = np.ascontiguousarray(right.transpose(0, 2, 1))
        # P_a + Q_b and the matrix that one product of all n terms builds are
        # two rounded sums of the same terms: they differ by at most this in
        # norm, so every bound is lowered by it
        self.spread = 8 * (len(sizes) + 2) * eps * float(np.abs(dev).max(axis=1) @ np.linalg.norm(flat, axis=1))

    def _sums(self, lo: int, hi: int, idx: np.ndarray) -> np.ndarray:
        """The sums of the terms of variables ``lo .. hi - 1`` under their
        assignments ``idx``."""
        coef = _coefficients(self.dev[lo:hi], self.sizes[lo:hi], idx)
        return np.dot(coef, self.flat[lo:hi]).reshape(-1, self.d, self.d)

    @staticmethod
    def _columns(half: np.ndarray, alpha: float) -> tuple:
        """Per column j of every matrix of ``half``: its real and imaginary
        parts, shape (d, m, 2d), and its squared norm less ``alpha`` times
        the matrix's largest, shape (d, m)."""
        cols = np.moveaxis(half, 2, 0)
        parts = np.concatenate([cols.real, cols.imag], axis=2)
        sq = np.einsum("jai,jai->ja", parts, parts)
        return parts, sq - alpha * sq.max(axis=0)

    def bounds(self, a0: int, a1: int) -> np.ndarray:
        """A lower bound on the largest row norm of the built matrix of
        every assignment of the leading rows ``a0 .. a1 - 1``, in index
        order."""
        head_parts, head_sq = self._columns(self._sums(0, self.h, np.arange(a0, a1)), self.alpha)
        lefts = np.concatenate([head_parts, head_sq[..., None], np.ones(head_sq.shape + (1,))], axis=2)
        sq = np.zeros((a1 - a0, self.width))
        for left, right in zip(lefts, self.right):
            np.maximum(sq, left @ right, out=sq)
        return np.sqrt(sq).ravel() - self.spread

    def powers(self, idx: np.ndarray) -> np.ndarray:
        """A lower bound on the norm of the built matrix of each assignment
        of ``idx``: :func:`_power_bound` of ``P_a + Q_b``, lowered."""
        a, b = np.divmod(idx, self.width)
        near = self._sums(0, self.h, a) + self.tails[b]
        pairs = near.view(np.float64)
        return _power_bound(near, np.einsum("kij,kij->ki", pairs, pairs)) - self.spread


def _solve(mats, idx, norms, best) -> None:
    """Eigensolve ``mats``, the matrices of the assignments ``idx``, and fold
    each norm's (value, index) minimum into ``best`` in place."""
    eigs = np.linalg.eigvalsh(mats)
    for i, vals in enumerate(norm(eigs) for norm in norms):
        k = np.lexsort((idx, vals))[0]
        best[i] = min(best[i], (float(vals[k]), int(idx[k])))


def _visit(build, norms, idx, ranked, best) -> None:
    """Solve the matrices ``build(idx)`` in ascending lower bound ``ranked``,
    ``_SCAN_BLOCK`` per eigensolve, each block under every norm of ``norms``,
    until the next bound exceeds the largest of the per-norm (value, index)
    ``best``, which it updates in place, by the relative ``_PRUNE_SLACK``."""
    pos = 0
    while True:
        limit = np.searchsorted(ranked, max(best)[0] * (1.0 + _PRUNE_SLACK), side="right")
        cut = min(pos + _SCAN_BLOCK, limit)
        if cut <= pos:
            return
        _solve(build(idx[pos:cut]), idx[pos:cut], norms, best)
        pos = cut


def exact_minimum(inst: model.Instance, norm_kinds: Sequence[NormKind], threads: Optional[int] = None) -> list:
    """One ``(value, argmin)`` of :func:`disc_bruteforce`'s scan per norm of
    ``norm_kinds`` (spectral, or Schatten of finite order p >= 1).

    Up to ``_SCAN_BLOCK`` assignments go to one eigensolve with no bounds.
    Beyond that the deviation matrices are :class:`_Halves`, and the leading
    rows are cut into chunks of at most ``_util.CHUNK`` assignments. Each
    chunk takes every assignment's row-norm bound from ``d`` real GEMMs and
    eigensolves its ``_SCAN_BLOCK`` smallest; those its bests leave in go by
    their power-step bound to :func:`_visit`. Only the matrices handed to
    the eigensolver are built.
    """
    terms, means, sizes, supp, _ = _family(inst)
    sizes = sizes.tolist()
    total = math.prod(sizes)
    _check_cap(total)
    norms = [_norm_fn(kind) for kind in norm_kinds]
    nthreads = resolve_threads(threads)
    # deviation coefficients eps_j - E[xi_j], per variable and support index
    dev = supp - means[:, None]
    flat = terms.reshape(len(terms), -1)

    build = functools.partial(_deviations, dev, sizes, flat, inst.dim)
    if total <= _SCAN_BLOCK:
        # one eigensolve and no bounds: setting up the halves costs about
        # 0.1 ms a call, more than the few matrices it could skip
        idx = np.arange(total)
        best = [(math.inf, -1)] * len(norms)
        _solve(build(idx), idx, norms, best)
        chunk_bests = [best]
    else:
        halves = _Halves(dev, sizes, flat, inst.dim)

        def scan(a0, a1):
            start = a0 * halves.width
            bound = halves.bounds(a0, a1)
            first = np.arange(bound.size)
            if bound.size > _SCAN_BLOCK:
                first = np.argpartition(bound, _SCAN_BLOCK - 1)[:_SCAN_BLOCK]
            best = [(math.inf, -1)] * len(norms)
            _solve(build(start + first), start + first, norms, best)
            bound[first] = np.inf
            rest = start + np.flatnonzero(bound <= max(best)[0] * (1.0 + _PRUNE_SLACK))
            if rest.size:
                power = halves.powers(rest)
                by_power = np.argsort(power)
                _visit(build, norms, rest[by_power], power[by_power], best)
            return best

        rows = _util.CHUNK // halves.width
        ranges = [(a, min(a + rows, halves.count)) for a in range(0, halves.count, rows)]
        chunk_bests = map_chunks(scan, ranges, nthreads)

    out = []
    for value, index in map(min, zip(*chunk_bests)):
        digits = [int(i) for i in np.unravel_index(index, sizes)]
        out.append((value, model.SignAssignment.from_indices(digits, inst.rvs)))
    return out


def disc_bruteforce(inst: model.Instance, threads: Optional[int] = None) -> DiscrepancyReport:
    """Exact spectral discrepancy by enumerating every assignment.

    Minimizes ``|| sum_j eps_j M_j - sum_j E[xi_j] M_j ||`` over the product
    of the supports, refusing beyond ``ENUM_CAP`` assignments (read at call
    time); ties resolve to the lexicographically smallest tuple of
    support indices.

    The scan (:func:`exact_minimum`) serves several norms at once, the
    spectral norm and Schatten norms of finite order p >= 1, evaluating each
    eigensolved block under every one. It builds only the deviation
    matrices it eigensolves and skips every one that provably cannot win:
    every served norm is at least the spectral norm, which is at least the
    largest row norm ``max_j ||M e_j||``. Beyond ``_SCAN_BLOCK`` assignments
    every deviation is ``P_a + Q_b`` over two half-enumerations
    (:class:`_Halves`), and each chunk of whole leading rows builds its
    leading sums and takes its row norms from ``d`` real GEMMs, lowered by
    a rounding allowance so that no bound exceeds the built matrix's row
    norm. The matrices are visited in ascending bound, ``_SCAN_BLOCK`` per
    eigensolve, and the chunk stops once the next bound exceeds the largest
    of its running bests, one per norm, by the relative slack
    ``_PRUNE_SLACK`` (1e-10, far above rounding, so exact ties are never
    pruned). The first block goes by row norm; the
    assignments its bests leave in go by the tighter power-step bound of
    :func:`_power_bound`, so an instance whose row norms sit far below its
    norms prunes as well as any other. Each eigensolved matrix is the one
    the full enumeration builds, bit for bit, so each norm's result is
    exact. Chunks reduce with a (value, index) minimum per norm, their
    boundaries do not depend on the thread count, and each chunk prunes
    only against its own bests, so the values, the argmins and the matrices
    handed to the eigensolver do not depend on the thread count.
    """
    [(value, argmin)] = exact_minimum(inst, ["spectral"], threads)
    return DiscrepancyReport(value, argmin, model.sigma(inst))


# ---------------------------------------------------------------------------
# Expected characteristic polynomials
# ---------------------------------------------------------------------------


def _even_to_x(ycoeffs: np.ndarray) -> np.ndarray:
    """Coefficients in y = x^2 to the even polynomial in x, along the last
    axis."""
    out = np.zeros(ycoeffs.shape[:-1] + (2 * ycoeffs.shape[-1] - 1,))
    out[..., ::2] = ycoeffs
    return out


# Entries of W = V* U per product block of the Cauchy-Binet route.
_PRODUCT_BLOCK = 1 << 16
# Matrices per eigensolve call in the sign route and the operator oracle.
_SIGN_BATCH = 1 << 14


# Per subset-size bound d: (m, tables) of the largest m asked for so far.
_COLEX = {}


def _colex_tables(m: int, d: int) -> tuple:
    """The k-subsets of range(m) in colexicographic order, for k = 0..d
    (read-only).

    Colex order lists the subsets of range(m') before all others for every
    m' < m, so ``tables[k][:comb(m', k)]`` are the k-subsets of range(m').
    One table per d is kept, for the largest m asked for so far, and every
    smaller m gets views of its prefixes: memory follows the largest problem
    seen, not the number of sizes. A larger m replaces it, so a caller that
    keeps a table long copies it.
    """
    held = _COLEX.get(d)
    if held is None or held[0] < m:
        tables = [np.zeros((1, 0), dtype=np.intp)]
        for k in range(1, d + 1):
            prev = tables[-1]
            blocks = [
                np.column_stack([prev[: math.comb(j, k - 1)], np.full(math.comb(j, k - 1), j)])
                for j in range(k - 1, m)
            ]
            tables.append(np.concatenate(blocks) if blocks else np.zeros((0, k), dtype=np.intp))
        for t in tables:
            t.flags.writeable = False
        held = _COLEX[d] = (m, tuple(tables))
    return tuple(t[: math.comb(m, k)] for k, t in enumerate(held[1]))


@functools.lru_cache(maxsize=None)
def _dim_tables(d: int) -> tuple:
    """Per dimension: the colex row subsets R of range(d) for k = 0..d, their
    bitmasks, and the 0/1 matrix folding x-coefficient pairs (i, l) of a
    product onto y = x^2 (odd powers cancel and are dropped); read-only.
    The rows are copies, so this cache keeps no replaced colex table alive."""
    rows = tuple(t.copy() for t in _colex_tables(d, d))
    masks = tuple((1 << t).sum(axis=1) for t in rows)
    power = np.add.outer(np.arange(d + 1), np.arange(d + 1)).reshape(-1)
    fold = (power[:, None] == 2 * np.arange(d + 1)[None, :]).astype(float)
    for a in rows + masks + (fold,):
        a.flags.writeable = False
    return rows, masks, fold


def _compounds(a: np.ndarray, top: int) -> list:
    """The compounds ``C_k(a) = (det a[..., R, S])`` of a stack ``a`` of shape
    (..., d, m) for k = 0..top, R and S the k-subsets of range(d) and
    range(m) in colex order.

    ``C_0 = 1``, ``C_1 = a``, and each further one takes one Laplace step
    along the last column ``s = max S``, k multiply-adds per entry:
    ``det a[R, S] = sum_i (-1)^(k-1+i) a[r_i, s] det a[R - {r_i}, S - {s}]``.
    In colex order the S with the same s form one block, whose S - {s} are
    the first ``comb(s, k-1)`` (k-1)-subsets in order, and subsets come in
    ascending bitmask, which ranks R - {r_i}.
    """
    d, m = a.shape[-2:]
    rows, masks, _ = _dim_tables(d)
    cols = _colex_tables(m, top)
    out = [np.ones(a.shape[:-2] + (1, 1), dtype=a.dtype), np.ascontiguousarray(a)][: top + 1]
    flat = out[-1].reshape(a.shape[:-2] + (-1,))
    signed = (flat, -flat)  # the entries times the sign (-1)^(k-1+i)
    for k in range(2, top + 1):
        drop = np.searchsorted(masks[k - 1], masks[k][:, None] - (1 << rows[k])) * math.comb(m, k - 1)
        last = cols[k][:, -1]
        sub = np.arange(len(last)) - np.searchsorted(last, last)
        prev = out[-1].reshape(a.shape[:-2] + (-1,))
        step = 0
        for i in range(k):
            term = np.take(signed[(k - 1 + i) % 2], rows[k][:, i, None] * m + last, axis=-1)
            term *= np.take(prev, drop[:, i, None] + sub, axis=-1)
            step += term
        out.append(step)
    return out


def _unitary_compounds(vh: np.ndarray, top: int) -> list:
    """The compounds C_j(A) of a stack of unitary d x d matrices A for
    j = 1..min(top, d) (index 0 holds nothing), each up to a unit factor per
    row, which ``|C_j(A) C_j(U)|`` does not see.

    Only j <= d/2 takes Laplace steps (:func:`_compounds`). Beyond, Jacobi's
    complementary minors of a unitary A give ``det A_{R,R'} = det(A)
    (-1)^(sum R^c + sum R'^c) conj(det A_{R^c,R'^c})``, det A taken as 1 (so
    C_d(A) comes from C_0), and colex order lists the complements in reverse.
    """
    d = vh.shape[-1]
    rows = _dim_tables(d)[0]
    out = _compounds(vh, min(top, d // 2))
    for j in range(len(out), min(top, d) + 1):
        out.append(out[d - j][:, ::-1, ::-1].conj() * (-1.0) ** rows[j].sum(axis=1))
    out[0] = None
    return out


def _complement_polys(lam: np.ndarray) -> np.ndarray:
    """``prod_{r not in R} (x - s lam_r)`` for every R in range(d), indexed by
    bitmask, for s = +1 and s = -1: shape (2, B, 2^d, d+1), ascending."""
    nb, d = lam.shape
    c = np.zeros((2, nb, 1 << d, d + 1))
    c[..., 0] = 1.0
    roots = np.stack([lam, -lam])
    for r in range(d):
        # the masks without bit r, as a view
        out = c.reshape(2, nb, 1 << (d - 1 - r), 2, 1 << r, d + 1)[:, :, :, 0]
        scaled = roots[:, :, r, None, None, None] * out
        out[..., 1:] = out[..., :-1].copy()
        out[..., 0] = 0.0
        out -= scaled
    return c


def _complement_products(lam: np.ndarray) -> np.ndarray:
    """``prod_{r not in R} lam_r`` for every R in range(d), indexed by
    bitmask: shape (P, 2^d) for ``lam`` of shape (P, d)."""
    p, d = lam.shape
    c = np.ones((p, 1 << d))
    for r in range(d):
        # the masks without bit r, as a view
        c.reshape(p, 1 << (d - 1 - r), 2, 1 << r)[:, :, 0] *= lam[:, r, None, None]
    return c


def _signed_sums(parts: np.ndarray) -> np.ndarray:
    """All 2^m sums ``sum_i s_i A_i`` over ``s in {-1, 1}^m``, shape (2^m, d, d)."""
    out = np.zeros((1,) + parts.shape[1:], dtype=parts.dtype)
    for a in parts:
        out = np.concatenate([out + a, out - a])
    return out


def _sign_blocks(parts: np.ndarray, head: int, chunk: int):
    """The sums ``sum_{i < head} A_i + sum_{i >= head} s_i A_i`` of ``parts``
    over every sign vector s, yielded in blocks of at most ``max(1, chunk)``
    matrices (the first ``head`` signs are pinned to +1)."""
    low = min(len(parts) - head, max(1, chunk).bit_length() - 1)
    block = parts[:head].sum(axis=0) + _signed_sums(parts[head : head + low])
    for high in _signed_sums(parts[head + low :]):
        yield block + high


# Seconds per unit of work of the routes, fitted (within about 2x) to
# timings of single calls at d <= 12 on a 2-core x86 host. The planner only
# compares the routes' totals, so a route is misjudged only near the
# crossover, where both cost about the same.
_SECONDS_SUBSET_CALL = (5e-5, 8e-5)  # per call, per subset size k
_SECONDS_PRODUCT = (1e-8, 1e-10)  # per entry of W or multiply-add of a Laplace step, per term of W's products
_SECONDS_COMPLEMENT = 6e-8  # per (mask, root) of the complement polynomials
_SECONDS_SIGN_CALL = (8e-5, 2.3e-6)  # per call, per dimension
_SECONDS_SIGN_MATRIX = (1.3e-7, 2.3e-9)  # per eigensolve, times d^2 and d^3
# per depth, per fixed part of a greedy block besides its engine call (its
# parts and its folding, timed at d 2-12 on 1 to 16,384 parts)
_SECONDS_BLOCK = (6.3e-6, 2.1e-7)


def _plan_route(d: int, m: int, nb: int, symmetric: bool = False, build: Optional[int] = None) -> str:
    """Route of one engine call with tail size m and nb fixed parts.

    Each route has a count that must fit ``ENUM_CAP``, read at call time:
    "subsets" the compound entries it builds, ``sum_k C(m, k) C(d, k)`` of
    the tail plus ``C(d, k)^2`` per fixed part; "signs" the 2^m sign
    patterns per fixed part (2^(m-1) when ``symmetric``, every fixed part
    zero). ``build`` is the number of tail vectors whose compounds the
    subset route builds first: m when not given, 0 once they are built, and
    the whole tail when a call reads only a prefix of a tail not yet built
    (the greedy's first blocks), whose compounds are counted and charged in
    full. Of the routes that fit, the one with the smaller estimated time of
    this call (:func:`_engine_seconds`) is returned;
    :class:`EnumerationTooLarge` is raised when neither fits. A call with no
    tail variable (m = 0) takes the sign route, whose one pattern is the
    fixed part's own spectrum.
    """
    seconds = _engine_seconds(d, m, nb, ENUM_CAP, symmetric, m if build is None else build)
    return min(seconds, key=lambda pair: pair[1])[0]


@functools.lru_cache(maxsize=4096)
def _engine_seconds(d: int, m: int, nb: int, limit: int, symmetric: bool, build: int) -> tuple:
    """The (route, estimated seconds) of one engine call on each route whose
    count fits ``limit``, subsets first; :class:`EnumerationTooLarge` when
    none fits. Cached, keyed by the cap too: the barrier walk plans every
    batch of points it evaluates, and the greedy's planner prices each
    block."""
    sign_call = _SECONDS_SIGN_CALL[0] + _SECONDS_SIGN_CALL[1] * d
    matrix = _SECONDS_SIGN_MATRIX[0] * d * d + _SECONDS_SIGN_MATRIX[1] * d**3  # per eigensolve
    if not m:
        return (("signs", sign_call + nb * matrix),)
    ks = range(1, min(d, m) + 1)
    span = max(m, build)  # the tail vectors whose compounds exist after the call
    counts = {
        "subsets": sum(math.comb(span, k) * math.comb(d, k) for k in range(1, min(d, span) + 1))
        + nb * sum(math.comb(d, k) ** 2 for k in ks),
        "signs": 2 ** (m - 1 if symmetric else m),
    }
    fits = [route for route in counts if counts[route] <= limit]
    if not fits:
        raise EnumerationTooLarge(min(counts.values()), limit)
    entries = sum(math.comb(d, k) * math.comb(m, k) for k in ks)
    products = sum(math.comb(d, k) ** 2 * math.comb(m, k) for k in ks)
    compound = sum(math.comb(d, k) ** 2 * k for k in ks if 1 < k <= d // 2)
    tail = sum(math.comb(build, k) * math.comb(d, k) * k for k in range(2, min(d, build) + 1))  # its Laplace steps
    seconds = {
        "subsets": _SECONDS_SUBSET_CALL[0]
        + _SECONDS_SUBSET_CALL[1] * len(ks)
        + nb * (_SECONDS_PRODUCT[0] * (compound + entries) + _SECONDS_PRODUCT[1] * products)
        + nb * _SECONDS_COMPLEMENT * (d << d)
        + _SECONDS_PRODUCT[0] * tail,
        "signs": sign_call + nb * counts["signs"] * matrix,
    }
    return tuple((route, seconds[route]) for route in fits)


def _plan_descent(d: int, levels: tuple) -> tuple:
    """The depths of the greedy's blocks from level 1 on, in order: each the
    number of levels that one engine call serves (:func:`_block_tree`).

    ``levels`` holds one (m, nb) per level of the greedy: the size of the
    tail after it and its branch count. A block of depth L takes the product
    of its levels' nb as fixed parts and one engine call at the m of its last
    level (:func:`_blocks` lists the blocks offered). It is priced as that
    call plus ``_SECONDS_BLOCK`` per depth and per part, and one backward
    pass over the levels finds the cheapest chain of blocks, the shallower
    block winning a tie. The first block's call builds the compounds of the
    whole tail, ``levels[0][0]`` vectors (:func:`_plan_route`); every later
    block is priced with the tail built. Every block is priced for all its
    parts, including one whose parts the engine halves by their mirror
    symmetry (:meth:`_Tail.ypolys`). ``ENUM_CAP`` and ``_SIGN_BATCH`` are
    read at call time.
    """
    return _cached_descent(d, levels, ENUM_CAP, _SIGN_BATCH)


@functools.lru_cache(maxsize=256)
def _cached_descent(d: int, levels: tuple, limit: int, batch: int) -> tuple:
    best = [0] * len(levels)  # per level, the depth of the block that starts the cheapest chain from it
    finish = [0.0] * (len(levels) + 1)  # and that chain's seconds
    for j in range(len(levels) - 1, -1, -1):
        build = levels[0][0] if j == 0 else 0
        total = {
            L: _block_seconds(d, m, parts, L, limit, build) + finish[j + L]
            for L, parts, m in _blocks(levels, j, limit, batch)
        }
        best[j] = min(total, key=total.get)
        finish[j] = total[best[j]]
    chain, j = [], 0
    while j < len(levels):
        chain.append(best[j])
        j += best[j]
    return tuple(chain)


def _blocks(levels: tuple, k: int, limit: int, batch: int):
    """The blocks offered from level k: (depth, parts, tail size after).

    Depth 1 is the level's own engine call and is always offered; the
    engine raises :class:`EnumerationTooLarge` when it does not fit. A
    deeper block is offered only while its parts fit ``limit`` and one
    eigensolve batch (``batch``), and its enumeration, the parts times 2^m,
    fits ``limit``. Each level below its first with a live variable has at
    least two branches, so that is more than 2^m of its first level, whose
    sign count that is: no block takes an enumeration that the sign route
    would refuse there. A block reaching the last level (m = 0) enumerates
    the subtree's leaves, one spectrum per part.
    """
    parts = 1
    for L in range(1, len(levels) - k + 1):
        m, nb = levels[k + L - 1]
        parts *= nb
        if L > 1 and parts > min(limit, batch):
            return
        if L == 1 or parts << m <= limit:
            yield L, parts, m


def _block_seconds(d: int, m: int, parts: int, depth: int, limit: int, build: int) -> float:
    """Estimated seconds of one block of ``depth`` levels and ``parts``
    fixed parts over a tail of m; infinite when its engine call fits no
    route."""
    try:
        engine = min(seconds for _, seconds in _engine_seconds(d, m, parts, limit, False, build))
    except EnumerationTooLarge:
        return math.inf
    return engine + _SECONDS_BLOCK[0] * depth + _SECONDS_BLOCK[1] * parts


class _Tail:
    """Rank-one terms ``c_i u_i u_i*``, independent mean-zero ``c_i`` of
    variance ``tau_i^2``, behind the engine's expected polynomials
    (:meth:`ypolys`) and the walk's subset sums (:meth:`subset_sums`). Each
    caller builds one in the variable order whose prefixes it takes.

    It holds the vectors (rows), the variances and the sign route's terms
    ``tw[i] = tau_i u_i u_i*``. The first subset-route call builds
    ``terms``: per k = 1..min(d, m) the compound ``C_k(U)`` of the m vectors
    and the products ``tau_S^2`` over its columns S, in colex order, so the
    first ``comb(m', k)`` columns serve a prefix of m' variables.
    """

    def __init__(self, vectors, variances, d: int):
        self.vectors = np.asarray(vectors, dtype=complex).reshape(-1, d)
        self.variances = np.asarray(variances, dtype=float)
        self.d = d
        self.tw = np.sqrt(self.variances)[:, None, None] * model.outer_products(self.vectors)
        self.terms = None

    @property
    def build(self) -> int:
        """The number of vectors whose compounds the next subset-route call
        builds: all of them until built, then none."""
        return 0 if self.terms is not None else len(self.variances)

    def _compound_terms(self) -> list:
        """``terms``, built on the first call."""
        if self.terms is None:
            top = min(self.d, len(self.variances))
            cols = _colex_tables(len(self.variances), top)
            compounds = _compounds(self.vectors.T, top)
            self.terms = [None] + [(compounds[k], self.variances[cols[k]].prod(axis=1)) for k in range(1, top + 1)]
        return self.terms

    def _squared_minors(self, rot: np.ndarray, k: int, count: int, lead: int):
        """``|det W_{R,S}|^2`` with ``C_k(W) = rot @ C_k(U)``, over the first
        ``count`` columns S: yields (``tau_S^2``, block) pairs, each block at
        most ``_PRODUCT_BLOCK`` entries for ``lead`` leading rows."""
        minors, tau2 = self._compound_terms()[k]
        step = max(1, _PRODUCT_BLOCK // max(1, lead * rot.shape[-2]))
        for start in range(0, count, step):
            cols = slice(start, min(start + step, count))
            w = rot @ minors[:, cols]
            yield tau2[cols], w.real**2 + w.imag**2

    def ypolys(self, fixed, m: int) -> np.ndarray:
        """Expected ``det[x^2 I - M_b^2]`` in y = x^2 over the first m
        variables, one row of ascending coefficients per fixed part, shape
        (B, d+1).

        ``M_b = F_b + sum_{i < m} c_i u_i u_i*`` with ``fixed[b] = F_b``
        Hermitian. Both factors of ``det[xI - M] det[xI + M]`` are affine in
        every ``c_i``, so only the variances enter. Two exact routes compute
        it, Cauchy-Binet subset sums (:meth:`_subset_ypolys`, polynomial in m
        for fixed d) and sign patterns (:meth:`_sign_ypolys`, exponential in
        m, cheap for small m or large d); :func:`_plan_route` picks one for
        this call under ``ENUM_CAP``, and counts and charges the compounds of
        the whole tail until they are built. This is the only place that runs
        an engine route.

        Negating a part leaves its polynomial unchanged: ``det[x^2 I -
        M^2]`` is even in M, and -c has the variances of c. So when B > 1
        parts come in negated pairs, ``fixed[::-1] == -fixed`` exactly, only
        the first ceil(B/2) are solved and their rows are mirrored onto the
        rest; a zero part is its own negation, and the sign route pins its
        first sign. This is the only place that uses the symmetry.
        """
        fixed = np.asarray(fixed, dtype=complex)
        nb = len(fixed)
        mirrored = nb > 1 and bool((fixed[::-1] == -fixed).all())
        solved = fixed[: (nb + 1) // 2] if mirrored else fixed
        if _plan_route(self.d, m, len(solved), not solved.any(), self.build) == "signs":
            rows = self._sign_ypolys(solved, m)
        else:
            rows = self._subset_ypolys(solved, m)
        return np.concatenate([rows, rows[: nb // 2][::-1]]) if mirrored else rows

    def _subset_ypolys(self, fixed: np.ndarray, m: int) -> np.ndarray:
        """The Cauchy-Binet route of :meth:`ypolys`.

        With ``F_b = V diag(lam) V*`` and ``W = V* U`` Cauchy-Binet gives

            p_b(x) = sum_{|S| <= d} (-1)^|S| tau_S^2 f_S(x) g_S(x),
            f_S = sum_{|R| = |S|} |det W_{R,S}|^2 prod_{r not in R} (x - lam_r),

        and ``g_S`` the same with ``x + lam_r``. Summing over S first leaves,
        per size k, the matrix ``H_k[R, R'] = sum_S tau_S^2 |det W_{R,S}|^2
        |det W_{R',S}|^2`` between complement polynomials. The minors of W
        are those of U rotated by the k-th compound of V*,
        ``C_k(W) = C_k(V*) C_k(U)``, so each branch takes one
        eigendecomposition, the Laplace steps of :func:`_unitary_compounds`
        and one small product, and no determinant.
        """
        nb, d = fixed.shape[0], self.d
        top = min(d, m)
        lam, vecs = np.linalg.eigh(fixed)
        vh = np.swapaxes(vecs.conj(), 1, 2)
        comp = _complement_polys(lam)
        rows, masks, fold = _dim_tables(d)
        rots = _unitary_compounds(vh, top)
        gram = np.zeros((nb, d + 1, d + 1))
        for k in range(top + 1):
            if k == 0:
                h = np.ones((nb, 1, 1))
            else:
                h = np.zeros((nb, len(rows[k]), len(rows[k])))
                for tau2, z in self._squared_minors(rots[k], k, math.comb(m, k), nb):
                    h += (z * tau2) @ np.swapaxes(z, 1, 2)
            term = np.swapaxes(comp[0][:, masks[k]], 1, 2) @ h @ comp[1][:, masks[k]]
            gram += term if k % 2 == 0 else -term
        return gram.reshape(nb, -1) @ fold

    def _sign_ypolys(self, fixed: np.ndarray, m: int) -> np.ndarray:
        """The sign route of :meth:`ypolys`.

        Only the variances enter, so every ``c_i`` may be taken as a fair
        sign times ``tau_i``: the 2^m sign patterns are summed from spectra
        as ``prod_j (y - mu_j^2)``. When every fixed part is zero, M -> -M
        leaves the determinant unchanged and the first sign is pinned to +1.
        At most ``_SIGN_BATCH`` matrices go to one eigensolve call.
        """
        if not m:  # the one pattern: each fixed part's own spectrum
            mu = np.linalg.eigvalsh(fixed)
            return _monic_from_roots_batch(mu * mu)
        nb, d = fixed.shape[0], self.d
        head = 0 if fixed.any() else 1
        acc = np.zeros((nb, d + 1))
        for shifts in _sign_blocks(self.tw[:m], head, _SIGN_BATCH // nb):
            mu = np.linalg.eigvalsh(fixed[:, None] + shifts[None])
            acc += _monic_from_roots_batch((mu * mu).reshape(-1, d)).reshape(nb, -1, d + 1).sum(axis=1)
        return acc / 2.0 ** (m - head)

    def subset_sums(self, k: int, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """The walk's ``Q_k`` (k >= 1) at points xs (P,), zs (P, m) from the
        subset sums over the first k variables, ``sum_S (-1)^|S| tau_S^2
        a_S^2`` (:class:`witness.QEvaluator`). Points with the same z share
        one eigenbasis of ``W(z)``. No determinant is taken."""
        order = np.lexsort(zs.T)
        new = np.ones(len(zs), dtype=bool)
        new[1:] = (zs[order[1:]] != zs[order[:-1]]).any(axis=1)
        inv = np.empty(len(zs), dtype=np.intp)
        inv[order] = np.cumsum(new) - 1
        first = order[new]
        mu, vecs = np.linalg.eigh(np.tensordot(zs[first], self.tw, axes=(1, 0)))
        comp = _complement_products(xs[:, None] + mu[inv])
        vh = np.swapaxes(vecs.conj(), 1, 2)
        masks = _dim_tables(self.d)[1]
        rots = _unitary_compounds(vh, min(self.d, k))
        out = comp[:, 0] ** 2
        for j in range(1, min(self.d, k) + 1):
            count = math.comb(k, j)
            if j == self.d:
                # C_d(V*) = det V* has modulus 1 and R is all of range(d), so
                # a_S = |det U_S|^2 at every point
                minors, tau2 = self._compound_terms()[j]
                sq = minors[0, :count].real ** 2 + minors[0, :count].imag ** 2
                acc = (sq * sq) @ tau2[:count]
            else:
                lam = comp[:, masks[j]]
                acc = np.zeros(len(xs))
                for tau2, sq in self._squared_minors(rots[j], j, count, len(xs)):
                    a = np.einsum("pr,prs->ps", lam, sq[inv])
                    acc += (a * a) @ tau2
            out += -acc if j % 2 else acc
        return out


def _variances(inst: model.RankOneInstance) -> np.ndarray:
    return np.array([rv.variance for rv in inst.rvs])


def _live(vectors, variances) -> list:
    """Indices of the variables of nonzero variance and nonzero vector, the
    only ones that enter an expected polynomial or the walk's Q."""
    return [i for i, (v, var) in enumerate(zip(vectors, variances)) if var > 0.0 and np.vdot(v, v).real > 0.0]


def expected_charpoly(
    inst: model.RankOneInstance,
    prefix: Sequence[int] = (),
) -> np.ndarray:
    """Expected characteristic polynomial of a partial assignment.

    ``prefix`` pins the first ``k`` outcomes by support index. The result is
    the probability-weighted expectation, over the remaining outcomes, of
    ``det[x^2 I - M^2] = det[xI - M] det[xI + M]`` where
    ``M = sum_i (E[xi_i] - eps_i) u_i u_i*``, computed from the variances of
    the remaining variables by :meth:`_Tail.ypolys`. The tail keeps only its
    :func:`_live` variables, as the walk's evaluator does, so the top
    polynomial fits ``ENUM_CAP`` wherever the walk does. Degree is exactly
    ``2 * dim``.
    """
    if not isinstance(inst, model.RankOneInstance):
        raise TypeError("expected_charpoly needs a rank-one instance")
    k = len(prefix)
    if k > inst.n:
        raise InvariantViolation("prefix", "longer than the instance")
    # the top polynomial: nothing fixed, weight 1
    fixed = np.zeros((inst.dim, inst.dim), dtype=complex)
    weight = 1.0
    if k:
        terms, means, sizes, supp, prob = _family(inst)
        for j, i in enumerate(prefix):
            if not 0 <= int(i) < sizes[j]:
                raise InvariantViolation("prefix", f"support index {i} out of range at {j}")
        idx = np.array([int(i) for i in prefix], dtype=np.int64)
        weight = float(np.prod(prob[np.arange(k), idx]))
        fixed = np.tensordot(means[:k] - supp[np.arange(k), idx], terms[:k], axes=(0, 0))
    variances = _variances(inst)[k:]
    live = _live(inst.vectors[k:], variances)
    tail = _Tail([inst.vectors[k + i] for i in live], variances[live], inst.dim)
    return _even_to_x(weight * tail.ypolys(fixed[None], len(live))[0])


def _monic_from_roots_batch(r: np.ndarray) -> np.ndarray:
    """prod_j (x - r_j) per row, ascending coefficients, shape (b, d+1)."""
    b, d = r.shape
    c = np.zeros((b, d + 1))
    c[:, 0] = 1.0
    for j in range(d):
        lower = c[:, : j + 1].copy()
        c[:, 1 : j + 2] = lower
        c[:, 0] = 0.0
        c[:, : j + 1] -= r[:, j : j + 1] * lower
    return c


def expected_charpoly_operator(inst: model.RankOneInstance) -> np.ndarray:
    """Top-level expected characteristic polynomial via the operator route.

    Applies ``prod_i (1 - (1/2) d^2/dz_i^2)`` at z = 0 to
    ``Q(x, z) = det[xI + sum_i z_i tau_i u_i u_i*]^2`` (``tau_i`` the standard
    deviation of the i-th variable). Each variable is eliminated by the exact
    three-point rule for quadratics, ``2 f(0) - (f(1) + f(-1)) / 2``; since the
    rule is linear it is applied to polynomial coefficient vectors, giving the
    weighted sum over the grid {-1, 0, 1}^n of ``det[xI + M_delta]^2``, each
    factor expanded exactly from the spectrum of its grid matrix. The grid is
    built ``_SIGN_BATCH`` points at a time from their linear indices (variable
    0 slowest, each base-3 digit minus one), so memory does not grow with
    3^n. Refuses beyond ``ENUM_CAP`` grid points, read at call time.
    """
    _check_cap(3**inst.n)
    d, n = inst.dim, inst.n
    taus = np.array([math.sqrt(rv.variance) for rv in inst.rvs])
    tw = taus[:, None, None] * model.outer_products(inst.vectors)
    total, powers = 3**n, 3 ** np.arange(n - 1, -1, -1)

    acc = np.zeros(2 * d + 1)
    for start in range(0, total, _SIGN_BATCH):
        g = np.arange(start, min(start + _SIGN_BATCH, total))[:, None] // powers % 3 - 1.0
        weights = np.prod(np.where(g == 0.0, 2.0, -0.5), axis=1)
        shifts = np.tensordot(g, tw, axes=(1, 0))
        mu = np.linalg.eigvalsh(shifts)
        base = _monic_from_roots_batch(-mu)  # det[xI + M_delta]
        sq = np.zeros((len(g), 2 * d + 1))
        for i in range(d + 1):
            sq[:, i : i + d + 1] += base[:, i : i + 1] * base
        acc += weights @ sq
    # Even in x exactly; the grid's sign symmetry cancels odd terms.
    acc[1::2] = 0.0
    return acc


# ---------------------------------------------------------------------------
# Greedy solver over the interlacing family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreedyLevel:
    """One level of the greedy descent."""

    level: int
    branch_values: tuple
    branch_lambda_max: tuple
    chosen_index: int
    chosen_value: float
    chosen_lambda_max: float
    parent_lambda_max: float
    branch_coeffs: tuple  # x-space coefficients per branch, for auditing


@dataclass(frozen=True)
class GreedyTrace:
    levels: tuple
    p_empty_lambda_max: float
    leaf_lambda_max: float
    final_value: float

    def to_doc(self) -> dict:
        return {
            "p_empty_lambda_max": self.p_empty_lambda_max,
            "leaf_lambda_max": self.leaf_lambda_max,
            "final_value": self.final_value,
            "levels": [
                {
                    "level": lv.level,
                    "branch_values": list(lv.branch_values),
                    "branch_lambda_max": list(lv.branch_lambda_max),
                    "chosen_index": lv.chosen_index,
                    "chosen_value": lv.chosen_value,
                    "chosen_lambda_max": lv.chosen_lambda_max,
                    "parent_lambda_max": lv.parent_lambda_max,
                }
                for lv in self.levels
            ],
        }


def _lambda_max_y(ypolys: np.ndarray) -> np.ndarray:
    """Largest root of each even polynomial q(x^2), a row of ``ypolys``, from
    its y-space roots, all from one call of :func:`rpoly.real_roots`; the
    first row that fails (a complex root, a constant, or a negative top
    y-root) raises."""
    tol = rpoly.REAL_ROOT_TOL
    r = rpoly.real_roots(ypolys, tol)
    top = r[:, -1]
    if (top >= 0.0).all():  # no NaN row and no negative y-root to clamp
        return np.sqrt(top)
    # a sorted row's largest |root| is at one of its ends
    fails = np.isnan(top) | (top < -tol * (1.0 + np.maximum(-r[:, 0], top)))
    if fails.any():
        i = int(fails.argmax())
        if np.isnan(top[i]):
            try:
                rpoly.real_roots(ypolys[i], tol)  # raises the row's own exception
            except DegreeZero as exc:
                raise NotRealRooted("degenerate partial polynomial (zero-probability branch?)") from exc
        raise NotRealRooted("partial polynomial has a negative leading y-root")
    return np.sqrt(np.where(top < 0.0, 0.0, top))


def _block_tree(tail: _Tail, fixed, dev, sizes, flat, prob, m: int) -> list:
    """One block of the greedy: the expected y-polynomials of every node of
    the subtree of the variables ``dev``, ``sizes``, ``flat`` and ``prob``
    below the fixed part ``fixed``, from one engine call.

    Each assignment of the block's variables is a fixed part, its
    coefficient row times the flat terms (:func:`_deviations`, as brute
    force builds them) plus ``fixed``, and one :meth:`_Tail.ypolys` call
    over the tail of m variables after the block gives every part's
    polynomial. When ``fixed`` is zero and every law's deviations are their
    own mirror image, the mirror of an assignment has the negated part and
    the reversed index, and the engine solves only half of them. A node's
    polynomial is the probability-weighted sum of its children's, one
    contraction per depth. Entry j has shape ``sizes[:j + 1] + (d + 1,)``:
    the nodes below the first j + 1 variables, each conditioned on its
    path, not weighted by it.
    """
    d = fixed.shape[-1]
    parts = _deviations(dev, sizes, flat, d, np.arange(math.prod(sizes))) + fixed
    tree = [tail.ypolys(parts, m).reshape(tuple(sizes) + (d + 1,))]
    for j in range(len(sizes) - 1, 0, -1):
        tree.append(prob[j, : sizes[j]] @ tree[-1])
    return tree[::-1]


GREEDY_TIE_RTOL = 1e-12


def greedy_interlacing_solve(inst: model.RankOneInstance) -> Tuple[model.SignAssignment, GreedyTrace]:
    """Descend the interlacing family, minimizing the largest branch root.

    At level k every outcome t in the k-th support gets its partial expected
    polynomial evaluated, all branches of a level at once, and the greedy
    fixes a minimizer of the largest root. The levels go in blocks, whose
    depths :func:`_plan_descent` plans once, before the first level, under
    ``ENUM_CAP``. For a block of depth L, :func:`_block_tree` makes one
    :meth:`_Tail.ypolys` call on the fixed parts of every assignment of its
    L variables below the chosen node and folds them up, and its L levels
    read their branch rows off it. Depth 1 is one engine call on the level's
    branches; a block reaching the last level enumerates the remaining
    subtree's leaves, one spectrum each. The engine solves half the parts
    of a block whose parts come in negated pairs (:meth:`_Tail.ypolys`), as
    those of a block with no fixed part over mirror laws do; the plan prices
    every block whole. The greedy builds one :class:`_Tail` of the
    :func:`_live` variables after the first, as
    :func:`expected_charpoly` and the walk's evaluator keep only live ones,
    last variable first, so every block's tail is a prefix of it, and the
    compounds that the first subset-route call builds serve every later one.
    Roots within ``GREEDY_TIE_RTOL`` relative of the minimum count as tied
    and the smallest support index among them wins, so exactly symmetric
    levels (Rademacher ones) do not leave the choice to roundoff. The final
    assignment's deviation norm equals the leaf polynomial's largest root,
    and every level records its chosen root and its parent's, whose gap the
    caller checks.
    """
    if not isinstance(inst, model.RankOneInstance):
        raise TypeError("the greedy solver is rank-one only")
    terms, means, sizes, supp, prob = _family(inst)
    n, d = inst.n, inst.dim
    branches = sizes.tolist()
    variances = _variances(inst)
    live = _live(inst.vectors, variances)
    # per level, the size of the tail after it and its branch count
    calls = tuple((len(live) - bisect.bisect_right(live, k), size) for k, size in enumerate(branches))
    after = live[::-1][: calls[0][0]]  # the live variables after the first
    tail = _Tail([inst.vectors[i] for i in after], variances[after], d)
    dev = means[:, None] - supp
    flat = terms.reshape(n, -1)
    dev_rows = dev.tolist()
    # per level so far: the chosen support index, its deviation and its probability
    prefix: list = []
    chosen_dev: list = []
    chosen_prob: list = []
    levels = []
    start = 0
    for depth in _plan_descent(d, calls):
        end = start + depth
        # np.tensordot(dev[np.arange(start), prefix], terms[:start], axes=(0, 0)), less its overhead
        fixed = np.dot([chosen_dev], flat[:start]).reshape(d, d)
        block = slice(start, end)
        tree = _block_tree(tail, fixed, dev[block], branches[block], flat[block], prob[block], calls[end - 1][0])
        for k in range(start, end):
            support, probs = inst.rvs[k].support, inst.rvs[k].probs
            weights = float(np.prod(chosen_prob)) * prob[k, : branches[k]]
            polys = weights[:, None] * tree[k - start][tuple(prefix[start:])]
            # at level 1 the top polynomial goes first, in the same call
            lams = _lambda_max_y(np.concatenate([polys.sum(axis=0)[None], polys]) if k == 0 else polys).tolist()
            if k == 0:
                p_empty_lam = parent_lam = lams.pop(0)
            lo = min(lams)
            t = next(i for i, lam in enumerate(lams) if lam <= lo + GREEDY_TIE_RTOL * lo)
            levels.append(
                GreedyLevel(
                    level=k + 1,
                    branch_values=support,
                    branch_lambda_max=tuple(lams),
                    chosen_index=t,
                    chosen_value=support[t],
                    chosen_lambda_max=lams[t],
                    parent_lambda_max=parent_lam,
                    branch_coeffs=tuple(map(tuple, _even_to_x(polys).tolist())),
                )
            )
            prefix.append(t)
            chosen_dev.append(dev_rows[k][t])
            chosen_prob.append(probs[t])
            parent_lam = lams[t]
        start = end

    # every index is in range by construction
    assignment = model.SignAssignment(tuple(prefix), tuple(rv.support[t] for rv, t in zip(inst.rvs, prefix)))
    # the same product as np.tensordot(means - assignment.values, terms, axes=(0, 0))
    final_value = linalg.residual_norm(np.dot([chosen_dev], flat).reshape(d, d))
    trace = GreedyTrace(tuple(levels), p_empty_lam, parent_lam, final_value)
    return assignment, trace


# ---------------------------------------------------------------------------
# Bound menu and subset rounding
# ---------------------------------------------------------------------------


FRAME_GATE_TOL = 1e-8


def bound_menu(inst: model.RankOneInstance, sig: float) -> dict:
    """``{name: value}`` for the named upper bounds that apply; ``sig`` is
    ``model.sigma(inst)``.

    ``three_sigma`` and ``four_sigma`` always apply. ``mss`` applies to
    Rademacher families resolving the identity (within 1e-8), with
    delta = max_i ||u_i||^2. ``tight_frame`` applies to Rademacher families
    whose frame operator is a multiple of the identity.
    """
    out = {"three_sigma": 3.0 * sig, "four_sigma": 4.0 * sig}
    rademacher = all(rv.is_rademacher() for rv in inst.rvs)
    gram = model.outer_products(inst.vectors).sum(axis=0)
    eye = np.eye(inst.dim)
    delta = max(float(np.vdot(v, v).real) for v in inst.vectors)

    if rademacher and linalg.residual_norm(gram - eye) <= FRAME_GATE_TOL:
        out["mss"] = 2.0 * (math.sqrt(2.0 * delta) + delta)

    frame_c = float(np.trace(gram).real) / inst.dim
    tight = linalg.residual_norm(gram - frame_c * eye) <= FRAME_GATE_TOL * max(1.0, frame_c)
    if rademacher and tight:
        out["tight_frame"] = math.sqrt(inst.n / inst.dim) * sig
    return out


def lyapunov_round(vectors: Sequence, t: Sequence[float]) -> tuple:
    """Round fractional weights t to a vertex subset S.

    Requires ``|| sum u_i u_i* || <= 1`` (up to 1e-9) and every t_i in
    [0, 1]. Returns S, picked by the greedy solver on {0,1}-valued variables
    with means t_i, and the rounding error
    ``|| sum_{i in S} u_i u_i* - sum_i t_i u_i u_i* ||``, which the bound
    1.5 sqrt(eps), eps = max ||u_i||^2, says is small; the caller checks it.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if len(vecs) != len(t):
        raise PreconditionViolated("weights", "need one t_i per vector")
    d = len(vecs[0])
    ts = [float(x) for x in t]
    if any(not 0.0 <= x <= 1.0 for x in ts):
        raise PreconditionViolated("t range", "every t_i must lie in [0, 1]")
    outers = model.outer_products(vecs)
    if linalg.residual_norm(outers.sum(axis=0)) > 1.0 + 1e-9:
        raise PreconditionViolated("frame operator norm", "|| sum u u* || must be <= 1")

    rvs = tuple(model.DiscreteRandomVariable.bernoulli(x) for x in ts)
    inst = model.RankOneInstance(d, tuple(vecs), rvs)
    assignment, _ = greedy_interlacing_solve(inst)
    subset = tuple(i for i, val in enumerate(assignment.values) if val == 1.0)

    target = np.tensordot(np.array(ts), outers, axes=(0, 0))
    return subset, linalg.residual_norm(outers[list(subset)].sum(axis=0) - target)
