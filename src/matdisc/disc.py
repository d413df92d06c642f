"""Discrepancy computation.

Four routes live here:

* exhaustive minimization over all sign assignments (the ground-truth oracle),
  which skips the eigensolves that row-norm and power-step lower bounds
  rule out,
* expected characteristic polynomials of partial assignments, computed from
  the variances of the remaining variables by Cauchy-Binet subset sums
  (polynomial in n for fixed dimension, with compound matrices from Laplace
  steps) or, where that is cheaper, over the sign patterns of equal variance;
  :func:`_expected_ypolys` is the one place that plans a route, per call,
  and runs it,
* the same top-level polynomial through the differential-operator route, an
  independent oracle for small n,
* the greedy solver that walks the interlacing family by always descending
  into a branch whose polynomial has the smallest largest root, one engine
  call per level.

Plus the menu of named upper bounds and the subset-rounding wrapper.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import linalg, model, rpoly
from ._util import map_chunks, resolve_threads
from .errors import (
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
    """Stacked coefficient matrices (n, d, d), means, padded supports/probs."""
    terms = model.terms(inst)
    means = np.array([rv.mean for rv in inst.rvs])
    sizes = np.array([len(rv.support) for rv in inst.rvs], dtype=np.int64)
    width = sizes.max()
    supp = np.zeros((inst.n, width))
    prob = np.zeros((inst.n, width))
    for j, rv in enumerate(inst.rvs):
        supp[j, : sizes[j]] = rv.support
        prob[j, : sizes[j]] = rv.probs
    return terms, means, sizes, supp, prob


def _strides(sizes: np.ndarray) -> np.ndarray:
    n = len(sizes)
    strides = np.ones(n, dtype=np.int64)
    for j in range(n - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    return strides


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
    """Exact spectral discrepancy, the assignment achieving it, sigma, and
    ``{name: (bound, satisfied)}`` for the named bounds that apply."""

    value: float
    argmin: model.SignAssignment
    sigma: float
    bound_checks: dict

    def to_doc(self) -> dict:
        return {
            "value": self.value,
            "argmin": {"indices": list(self.argmin.indices), "values": list(self.argmin.values)},
            "sigma": self.sigma,
            "norm_kind": "spectral",
            "bound_checks": {k: {"bound": b, "satisfied": s} for k, (b, s) in self.bound_checks.items()},
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


def _visit(mats, norms, idx, ranked, best):
    """Solve ``mats[idx]`` in ascending lower bound ``ranked``,
    ``_SCAN_BLOCK`` per eigensolve, each block under every norm of ``norms``,
    until the next bound exceeds the largest of the per-norm (value, index)
    ``best``, which it updates in place, by the relative ``_PRUNE_SLACK``."""
    pos = 0
    while True:
        limit = np.searchsorted(ranked, max(best)[0] * (1.0 + _PRUNE_SLACK), side="right")
        cut = min(pos + _SCAN_BLOCK, limit)
        if cut <= pos:
            return best
        block = idx[pos:cut]
        eigs = np.linalg.eigvalsh(mats[block])
        for i, vals in enumerate(norm(eigs) for norm in norms):
            k = np.lexsort((block, vals))[0]
            best[i] = min(best[i], (float(vals[k]), int(block[k])))
        pos = cut


def exact_minimum(inst: model.Instance, norm_kinds: Sequence[NormKind], threads: Optional[int] = None) -> list:
    """One ``(value, argmin)`` of :func:`disc_bruteforce`'s scan per norm of
    ``norm_kinds`` (spectral, or Schatten of finite order p >= 1)."""
    terms, means, sizes, supp, _ = _family(inst)
    strides = _strides(sizes)
    total = int(np.prod(sizes.astype(object)))
    _check_cap(total)
    norms = [_norm_fn(kind) for kind in norm_kinds]
    nthreads = resolve_threads(threads)
    # deviation coefficients eps_j - E[xi_j], per variable and support index
    dev = supp - means[:, None]

    flat = terms.reshape(len(terms), -1)
    worker = threading.local()

    def scan(start, stop):
        count = stop - start
        # Each worker reuses its chunk-sized arrays: fresh ones cost a page
        # fault per page on every chunk. The terms are complex and the
        # coefficients' imaginary parts stay zero.
        if len(getattr(worker, "mats", ())) < count:
            worker.coef = np.zeros((count, len(sizes)), dtype=flat.dtype)
            worker.mats = np.empty((count,) + terms.shape[1:], dtype=flat.dtype)
        # Variable j holds each support index for a run of strides[j]
        # assignments: fill its column run by run, the chunk's first and
        # last runs trimmed, with no per-assignment integer division.
        coef = worker.coef[:count]
        for j, (stride, size) in enumerate(zip(strides.tolist(), sizes.tolist())):
            first, last = start // stride, (stop - 1) // stride
            runs = np.full(last - first + 1, stride)
            runs[0] -= start - first * stride
            runs[-1] -= (last + 1) * stride - stop
            coef.real[:, j] = np.repeat(dev[j][np.arange(first, last + 1) % size], runs)
        # the product np.tensordot(coef, terms, axes=(1, 0)) computes, on the
        # same C-ordered complex coefficients, so the matrices match it bit
        # for bit (the layout matters: at d = 1 the product is matrix-vector)
        mats = worker.mats[:count]
        np.dot(coef, flat, out=mats.reshape(count, -1))
        # largest row norm <= spectral norm <= every served norm (the maximum
        # runs over columns: numpy reduces a short last axis slowly)
        pairs = mats.view(np.float64)
        rows = np.einsum("kij,kij->ki", pairs, pairs)
        bound = np.sqrt(functools.reduce(np.maximum, rows.T))
        order = np.argsort(bound)
        ranked = bound[order]
        best = _visit(mats, norms, order[:_SCAN_BLOCK], ranked[:_SCAN_BLOCK], [(math.inf, -1)] * len(norms))
        rest = order[_SCAN_BLOCK : np.searchsorted(ranked, max(best)[0] * (1.0 + _PRUNE_SLACK), side="right")]
        if rest.size:
            # the matrices the row norms leave in, by their power-step bound
            power = _power_bound(mats[rest], rows[rest])
            by_power = np.argsort(power)
            best = _visit(mats, norms, rest[by_power], power[by_power], best)
        return [(value, start + index) for value, index in best]

    out = []
    for value, index in map(min, zip(*map_chunks(scan, total, nthreads))):
        digits = [index // stride % size for stride, size in zip(strides.tolist(), sizes.tolist())]
        out.append((value, model.SignAssignment.from_indices(digits, inst.rvs)))
    return out


def disc_bruteforce(inst: model.Instance, threads: Optional[int] = None, norm_tol: float = 1e-9) -> DiscrepancyReport:
    """Exact spectral discrepancy by enumerating every assignment.

    Minimizes ``|| sum_j eps_j M_j - sum_j E[xi_j] M_j ||`` over the product
    of the supports, refusing beyond ``ENUM_CAP`` assignments (read at call
    time); ties resolve to the lexicographically smallest tuple of
    support indices. A named bound counts as satisfied when the value is at
    most the bound plus ``norm_tol``.

    The scan (:func:`exact_minimum`) serves several norms at once, the
    spectral norm and Schatten norms of finite order p >= 1, evaluating each
    eigensolved block under every one. It builds each fixed chunk's
    deviation matrices and skips the eigensolve of every matrix that
    provably cannot win: every served norm is at least the spectral norm,
    which is at least the largest row norm ``max_j ||M e_j||``. The matrices
    are visited in ascending bound, ``_SCAN_BLOCK`` per eigensolve, and the
    chunk stops once the next bound exceeds the largest of its running
    bests, one per norm, by the relative slack ``_PRUNE_SLACK`` (1e-10, far
    above rounding, so exact ties are never pruned). The first block goes by
    row norm; the matrices its bests leave in go by the tighter power-step
    bound of :func:`_power_bound`, so an instance whose row norms sit far
    below its norms prunes as well as any other. Each norm's result is
    exact. Chunks reduce with a (value, index) minimum per norm and each
    chunk prunes only against its own bests, so the values, the argmins and
    the matrices handed to the eigensolver do not depend on the thread count.
    """
    [(value, argmin)] = exact_minimum(inst, ["spectral"], threads)
    sig = model.sigma(inst)
    checks: dict = {}
    if isinstance(inst, model.RankOneInstance):
        for name, bound in bound_menu(inst, sig).items():
            checks[name] = (bound, value <= bound + norm_tol)
    return DiscrepancyReport(value, argmin, sig, checks)


# ---------------------------------------------------------------------------
# Expected characteristic polynomials
# ---------------------------------------------------------------------------


def _even_to_x(ycoeffs: np.ndarray) -> np.ndarray:
    """Coefficients in y = x^2 to the even polynomial in x."""
    out = np.zeros(2 * len(ycoeffs) - 1)
    out[::2] = ycoeffs
    return out


# Entries of W = V* U per product block of the Cauchy-Binet route.
_PRODUCT_BLOCK = 1 << 16
# Matrices per eigensolve call in the sign route and the operator oracle.
_SIGN_BATCH = 1 << 14


@functools.lru_cache(maxsize=16)
def _colex_tables(m: int, d: int) -> tuple:
    """The k-subsets of range(m) in colexicographic order, for k = 0..d
    (read-only; cached, since sweeps repeat sizes).

    Colex order lists the subsets of range(m') before all others for every
    m' < m, so ``tables[k][:comb(m', k)]`` are the k-subsets of range(m').
    """
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
    return tuple(tables)


@functools.lru_cache(maxsize=None)
def _dim_tables(d: int) -> tuple:
    """Per dimension: the colex row subsets R of range(d) for k = 0..d, their
    bitmasks, and the 0/1 matrix folding x-coefficient pairs (i, l) of a
    product onto y = x^2 (odd powers cancel and are dropped); read-only."""
    rows = _colex_tables(d, d)
    masks = tuple((1 << t).sum(axis=1) for t in rows)
    power = np.add.outer(np.arange(d + 1), np.arange(d + 1)).reshape(-1)
    fold = (power[:, None] == 2 * np.arange(d + 1)[None, :]).astype(float)
    for a in masks + (fold,):
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


def _tail_terms(vectors: np.ndarray, variances) -> list:
    """Per k = 1..min(d, m), the pair of the compound ``C_k(U)`` of
    ``U = [u_1 .. u_m]`` (the rows of ``vectors``, shape (m, d)), from
    :func:`_compounds`, and the products ``tau_S^2`` of the variances over
    its columns S. Index 0 holds nothing.

    The columns are prefix-closed: the terms of the first m' variables are
    the first ``comb(m', k)`` columns.
    """
    tau2 = np.asarray(variances, dtype=float)
    m, d = vectors.shape
    top = min(d, m)
    cols = _colex_tables(m, top)
    return [None] + [(c, tau2[cols[k]].prod(axis=1)) for k, c in enumerate(_compounds(vectors.T, top)) if k]


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


def _squared_minors(rot: np.ndarray, minors: np.ndarray, count: int, lead: int):
    """``|det W_{R,S}|^2`` with ``C_k(W) = rot @ minors``, over the first
    ``count`` columns S of ``minors``: yields (column slice, block), each
    block at most ``_PRODUCT_BLOCK`` entries for ``lead`` leading rows."""
    step = max(1, _PRODUCT_BLOCK // max(1, lead * rot.shape[-2]))
    for start in range(0, count, step):
        cols = slice(start, min(start + step, count))
        w = rot @ minors[:, cols]
        yield cols, w.real**2 + w.imag**2


def _subset_ypolys(fixed: np.ndarray, tail: list, m: int) -> np.ndarray:
    """The Cauchy-Binet route of :func:`_expected_ypolys`, over the first m
    variables of ``tail``, the :func:`_tail_terms` of a variable list that
    starts with them.

    With ``F_b = V diag(lam) V*`` and ``W = V* U`` Cauchy-Binet gives

        p_b(x) = sum_{|S| <= d} (-1)^|S| tau_S^2 f_S(x) g_S(x),
        f_S = sum_{|R| = |S|} |det W_{R,S}|^2 prod_{r not in R} (x - lam_r),

    and ``g_S`` the same with ``x + lam_r``. Summing over S first leaves, per
    size k, the matrix ``H_k[R, R'] = sum_S tau_S^2 |det W_{R,S}|^2
    |det W_{R',S}|^2`` between complement polynomials. The minors of W are
    those of U rotated by the k-th compound of V*, ``C_k(W) = C_k(V*) C_k(U)``,
    so each branch takes one eigendecomposition, the Laplace steps of
    :func:`_unitary_compounds` and one small product, and no determinant.
    """
    nb, d = fixed.shape[0], fixed.shape[1]
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
            for cols, z in _squared_minors(rots[k], tail[k][0], math.comb(m, k), nb):
                h += (z * tail[k][1][cols]) @ np.swapaxes(z, 1, 2)
        term = np.swapaxes(comp[0][:, masks[k]], 1, 2) @ h @ comp[1][:, masks[k]]
        gram += term if k % 2 == 0 else -term
    return gram.reshape(nb, -1) @ fold


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


def _sign_ypolys(fixed: np.ndarray, vectors, variances) -> np.ndarray:
    """The sign route of :func:`_expected_ypolys`.

    Only the variances enter, so every ``c_i`` may be taken as a fair sign
    times ``tau_i``: the 2^m sign patterns are summed from spectra as
    ``prod_j (y - mu_j^2)``. When every fixed part is zero, M -> -M leaves
    the determinant unchanged and the first sign is pinned to +1. At most
    ``_SIGN_BATCH`` matrices go to one eigensolve call.
    """
    nb, d = fixed.shape[0], fixed.shape[1]
    m = len(variances)
    u = np.asarray(vectors, dtype=complex).reshape(m, d)
    tw = np.sqrt(np.asarray(variances, dtype=float))[:, None, None] * model.outer_products(u)
    head = 1 if m and not fixed.any() else 0
    acc = np.zeros((nb, d + 1))
    for shifts in _sign_blocks(tw, head, _SIGN_BATCH // nb):
        mu = np.linalg.eigvalsh(fixed[:, None] + shifts[None])
        acc += _monic_from_roots_batch((mu * mu).reshape(-1, d)).reshape(nb, -1, d + 1).sum(axis=1)
    return acc / 2.0 ** (m - head)


# Seconds per unit of work of the two routes, fitted (within about 2x) to
# timings of single calls at d <= 12 on a 2-core x86 host. The planner only
# compares the routes' totals, so a route is misjudged only near the
# crossover, where both cost about the same.
_SECONDS_SUBSET_CALL = (5e-5, 8e-5)  # per call, per subset size k
_SECONDS_PRODUCT = (1e-8, 1e-10)  # per entry of W or multiply-add of a Laplace step, per term of W's products
_SECONDS_COMPLEMENT = 6e-8  # per (mask, root) of the complement polynomials
_SECONDS_SIGN_CALL = (8e-5, 2.3e-6)  # per call, per dimension
_SECONDS_SIGN_MATRIX = (1.3e-7, 2.3e-9)  # per eigensolve, times d^2 and d^3


def _plan_route(d: int, m: int, nb: int, symmetric: bool = False) -> str:
    """Route of one engine call with tail size m and nb fixed parts.

    Each route has a count that must fit ``ENUM_CAP``, read at call time:
    "subsets" the compound entries it builds, ``sum_k C(m, k) C(d, k)`` of
    the tail plus ``C(d, k)^2`` per fixed part; "signs" the 2^m sign
    patterns per fixed part (2^(m-1) when ``symmetric``, every fixed part
    zero). Of the routes that fit, the one with the smaller estimated time
    of this call, the tail's compounds included, is returned;
    :class:`EnumerationTooLarge` is raised when neither fits. A call with no
    tail variable (m = 0) takes the sign route, whose one pattern is the
    fixed part's own spectrum. Plans are cached, keyed by the cap too: the
    barrier walk plans every batch of points it evaluates.
    """
    return _cached_plan(d, m, nb, ENUM_CAP, symmetric)


@functools.lru_cache(maxsize=4096)
def _cached_plan(d: int, m: int, nb: int, limit: int, symmetric: bool) -> str:
    if not m:
        return "signs"
    ks = range(1, min(d, m) + 1)
    counts = {
        "subsets": sum(math.comb(m, k) * math.comb(d, k) + nb * math.comb(d, k) ** 2 for k in ks),
        "signs": 2 ** (m - 1 if symmetric else m),
    }
    fits = [route for route in counts if counts[route] <= limit]
    if not fits:
        raise EnumerationTooLarge(min(counts.values()), limit)
    entries = sum(math.comb(d, k) * math.comb(m, k) for k in ks)
    products = sum(math.comb(d, k) ** 2 * math.comb(m, k) for k in ks)
    compound = sum(math.comb(d, k) ** 2 * k for k in ks if 1 < k <= d // 2)
    tail = sum(math.comb(m, k) * math.comb(d, k) * k for k in ks if k > 1)  # the tail's Laplace steps
    seconds = {
        "subsets": _SECONDS_SUBSET_CALL[0]
        + _SECONDS_SUBSET_CALL[1] * len(ks)
        + nb * (_SECONDS_PRODUCT[0] * (compound + entries) + _SECONDS_PRODUCT[1] * products)
        + nb * _SECONDS_COMPLEMENT * (d << d)
        + _SECONDS_PRODUCT[0] * tail,
        "signs": _SECONDS_SIGN_CALL[0]
        + _SECONDS_SIGN_CALL[1] * d
        + nb * counts["signs"] * (_SECONDS_SIGN_MATRIX[0] * d * d + _SECONDS_SIGN_MATRIX[1] * d**3),
    }
    return min(fits, key=seconds.get)


def _expected_ypolys(fixed, vectors, variances, tail=None) -> tuple:
    """Expected ``det[x^2 I - M_b^2]`` in y = x^2, one row per fixed part.

    ``M_b = F_b + sum_i c_i u_i u_i*`` with ``fixed[b] = F_b`` Hermitian and
    independent mean-zero ``c_i`` of variance ``variances[i]``. Both factors
    of ``det[xI - M] det[xI + M]`` are affine in every ``c_i``, so only the
    variances enter. Two exact routes compute it, Cauchy-Binet subset sums
    (:func:`_subset_ypolys`, polynomial in m for fixed d) and sign patterns
    (:func:`_sign_ypolys`, exponential in m, cheap for small m or large d);
    :func:`_plan_route` picks one for this call under ``ENUM_CAP``. This is
    the only place that picks and runs a route.

    Returns ascending y-coefficients, shape (B, d+1), and the tail: the
    :func:`_tail_terms` of the variables, built by the first subset-route
    call. A later call on these variables or on a prefix of them hands it
    back as ``tail`` and shares the compounds; it stays None (or as passed)
    on the sign route.
    """
    fixed = np.asarray(fixed, dtype=complex)
    nb, d = fixed.shape[0], fixed.shape[1]
    m = len(variances)
    if _plan_route(d, m, nb, not fixed.any()) == "signs":
        return _sign_ypolys(fixed, vectors, variances), tail
    if tail is None:
        tail = _tail_terms(np.asarray(vectors, dtype=complex).reshape(m, d), variances)
    return _subset_ypolys(fixed, tail, m), tail


def _variances(inst: model.RankOneInstance) -> np.ndarray:
    return np.array([rv.variance for rv in inst.rvs])


def expected_charpoly(
    inst: model.RankOneInstance,
    prefix: Sequence[int] = (),
) -> np.ndarray:
    """Expected characteristic polynomial of a partial assignment.

    ``prefix`` pins the first ``k`` outcomes by support index. The result is
    the probability-weighted expectation, over the remaining outcomes, of
    ``det[x^2 I - M^2] = det[xI - M] det[xI + M]`` where
    ``M = sum_i (E[xi_i] - eps_i) u_i u_i*``, computed from the tail's
    variances by :func:`_expected_ypolys`. Degree is exactly ``2 * dim``.
    """
    if not isinstance(inst, model.RankOneInstance):
        raise TypeError("expected_charpoly needs a rank-one instance")
    terms, means, sizes, supp, prob = _family(inst)
    k = len(prefix)
    if k > inst.n:
        raise InvariantViolation("prefix", "longer than the instance")
    for j, i in enumerate(prefix):
        if not 0 <= int(i) < sizes[j]:
            raise InvariantViolation("prefix", f"support index {i} out of range at {j}")

    idx = np.array([int(i) for i in prefix], dtype=np.int64)
    weight = float(np.prod(prob[np.arange(k), idx]))
    fixed = np.tensordot(means[:k] - supp[np.arange(k), idx], terms[:k], axes=(0, 0))
    ypolys, _ = _expected_ypolys(fixed[None], inst.vectors[k:], _variances(inst)[k:])
    return _even_to_x(weight * ypolys[0])


OPERATOR_MAX_N = 14


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
    3^n. Refuses beyond ``OPERATOR_MAX_N`` variables.
    """
    if inst.n > OPERATOR_MAX_N:
        raise EnumerationTooLarge(3**inst.n, 3**OPERATOR_MAX_N)
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
    monotone_ok: bool
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
                    "monotone_ok": lv.monotone_ok,
                }
                for lv in self.levels
            ],
        }


GREEDY_MONOTONE_TOL = 1e-9


def _lambda_max_y(ycoeffs: np.ndarray, tol: float) -> float:
    """Largest root of the even polynomial q(x^2), from its y-space roots."""
    c, nzero = rpoly.deflate_zero_roots(ycoeffs)
    if len(c) + nzero < 2:
        raise NotRealRooted("degenerate partial polynomial (zero-probability branch?)")
    r = rpoly._real_roots(c, nzero, tol)
    if r[-1] < -tol * (1.0 + np.abs(r).max()):
        raise NotRealRooted("partial polynomial has a negative leading y-root")
    return math.sqrt(max(r[-1], 0.0))


GREEDY_TIE_RTOL = 1e-12


def greedy_interlacing_solve(
    inst: model.RankOneInstance,
    root_tol: float = rpoly.REAL_ROOT_TOL,
) -> Tuple[model.SignAssignment, GreedyTrace]:
    """Descend the interlacing family, minimizing the largest branch root.

    At level k every outcome t in the k-th support gets its partial expected
    polynomial evaluated, all branches of a level in one call of
    :func:`_expected_ypolys` on their fixed parts, and the greedy fixes a
    minimizer of the largest root. Each level's call plans its own route
    under ``ENUM_CAP``. The tail goes to the engine last variable first, so
    every level's tail is a prefix of the reversed variable list, and the
    compounds that the first subset-route level builds serve every later one.
    Roots within ``GREEDY_TIE_RTOL`` relative of the minimum count as tied
    and the smallest support index among them wins, so exactly symmetric
    levels (Rademacher ones) do not leave the choice to roundoff. The final
    assignment's deviation norm equals the leaf polynomial's largest root,
    and every level records whether the chosen root stayed below the
    parent's (violations beyond 1e-9 are flagged in the trace, not silently
    dropped).
    """
    if not isinstance(inst, model.RankOneInstance):
        raise TypeError("the greedy solver is rank-one only")
    terms, means, sizes, supp, prob = _family(inst)
    vectors = np.array(inst.vectors)
    variances = _variances(inst)
    tail = None
    prefix: list = []
    levels = []
    parent_lam = None
    p_empty_lam = None
    for k in range(inst.n):
        pi = np.array(prefix, dtype=np.int64)
        fixed = np.tensordot(means[:k] - supp[np.arange(k), pi], terms[:k], axes=(0, 0))
        weights = float(np.prod(prob[np.arange(k), pi])) * prob[k, : sizes[k]]
        branches = fixed[None] + (means[k] - supp[k, : sizes[k]])[:, None, None] * terms[k][None]
        polys, tail = _expected_ypolys(branches, vectors[:k:-1], variances[:k:-1], tail)
        polys = weights[:, None] * polys
        if k == 0:
            p_empty_lam = _lambda_max_y(polys.sum(axis=0), root_tol)
            parent_lam = p_empty_lam
        lams = np.array([_lambda_max_y(polys[t], root_tol) for t in range(int(sizes[k]))])
        lo = lams.min()
        t = int(np.flatnonzero(lams <= lo + GREEDY_TIE_RTOL * lo)[0])
        monotone = bool(lams[t] <= parent_lam + GREEDY_MONOTONE_TOL)
        levels.append(
            GreedyLevel(
                level=k + 1,
                branch_values=tuple(float(supp[k, i]) for i in range(int(sizes[k]))),
                branch_lambda_max=tuple(float(x) for x in lams),
                chosen_index=t,
                chosen_value=float(supp[k, t]),
                chosen_lambda_max=float(lams[t]),
                parent_lambda_max=float(parent_lam),
                monotone_ok=monotone,
                branch_coeffs=tuple(tuple(_even_to_x(polys[i])) for i in range(int(sizes[k]))),
            )
        )
        prefix.append(t)
        parent_lam = float(lams[t])

    assignment = model.SignAssignment.from_indices(prefix, inst.rvs)
    coef = means - np.array(assignment.values)
    deviation = np.tensordot(coef, terms, axes=(0, 0))
    final_value = linalg.residual_norm(deviation)
    trace = GreedyTrace(tuple(levels), float(p_empty_lam), float(parent_lam), float(final_value))
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
