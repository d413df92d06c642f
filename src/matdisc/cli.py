"""Command-line front end: solvers, verification sweeps, reports.

Every verification suite is a plain function returning a report dict whose
rows carry (name, lhs, rhs, slack, pass); the acceptance tests call the same
functions. Identical configuration and seed produce byte-identical reports,
independent of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import math
import operator
import sys
from typing import Optional

import numpy as np

from . import disc, frames, model, rpoly, schatten, witness
from ._util import canonical_json
from .errors import EnumerationTooLarge, HypothesisNotMet, MatDiscError, NotRealRooted


def _row(name: str, lhs: float, rhs: float) -> dict:
    lhs, rhs = float(lhs), float(rhs)
    slack = rhs - lhs
    if math.isfinite(slack):
        return {"name": name, "lhs": lhs, "rhs": rhs, "slack": slack, "pass": lhs <= rhs}
    # JSON has no NaN or infinity: non-finite values are written as their
    # repr ("nan", "inf", "-inf") and the row fails
    values = [v if math.isfinite(v) else repr(v) for v in (lhs, rhs, slack)]
    return {"name": name, "lhs": values[0], "rhs": values[1], "slack": values[2], "pass": False}


def _flag_row(name: str, ok: bool) -> dict:
    return {"name": name, "lhs": 0.0 if ok else 1.0, "rhs": 0.0, "slack": -1.0 if not ok else 0.0, "pass": bool(ok)}


def _finish(report: dict) -> dict:
    checks = report["checks"]
    report["total"] = len(checks)
    report["failed"] = sum(1 for c in checks if not c["pass"])
    report["pass"] = report["failed"] == 0
    return report


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def random_rv(rng, size: int) -> model.DiscreteRandomVariable:
    """``size`` atoms in [-2, 2], at least 0.1 apart, with Dirichlet
    probabilities clipped below at 0.05 and renormalized.

    The checks and the arithmetic run on Python floats, each operation the
    one numpy's would round the same way: the gaps are differences of the
    sorted atoms. The Dirichlet law is ``Generator.dirichlet``'s for all
    parameters 2: its gamma draws, their left-to-right sum, one reciprocal
    and one product per draw. The clipped probabilities' sum also goes left
    to right, as numpy sums fewer than eight terms. Both sums are
    ``functools.reduce`` additions, since ``sum`` compensates its rounding
    from Python 3.12 on."""
    while True:
        vals = sorted(rng.uniform(-2.0, 2.0, size=size).tolist())
        if min((b - a for a, b in zip(vals, vals[1:])), default=math.inf) >= 0.1:
            break
    gammas = rng.standard_gamma(2.0, size).tolist()
    scale = 1.0 / functools.reduce(operator.add, gammas)
    probs = [max(g * scale, 0.05) for g in gammas]
    total = functools.reduce(operator.add, probs)
    return model.DiscreteRandomVariable(tuple(vals), tuple(p / total for p in probs))


def random_rank_one(rng, d: int, n: int) -> model.RankOneInstance:
    """n complex Gaussian vectors, each its real then its imaginary part,
    then n laws of 2 or 3 atoms (:func:`random_rv`)."""
    parts = rng.normal(size=(n, 2, d))
    vectors = tuple((parts[:, 0] + 1j * parts[:, 1]) / math.sqrt(2.0))
    rvs = tuple(random_rv(rng, int(rng.integers(2, 4))) for _ in range(n))
    return model.RankOneInstance(d, vectors, rvs)


def sweep_rank_one(seed: int, count: int):
    """The seeded rank-one family used by the three-sigma and walk sweeps:
    d in 2..5, n in 2..8."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        out.append(random_rank_one(rng, d, n))
    return out


def random_hermitian_matrix(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def random_psd(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d))
    return g @ g.T / d


def random_hermitian_instance(rng, d: int, n: int, rademacher: bool) -> model.HermitianInstance:
    mats = tuple(random_hermitian_matrix(rng, d) for _ in range(n))
    if rademacher:
        rvs = tuple(model.DiscreteRandomVariable.rademacher() for _ in range(n))
    else:
        # Two-point laws with variance >= 1: the regime where the stated
        # Frobenius bound (variance inside the square) is valid.
        rvs = []
        for _ in range(n):
            a = float(rng.uniform(-3.0, -1.5))
            b = float(rng.uniform(1.5, 3.0))
            pr = float(rng.uniform(0.3, 0.7))
            rvs.append(model.DiscreteRandomVariable((a, b), (1.0 - pr, pr)))
        rvs = tuple(rvs)
    return model.HermitianInstance(d, mats, rvs)


# ---------------------------------------------------------------------------
# Verification suites, and the per-instance checks `solve` and `replay` share
# ---------------------------------------------------------------------------

# The slack of the rows that hold a discrepancy, a largest root or a gap to
# the paper's bound, and the real-rootedness tolerance of the top polynomial
# and of the greedy's branch families, looser than ``rpoly.REAL_ROOT_TOL``.
NORM_TOL = 1e-9
REAL_ROOTED_TOL = 1e-6


def _greedy_check(inst: model.RankOneInstance, brute: Optional[float], sigma: float, prefix: str) -> tuple:
    """Rows brute <= greedy <= 3 sigma, leaf identity and level monotonicity,
    named after ``prefix``, and ``(assignment, trace)``; or one failing
    ``greedy[...]`` row and ``None`` when a level's roots do not come out real.
    ``brute`` is the exact discrepancy, or None where brute force refused the
    instance, which leaves out the first row."""
    try:
        assignment, trace = disc.greedy_interlacing_solve(inst)
    except NotRealRooted as exc:
        return [_flag_row(f"{prefix}greedy[{exc}]", False)], None
    worst = max(lv.chosen_lambda_max - lv.parent_lambda_max for lv in trace.levels)
    rows = [] if brute is None else [_row(f"{prefix}brute_le_greedy", brute, trace.final_value + 1e-12)]
    return rows + [
        _row(f"{prefix}greedy_le_3sigma", trace.final_value, 3.0 * sigma + NORM_TOL),
        _row(f"{prefix}leaf_identity_gap", abs(trace.final_value - trace.leaf_lambda_max), NORM_TOL),
        _row(f"{prefix}level_monotone_gap", worst, NORM_TOL),
    ], (assignment, trace)


def _walk_check(inst: model.RankOneInstance, prefix: str) -> tuple:
    """Rows for the top polynomial's largest root against 3, then the initial
    barriers against delta or the failing ``walk[reason]``, named after
    ``prefix``, on a normalized instance; and the walk's trace. The walk runs
    first, so its refusal of an enumeration past the cap comes before any
    work."""
    trace = witness.replay_barrier_walk(inst)
    try:
        lam = rpoly.lambda_max(disc.expected_charpoly(inst), tol=REAL_ROOTED_TOL)
        rows = [_row(f"{prefix}lambda_p_empty", lam, 3.0 + NORM_TOL)]
    except NotRealRooted as exc:
        rows = [_flag_row(f"{prefix}lambda_p_empty[{exc}]", False)]
    if trace.passed:
        gap = max((b - d for b, d in zip(trace.initial_barriers, trace.deltas)), default=0.0)
        rows.append(_row(f"{prefix}initial_barrier_gap", gap, NORM_TOL))
    else:
        rows.append(_flag_row(f"{prefix}walk[{trace.reason}]", False))
    return rows, trace


def verify_thm13(seed: int = 0, count: int = 300, threads=None) -> dict:
    """Brute force <= greedy <= 3 sigma on the seeded rank-one sweep, plus the
    leaf identity and per-level monotonicity of every greedy trace."""
    report = {
        "command": "verify",
        "suite": "thm13",
        "seed": seed,
        "count": count,
        "root_tol": rpoly.REAL_ROOT_TOL,
        "norm_tol": NORM_TOL,
        "checks": [],
    }
    for i, inst in enumerate(sweep_rank_one(seed, count)):
        brute = disc.disc_bruteforce(inst, threads=threads)
        report["checks"] += _greedy_check(inst, brute.value, brute.sigma, f"i{i}.")[0]
    return _finish(report)


def verify_interlacing(seed: int = 0, count: int = 300) -> dict:
    """Real-rootedness and common interlacing (exact, from the sorted roots
    of the branches) of every branch set along the greedy path of the
    seeded sweep."""
    report = {
        "command": "verify",
        "suite": "interlacing",
        "seed": seed,
        "count": count,
        "root_tol": rpoly.REAL_ROOT_TOL,
        "real_rooted_tol": REAL_ROOTED_TOL,
        "checks": [],
    }
    rows = report["checks"]
    for i, inst in enumerate(sweep_rank_one(seed, count)):
        try:
            _, trace = disc.greedy_interlacing_solve(inst)
        except NotRealRooted as exc:
            rows.append(_flag_row(f"i{i}.greedy[{exc}]", False))
            continue
        # every level's branches in one stack, a level's rows contiguous; a
        # row that is not real-rooted comes back NaN
        sizes = np.array([len(lv.branch_coeffs) for lv in trace.levels])
        r = rpoly.real_roots(np.concatenate([lv.branch_coeffs for lv in trace.levels]), REAL_ROOTED_TOL)
        common = rpoly.common_interlacing_by_group(r, np.cumsum(sizes) - sizes, REAL_ROOTED_TOL) | (sizes < 2)
        rows.append(_flag_row(f"i{i}.branches_real_rooted", not np.isnan(r).any()))
        rows.append(_flag_row(f"i{i}.common_interlacing", bool(common.all())))
    return _finish(report)


def verify_thm41(seed: int = 0, count: int = 300) -> dict:
    """Normalized sweep: largest root of the top polynomial at most 3, and a
    full barrier-walk replay on every instance."""
    report = {"command": "verify", "suite": "thm41", "seed": seed, "count": count, "norm_tol": NORM_TOL, "checks": []}
    for i, inst in enumerate(sweep_rank_one(seed, count)):
        report["checks"] += _walk_check(model.normalize(inst), f"i{i}.")[0]
    return _finish(report)


THM15_PAIRS = ((2, 3), (3, 4), (3, 5), (4, 7), (5, 9))


def verify_thm15() -> dict:
    """Exact pattern norms of harmonic unit-norm tight frames."""
    report = {"command": "verify", "suite": "thm15", "pairs": [list(p) for p in THM15_PAIRS], "checks": []}
    rows = report["checks"]
    for d, n in THM15_PAIRS:
        inst = frames.harmonic_untf(n, d)
        res = frames.verify_untf_disc(inst)
        rows.append(_flag_row(f"d{d}n{n}.all_patterns_constant", res["all_patterns_constant"]))
        rows.append(_row(f"d{d}n{n}.disc_gap", abs(res["value"] - n / d), NORM_TOL))
        sigma = math.sqrt(res["sigma_sq"])
        rows.append(_row(f"d{d}n{n}.sqrt_ratio_gap", abs(res["value"] - math.sqrt(n / d) * sigma), NORM_TOL))
        if n == 2 * d - 1:
            ratio = res["value"] / sigma
            rows.append(_row(f"d{d}n{n}.edge_ratio_gap", abs(ratio - math.sqrt(2.0 - 1.0 / d)), NORM_TOL))
    return _finish(report)


def verify_prop16(n: Optional[int] = None) -> dict:
    """Exact integer discrepancy of the diagonal family (zero tolerance)."""
    ns = [n] if n else [1, 2, 3, 4]
    report = {"command": "verify", "suite": "prop16", "n": ns, "checks": []}
    rows = report["checks"]
    for k in ns:
        res = frames.verify_lower_bound(k)
        rows.append(_flag_row(f"n{k}.disc_eq_n", res["disc"] == k))
        rows.append(_flag_row(f"n{k}.sigma_sq_eq_n", res["sigma_sq"] == k))
        rows.append(_row(f"n{k}.log_ratio_gap", abs(res["log_factor_ratio"] - 1.0), 1e-12))
    return _finish(report)


def verify_alexandrov(seed: int = 0, count: int = 500) -> dict:
    """Mixed-discriminant cross-checks and the barrier lemma sweeps."""
    rng = np.random.default_rng(seed)
    report = {"command": "verify", "suite": "alexandrov", "seed": seed, "count": count, "checks": []}
    rows = report["checks"]

    # polarization vs column-substitution expansion
    for i in range(100):
        d = int(rng.integers(2, 6))
        mats = [random_psd(rng, d) for _ in range(d)]
        a = witness.mixed_discriminant(mats)
        b = witness.mixed_discriminant_permanental(mats)
        rows.append(_row(f"mix{i}.route_gap", abs(a - b), 1e-9 * max(1.0, abs(a), abs(b))))

    # trace identity of the padded normalization
    for i in range(60):
        d = int(rng.integers(2, 7))
        x = random_psd(rng, d)
        rows.append(_row(f"trace{i}.gap", abs(witness.d_tilde([x]) - float(np.trace(x))), 1e-10 * max(1.0, abs(np.trace(x)))))

    # pairwise inequality
    for i in range(count):
        d = int(rng.integers(2, 7))
        lhs, rhs = witness.check_alexandrov(random_psd(rng, d), random_psd(rng, d))
        rows.append(_row(f"pair{i}.rhs_minus_lhs", rhs - lhs, 1e-9 * max(1.0, abs(lhs), abs(rhs))))
    return _finish(report)


def verify_barrier_lemmas(seed: int = 0, count: int = 200) -> dict:
    """Quadratic barrier monotonicity, directional monotonicity, the
    second-order bound, and the bivariate transfer lemma (hypothesis-filtered)."""
    rng = np.random.default_rng(seed)
    report = {"command": "verify", "suite": "barrier_lemmas", "seed": seed, "count": count, "checks": []}
    rows = report["checks"]

    for i in range(count):
        r1, r2 = np.sort(rng.uniform(-3.0, 3.0, size=2))
        lead = float(rng.uniform(0.2, 3.0))
        s = lead * np.array([r1 * r2, -(r1 + r2), 1.0])
        probes = r2 + np.sort(rng.uniform(0.05, 10.0, size=8))
        rows.append(_flag_row(f"quad{i}.nonincreasing", witness.check_quadratic_barrier(s, probes)))

    skipped = 0
    for i in range(count):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        parts = tuple(random_psd(rng, d) for _ in range(m))
        offset = random_hermitian_matrix(rng, d).real
        base = sum(parts, np.zeros((d, d)))
        mu = abs(float(np.linalg.eigvalsh(offset).min())) / max(float(np.linalg.eigvalsh(base).min()), 1e-9) + 1.0
        z0 = np.full(m, mu)
        dp = witness.DeterminantalPolynomial(parts, offset)
        mono_ok, second_ok = True, True
        for t in (0.1, 1.0, 10.0):
            for j in range(m):
                step = np.zeros(m)
                step[j] = t
                if dp.barrier(j, z0 + step) > dp.barrier(j, z0) + 1e-9:
                    mono_ok = False
        for j in range(m):
            if dp.second_ratio(j, z0) > dp.barrier(j, z0) ** 2 + 1e-8:
                second_ok = False
        rows.append(_flag_row(f"det{i}.monotone", mono_ok))
        rows.append(_flag_row(f"det{i}.second_order", second_ok))

    for i in range(count):
        d = int(rng.integers(2, 5))
        a_vec = rng.normal(size=d)
        a = np.outer(a_vec, a_vec)
        b = random_psd(rng, d) + 0.3 * np.eye(d)
        c = random_hermitian_matrix(rng, d).real
        y0 = (abs(float(np.linalg.eigvalsh(c).min())) + 0.5) / float(np.linalg.eigvalsh(b).min())
        x0 = float(rng.uniform(0.0, 2.0))
        p = witness.DeterminantalBivariate(a, b, c)
        delta = 1.0 if i % 2 == 0 else float(rng.uniform(0.2, 0.9))
        try:
            ok = witness.check_bivariate_quadratic_lemma(p, (x0, y0), delta)
            rows.append(_flag_row(f"biv{i}.delta{delta:.3f}", ok))
        except HypothesisNotMet:
            skipped += 1
    report["bivariate_skipped"] = skipped
    return _finish(report)


def verify_schatten(seed: int = 0, count: int = 200, threads=None) -> dict:
    """Moment bounds against exact enumeration: one scan of each Rademacher
    family for all three orders, and one of each variance-at-least-one
    family for its order p and, when p != 2, for the Frobenius row's p = 2."""
    rng = np.random.default_rng(seed)
    report = {"command": "verify", "suite": "schatten", "seed": seed, "count": count, "checks": []}
    rows = report["checks"]
    orders = (2.0, 4.0, 6.0)
    for i in range(count):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        inst = random_hermitian_instance(rng, d, n, rademacher=True)
        values = schatten.disc_p(inst, orders, threads=threads)
        for p, value, bound in zip(orders, values, schatten.rademacher_bound(inst, orders)):
            rows.append(_row(f"rad{i}.p{int(p)}", value, bound + 1e-9))
    for i in range(count):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        inst = random_hermitian_instance(rng, d, n, rademacher=False)
        p = orders[i % 3]
        values = schatten.disc_p(inst, [p] if p == 2.0 else [p, 2.0], threads=threads)
        rows.append(_row(f"gen{i}.frobenius", values[-1], schatten.frobenius_bound(inst) + 1e-9))
        est, _ = schatten.general_bound(inst, p)
        rows.append(_row(f"gen{i}.p{int(p)}.mc", values[0], est))
    return _finish(report)


def verify_lyapunov(seed: int = 0, count: int = 100) -> dict:
    """Subset rounding of fractional frame combinations."""
    rng = np.random.default_rng(seed)
    report = {"command": "verify", "suite": "lyapunov", "seed": seed, "count": count, "checks": []}
    rows = report["checks"]
    for i in range(count):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d, 2 * d + 2))
        frame = frames.harmonic_untf(n, d)
        vectors = [math.sqrt(d / n) * v for v in frame.vectors]
        t = rng.uniform(0.0, 1.0, size=n)
        eps = max(float(np.vdot(v, v).real) for v in vectors)
        _, err = disc.lyapunov_round(vectors, t)
        rows.append(_row(f"i{i}.rounding_error", err, 1.5 * math.sqrt(eps) + NORM_TOL))
    return _finish(report)


def verify_oracles(seed: int = 0, count: int = 100) -> dict:
    """Coefficientwise agreement of the subset-sum and operator routes."""
    rng = np.random.default_rng(seed)
    report = {"command": "verify", "suite": "oracles", "seed": seed, "count": count, "checks": []}
    rows = report["checks"]
    for i in range(count):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        inst = random_rank_one(rng, d, n)
        pa = disc.expected_charpoly(inst)
        pb = disc.expected_charpoly_operator(inst)
        scale = max(float(np.abs(pa).max()), float(np.abs(pb).max()))
        rows.append(_row(f"i{i}.coeff_gap", float(np.abs(pa - pb).max()), 1e-8 * scale))
    return _finish(report)


def _verify_alexandrov_full(seed: int = 0, count: int = 500) -> dict:
    """Mixed discriminants plus the barrier lemma sweeps, one report. ``count``
    sizes the pair sweep and, up to 200, the lemma sweeps."""
    a, b = verify_alexandrov(seed, count), verify_barrier_lemmas(seed, min(count, 200))
    merged = {
        "command": "verify",
        "suite": "alexandrov",
        "seed": seed,
        "checks": a["checks"] + b["checks"],
        "bivariate_skipped": b["bivariate_skipped"],
    }
    return _finish(merged)


# ---------------------------------------------------------------------------
# Non-verify commands
# ---------------------------------------------------------------------------


def run_solve(instance: str, threads: Optional[int] = None) -> dict:
    """``verify thm13``'s rows on one instance, then one row per menu bound.

    Past ``disc.ENUM_CAP`` assignments brute force refuses a rank-one
    instance, and the report records the refusal and its count in place of
    the discrepancy. The greedy's rows that need no discrepancy stay; the
    ``brute_le_greedy`` and ``disc_le_*`` rows are left out. A Hermitian
    instance past the cap is an input error, as it has no other rows.
    """
    inst = model.load_instance(instance)
    report = {"command": "solve", "instance": instance, "checks": []}
    rank_one = isinstance(inst, model.RankOneInstance)
    try:
        brute = disc.disc_bruteforce(inst, threads=threads)
        value, sigma, doc = brute.value, brute.sigma, brute.to_doc()
    except EnumerationTooLarge as exc:
        if not rank_one:
            raise
        value, sigma = None, model.sigma(inst)
        doc = {"refused": {"assignments": exc.required, "cap": exc.cap}, "sigma": sigma}
    bounds = disc.bound_menu(inst, sigma) if rank_one else {}
    report["bruteforce"] = dict(doc, bounds=bounds)
    if rank_one:
        rows, solved = _greedy_check(inst, value, sigma, "")
        if solved:
            assignment, trace = solved
            report["greedy"] = {
                "assignment": {"indices": list(assignment.indices), "values": list(assignment.values)},
                "trace": trace.to_doc(),
            }
        if value is not None:
            rows += [_row(f"disc_le_{name}", value, bound + NORM_TOL) for name, bound in bounds.items()]
        report["checks"] = rows
    return _finish(report)


def run_replay(instance: str) -> dict:
    """``verify thm41``'s rows and the walk's trace on one instance."""
    inst = model.load_instance(instance)
    if not isinstance(inst, model.RankOneInstance):
        raise MatDiscError("replay needs a rank-one instance")
    rows, trace = _walk_check(model.normalize(inst), "")
    return _finish({"command": "replay", "instance": instance, "checks": rows, "trace": trace.to_doc()})


def run_frames_gen(n: int = 3, d: int = 2, out: Optional[str] = None) -> dict:
    inst = frames.harmonic_untf(n, d)
    if out:
        model.save_instance(inst, out)
    analysis = frames.analyze_frame(inst)
    report = {
        "command": "frames gen",
        "n": n,
        "d": d,
        "out": out,
        "frame_bound": analysis.frame_bound,
        "sigma_sq": analysis.sigma_sq,
        "checks": [
            _flag_row("tight", analysis.is_tight),
            _flag_row("unit_norm", analysis.is_unit_norm),
        ],
    }
    return _finish(report)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# Every command: the function that makes its report and a summary. The
# command's flags are the function's parameters (``instance`` is --instance).
# Each command also accepts --out and --format, which place the report unless
# the function reads --out itself (``frames gen`` writes the instance there
# and the report to stdout), and every verify suite accepts --threads, which
# the suites that do not read it check and ignore. A flag that is not given
# is not passed, so each default is the one in the function's signature.
COMMANDS = {
    "solve": (run_solve, "brute force, greedy, and the bound menu on an instance file"),
    "replay": (run_replay, "barrier walk trace for a normalized instance"),
    "frames gen": (run_frames_gen, "harmonic tight frame as an instance file"),
    "verify thm13": (verify_thm13, "three-sigma greedy sweep"),
    "verify interlacing": (verify_interlacing, "greedy branch families: real roots and common interlacing"),
    "verify oracles": (verify_oracles, "expected polynomials: subset-sum and operator routes agree"),
    "verify thm15": (verify_thm15, "tight-frame exact values"),
    "verify prop16": (verify_prop16, "diagonal integer lower bound"),
    "verify thm41": (verify_thm41, "barrier-walk replays"),
    "verify alexandrov": (_verify_alexandrov_full, "mixed discriminants and barrier lemmas"),
    "verify schatten": (verify_schatten, "Schatten moment bounds"),
    "verify lyapunov": (verify_lyapunov, "subset rounding"),
}

_GROUPS = {"verify": "seeded verification suites", "frames": "frame constructions"}


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64), got {value}")
    return value


_FLAGS = {
    "--out": {},
    "--format": {"dest": "fmt", "choices": ("json", "csv")},
    "--instance": {"required": True},
    "--seed": {"type": _seed},
    "--threads": {"type": _positive},
    "--count": {"type": _positive},
    "--n": {"type": _positive},
    "--d": {"type": _positive},
}


def report_bytes(report: dict, fmt: str = "json") -> bytes:
    if fmt == "json":
        return canonical_json(report).encode("utf-8")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "lhs", "rhs", "slack", "pass"])
    for row in report.get("checks", []):
        writer.writerow([row["name"], str(row["lhs"]), str(row["rhs"]), str(row["slack"]), row["pass"]])
    return buf.getvalue().encode("utf-8")


def _write(report: dict, out: Optional[str] = None, fmt: str = "json") -> int:
    """Write the report to ``out`` or stdout; returns the exit code."""
    payload = report_bytes(report, fmt)
    if out:
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0 if report["pass"] else 1


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :data:`COMMANDS`, built once per process.

    Flag values are checked here, before any work starts. Abbreviated flags
    are refused, so each flag has one spelling and a new flag cannot change
    what an abbreviation means.
    """
    parser = argparse.ArgumentParser(prog="matdisc", description="matrix discrepancy laboratory")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command, (run, summary) in COMMANDS.items():
        group, _, name = command.rpartition(" ")
        sub = top
        if group:
            if group not in groups:
                groups[group] = top.add_parser(group, help=_GROUPS[group]).add_subparsers(dest="action", required=True)
            sub = groups[group]
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        extra = ("--threads",) if group == "verify" else ()
        flags = tuple("--" + param.replace("_", "-") for param in inspect.signature(run).parameters)
        for flag in dict.fromkeys(("--out", "--format") + extra + flags):
            sp.add_argument(flag, default=argparse.SUPPRESS, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = " ".join(filter(None, (args.pop("command"), args.pop("action", None))))
    run, _ = COMMANDS[command]
    read = inspect.signature(run).parameters
    output = {key: args[key] for key in ("out", "fmt") if key in args and key not in read}
    try:
        report = run(**{key: args[key] for key in read if key in args})
        return _write(report, **output)
    except (MatDiscError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
