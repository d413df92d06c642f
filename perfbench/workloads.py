"""The four benchmark workloads: item pools, item runners and ladders.

Every input derives from the workload seed. Item pools for ``sweep`` and
``walk`` are stratified over the (d, n) cells of the criterion 01/03/04
family: each block of items holds one instance of every cell, so every run
sees the same mix of sizes and only vectors and laws vary with the seed. The
closed loop ends on a block boundary, which keeps heavy-tailed cells from
skewing one run against another.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from matdisc import cli, disc, model, rpoly, schatten, witness
from matdisc.errors import EnumerationTooLarge

# Criterion 01/03/04 family: d in 2..5, n in 2..8 (cli.sweep_rank_one).
SWEEP_CELLS = tuple((d, n) for d in range(2, 6) for n in range(2, 9))

# Largest ladder rung; the program's own size caps usually stop it sooner.
LADDER_CEILING = 40


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``make_items(seed, blocks, work_dir)`` returns ``(items, instances)``:
    the items the loop runs and the instances they solve, whose canonical
    JSON is digested. ``run_item(item, work_dir)`` returns whether the
    item's outputs are correct. ``run_rung(seed, n)`` does the same for one
    ladder rung. Budgets are in reference units.
    """

    name: str
    block: int
    make_items: Callable
    run_item: Callable
    run_rung: Callable
    pool_blocks: int
    trace_blocks: int
    ladder_floor: int
    ladder_budget_ref: float


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _item_seeds(seed: int, count: int) -> list:
    return [int(s) for s in _rng(seed).integers(0, 2**63, size=count)]


def _sweep_items(seed: int, blocks: int, work_dir: Path) -> tuple:
    """Item seeds for ``blocks`` whole blocks of SWEEP_CELLS, with their
    instances; block b holds the b-th seed drawn for each cell."""
    rng = _rng(seed)
    found: dict = {cell: [] for cell in SWEEP_CELLS}
    while min(len(v) for v in found.values()) < blocks:
        s = int(rng.integers(0, 2**63))
        inst = cli.sweep_rank_one(s, 1)[0]
        bucket = found[(inst.dim, inst.n)]
        if len(bucket) < blocks:
            bucket.append((s, inst))
    pairs = [found[cell][b] for b in range(blocks) for cell in SWEEP_CELLS]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def inputs_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(model.dumps_instance(inst).encode("utf-8"))
    return h.hexdigest()


def _complex_vectors(rng, d: int, n: int) -> tuple:
    return tuple((rng.normal(size=d) + 1j * rng.normal(size=d)) / math.sqrt(2.0) for _ in range(n))


def rademacher_instance(rng, d: int, n: int) -> model.RankOneInstance:
    rvs = tuple(model.DiscreteRandomVariable.rademacher() for _ in range(n))
    return model.RankOneInstance(d, _complex_vectors(rng, d, n), rvs)


def three_atom_instance(rng, d: int, n: int) -> model.RankOneInstance:
    vectors = _complex_vectors(rng, d, n)
    return model.RankOneInstance(d, vectors, tuple(cli.random_rv(rng, 3) for _ in range(n)))


# ---------------------------------------------------------------------------
# sweep: criterion 01 + 03 items, one seed each
# ---------------------------------------------------------------------------


def _sweep_item(s: int, work_dir: Path) -> bool:
    a = cli.verify_thm13(seed=s, count=1)
    b = cli.verify_interlacing(seed=s, count=1)
    cli.report_bytes(a)
    cli.report_bytes(b)
    return a["pass"] and b["pass"]


def _sweep_rung(seed: int, n: int) -> bool:
    """A sweep item grown in n: d = 3, three-atom laws."""
    inst = three_atom_instance(_rng(seed, n), 3, n)
    brute = disc.disc_bruteforce(inst)
    _, trace = disc.greedy_interlacing_solve(inst)
    branches = [[np.array(c) for c in lv.branch_coeffs] for lv in trace.levels]
    rooted = all(rpoly.is_real_rooted(c, tol=1e-6) for fam in branches for c in fam)
    common = all(rpoly.has_common_interlacing(fam, tol=1e-6) for fam in branches)
    return (
        brute.value <= trace.final_value + 1e-12
        and trace.final_value <= 3.0 * model.sigma(inst) + 1e-9
        and rooted
        and common
    )


# ---------------------------------------------------------------------------
# walk: criterion 04 items, one seed each
# ---------------------------------------------------------------------------


def _walk_item(s: int, work_dir: Path) -> bool:
    report = cli.verify_thm41(seed=s, count=1)
    cli.report_bytes(report)
    return report["pass"]


def _walk_rung(seed: int, n: int) -> bool:
    inst = model.normalize(rademacher_instance(_rng(seed, n), 4, n))
    return witness.replay_barrier_walk(inst).passed


# ---------------------------------------------------------------------------
# scale: `matdisc solve` on instance files, alternating two families
# ---------------------------------------------------------------------------

SCALE_D = 4
SCALE_RADEMACHER_N = 14
SCALE_THREE_ATOM_N = 9


def _scale_items(seed: int, blocks: int, work_dir: Path):
    work_dir.mkdir(parents=True, exist_ok=True)
    items, instances = [], []
    for b, s in enumerate(_item_seeds(seed, blocks)):
        pair = (
            rademacher_instance(_rng(s, 0), SCALE_D, SCALE_RADEMACHER_N),
            three_atom_instance(_rng(s, 1), SCALE_D, SCALE_THREE_ATOM_N),
        )
        for kind, inst in enumerate(pair):
            path = work_dir / f"scale-{b:04d}-{kind}.json"
            model.save_instance(inst, path)
            items.append(str(path))
            instances.append(inst)
    return items, instances


def _scale_item(path: str, work_dir: Path) -> bool:
    out = work_dir / "solve-out.json"
    if cli.main(["solve", "--instance", path, "--out", str(out)]) != 0:
        return False
    report = json.loads(out.read_text(encoding="utf-8"))
    sigma = report["bruteforce"]["sigma"]
    return report["pass"] and report["greedy"]["trace"]["final_value"] <= 3.0 * sigma + 1e-9


def _scale_rung(seed: int, n: int) -> bool:
    inst = rademacher_instance(_rng(seed, n), SCALE_D, n)
    _, trace = disc.greedy_interlacing_solve(inst)
    return trace.final_value <= 3.0 * model.sigma(inst) + 1e-9


# ---------------------------------------------------------------------------
# schatten: criterion 09 items, one seed each
# ---------------------------------------------------------------------------


def _schatten_instances(s: int) -> list:
    """The two instances ``cli.verify_schatten(seed=s, count=1)`` draws."""
    rng = np.random.default_rng(s)
    out = []
    for rademacher in (True, False):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        out.append(cli.random_hermitian_instance(rng, d, n, rademacher=rademacher))
    return out


def _schatten_items(seed: int, blocks: int, work_dir: Path):
    seeds = _item_seeds(seed, blocks)
    return seeds, [inst for s in seeds for inst in _schatten_instances(s)]


def _schatten_item(s: int, work_dir: Path) -> bool:
    report = cli.verify_schatten(seed=s, count=1)
    cli.report_bytes(report)
    return report["pass"]


def _schatten_rung(seed: int, n: int) -> bool:
    """Moment bounds for a d = 3 Hermitian family of two-point laws."""
    inst = cli.random_hermitian_instance(_rng(seed, n), 3, n, rademacher=False)
    rep = schatten.khintchine_bounds(inst, 4.0)
    est, se = rep.bounds["general_khintchine"]
    return rep.disc_p <= est + 3.0 * se


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", len(SWEEP_CELLS), _sweep_items, _sweep_item, _sweep_rung,
                 pool_blocks=20, trace_blocks=4, ladder_floor=9, ladder_budget_ref=580.0),
        Workload("walk", len(SWEEP_CELLS), _sweep_items, _walk_item, _walk_rung,
                 pool_blocks=20, trace_blocks=3, ladder_floor=6, ladder_budget_ref=500.0),
        Workload("scale", 2, _scale_items, _scale_item, _scale_rung,
                 pool_blocks=64, trace_blocks=16, ladder_floor=14, ladder_budget_ref=410.0),
        Workload("schatten", 1, _schatten_items, _schatten_item, _schatten_rung,
                 pool_blocks=256, trace_blocks=112, ladder_floor=16, ladder_budget_ref=520.0),
    )
}

# The program's refusal to enumerate past its cap ends a ladder like an
# exhausted budget: the rung is out of reach, not wrong.
LADDER_OUT_OF_REACH = (EnumerationTooLarge,)


def ladder_rungs(w: Workload) -> range:
    return range(w.ladder_floor, LADDER_CEILING + 1)
