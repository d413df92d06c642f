"""Closed-loop runner, reference unit, ladders and metrics.

One process, one thread, one caller: the next item starts only when the
previous one has finished. Each item is timed in units of a fixed reference
kernel (``ref``) that runs right before and right after it, and is divided
by the lower of the two timings, so drift of the host cancels.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import layertrace
import workloads

# Captured before any trace wraps the kernel, so the reference never counts.
_EIGVALSH = np.linalg.eigvalsh

REF_MATRICES = 2000
REF_LOOP = 3000
REF_SEED = 0x5EED

SETUP_REPS = 5
# Set-up time is reported in seconds on a host where one ref takes 3 ms,
# the reference's typical time on the 2-core x86 host the benchmark was
# written on: raw set-up seconds there moved by 30-40% with the host's load.
REF_NOMINAL_S = 0.003
MAX_FAILURES_RECORDED = 5


class RefUnit:
    """Batched eigvalsh on a seeded stack of real symmetric 4x4 matrices
    plus a pure-Python loop; about 3-5 ms on a 2-core x86 host."""

    def __init__(self):
        a = np.random.default_rng(REF_SEED).normal(size=(REF_MATRICES, 4, 4))
        self.stack = (a + a.transpose(0, 2, 1)) / 2.0
        self.samples: list = []

    def __call__(self) -> float:
        start = time.perf_counter()
        _EIGVALSH(self.stack)
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


class Outcomes:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run(self, label: str, fn, *args, allowed=()) -> bool:
        """Call ``fn``; an exception or a False result is a failure that the
        run records and survives. Exceptions in ``allowed`` propagate."""
        self.attempted += 1
        try:
            ok = bool(fn(*args))
            reason = "outputs failed their check"
        except allowed:
            raise
        except Exception:  # noqa: BLE001 - the loop must survive any item
            ok = False
            reason = traceback.format_exc(limit=3)
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_RECORDED:
                self.failures.append({"op": label, "reason": reason})
        return ok


def set_up(w: workloads.Workload, seed: int, work_dir: Path, reps: int, ref: RefUnit):
    """Generate and write the inputs and run one warm-up item, ``reps``
    times, with a ref before and after each; returns the items, the inputs
    digest, each rep's seconds and each rep in ref units."""
    times, in_ref = [], []
    before = ref()
    for _ in range(reps):
        start = time.perf_counter()
        items, instances = w.make_items(seed, w.pool_blocks, work_dir)
        digest = workloads.inputs_digest(instances)
        Outcomes().run("warm-up", w.run_item, items[0], work_dir)
        times.append(time.perf_counter() - start)
        after = ref()
        in_ref.append(times[-1] / min(before, after))
        before = after
    return items, digest, times, in_ref


def closed_loop(w, items, work_dir, seconds, ref, outcomes):
    """Run whole blocks of items until ``seconds`` have passed; returns
    (raw seconds, seconds in ref units, passed) per item."""
    samples = []
    deadline = time.perf_counter() + seconds
    before = ref()
    pos = 0
    while not samples or time.perf_counter() < deadline:
        for _ in range(w.block):
            item = items[pos % len(items)]
            pos += 1
            start = time.perf_counter()
            ok = outcomes.run(f"item {item}", w.run_item, item, work_dir)
            elapsed = time.perf_counter() - start
            after = ref()
            samples.append((elapsed, elapsed / min(before, after), ok))
            before = after
    return samples


class _RungTimeout(BaseException):
    """Raised by the interval timer when a rung outruns its budget."""


def _on_timer(signum, frame):
    raise _RungTimeout()


def ladder(w, seed, ref, outcomes):
    """Climb the rungs until one is over budget, fails, raises, or the
    ceiling is reached. Returns (n_max, per-rung records)."""
    budget = w.ladder_budget_ref
    rungs = workloads.ladder_rungs(w)
    n_max = rungs[0] - 1
    records = []
    previous = signal.signal(signal.SIGALRM, _on_timer)
    try:
        for n in rungs:
            before = ref()
            start = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, budget * before)
                    ok = outcomes.run(f"rung n={n}", w.run_rung, seed, n, allowed=workloads.LADDER_OUT_OF_REACH)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                status = "passed" if ok else "failed"
            except workloads.LADDER_OUT_OF_REACH:
                status = "out_of_reach"
            except _RungTimeout:
                status = "over_budget"
            elapsed = time.perf_counter() - start
            in_ref = elapsed / min(before, ref())
            if status == "passed" and in_ref > budget:
                status = "over_budget"
            records.append({"n": n, "status": status, "seconds": elapsed, "ref": in_ref})
            if status != "passed":
                break
            n_max = n
    finally:
        signal.signal(signal.SIGALRM, previous)
    return n_max, records


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(w, seed, seconds, trace, out_dir, import_s=0.0, setup_reps=SETUP_REPS):
    """One run of workload ``w``. Returns (result, record): the result
    holds ``correct``, ``attempted``, ``failed`` and ``metrics``; the record
    holds what the run saw but does not gate on."""
    out_dir = Path(out_dir)
    work_dir = out_dir / f"work-{w.name}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = RefUnit()
    outcomes = Outcomes()
    items, digest, setup_times, setup_ref = set_up(w, seed, work_dir, setup_reps, ref)
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_sha256": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "import_s": import_s,
        "setup_rep_s": setup_times,
    }
    if trace:
        metrics = _traced(w, items[: w.block * w.trace_blocks], work_dir, outcomes, out_dir, seed)
    else:
        samples = closed_loop(w, items, work_dir, seconds, ref, outcomes)
        n_max, rungs = ladder(w, seed, ref, outcomes)
        # Latencies of passed items; of all items if none passed, which
        # the result already marks incorrect.
        timed = [x for x in samples if x[2]] or samples
        raw = [x[0] for x in timed]
        in_ref = [x[1] for x in timed]
        metrics = {
            "item_p50_ref": _metric(statistics.median(in_ref), "ref"),
            "item_p90_ref": _metric(_p90(in_ref), "ref"),
            "items_per_kref": _metric(1e3 * sum(ok for _, _, ok in samples) / sum(r for _, r, _ in samples), "1/kref"),
            "n_max": _metric(n_max, "n"),
            "setup_s": _metric((import_s / min(ref.samples[:2]) + statistics.median(setup_ref)) * REF_NOMINAL_S, "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
        record.update(
            items=len(samples),
            item_p50_ms=_median_ms(raw),
            item_p90_ms=1e3 * _p90(raw),
            ladder=rungs,
        )
    record.update(
        ref_median_ms=_median_ms(ref.samples),
        attempted=outcomes.attempted,
        failed=outcomes.failed,
        failed_ratio=outcomes.failed / outcomes.attempted,
        failures=outcomes.failures,
    )
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    return result, record


def _traced(w, items, work_dir, outcomes, out_dir, seed) -> dict:
    """Run each item untraced, then traced, alternating so that host drift
    hits both sides alike; counts depend only on the items."""
    tr = layertrace.LayerTrace()
    untraced = traced = 0.0
    for i, item in enumerate(items):
        start = time.perf_counter()
        Outcomes().run("untraced pass", w.run_item, item, work_dir)
        untraced += time.perf_counter() - start
        tr.item = i
        with tr:
            start = time.perf_counter()
            outcomes.run(f"item {item}", w.run_item, item, work_dir)
            traced += time.perf_counter() - start
    tr.write(out_dir / f"spans-{w.name}-s{seed}.jsonl.gz")
    return tr.metrics(traced / untraced)
