"""Write a fixed set of matdisc reports into a directory, for comparing two
checkouts byte for byte.

    python3 scripts/same_reports.py DIR

Run it from each checkout with its own DIR, then compare the two with
``diff -r DIR_A DIR_B``. The reports:

* the ``verify`` suites thm13, interlacing, thm41, schatten, lyapunov and
  oracles at seeds 0 and 20260810, with their default counts;
* ``verify thm13`` and ``verify interlacing`` with count 1 at the two item
  seeds whose ``leaf_identity_gap`` row fails (ROADMAP direction 1);
* ``solve`` on the ``perfbench`` scale generators' d = 4 files, Rademacher
  n = 14 (generator key (s, 0)) and three-atom n = 9 (key (s, 1)), for five
  seeds s;
* ``solve`` on a d = 3, n = 10 instance whose every law is (-1, 0, 1)
  with probabilities (1/4, 1/2, 1/4), an odd mirror-symmetric support;
* ``frames gen --n 14 --d 12`` and ``solve`` on that frame, whose greedy
  row fails;
* ``replay`` on a d = 4, n = 26 Rademacher instance.

Each report is the file the command writes with ``--out``; instance files
are written next to them and named by relative paths, so the reports do not
depend on DIR. Exit codes go to standard output, not into DIR. The program
is imported from the checkout's ``src`` and BLAS runs on one thread.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from matdisc import cli, model  # noqa: E402
from workloads import (  # noqa: E402
    SCALE_D,
    SCALE_RADEMACHER_N,
    SCALE_THREE_ATOM_N,
    _complex_vectors,
    _rng,
    rademacher_instance,
    three_atom_instance,
)

SUITES = ("thm13", "interlacing", "thm41", "schatten", "lyapunov", "oracles")
SEEDS = (0, 20260810)
FAILING_ITEMS = (4999245159649788188, 5742262874800423356)
SCALE_SEEDS = (3, 11, 17, 23, 101)


def _instances() -> dict:
    """The instance files to write, by name."""
    out = {}
    for s in SCALE_SEEDS:
        out[f"scale-{s}-0"] = rademacher_instance(_rng(s, 0), SCALE_D, SCALE_RADEMACHER_N)
        out[f"scale-{s}-1"] = three_atom_instance(_rng(s, 1), SCALE_D, SCALE_THREE_ATOM_N)
    odd = model.DiscreteRandomVariable((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25))
    out["odd-mirror-d3-n10"] = model.RankOneInstance(3, _complex_vectors(_rng(7, 10), 3, 10), (odd,) * 10)
    out["rademacher-d4-n26"] = rademacher_instance(_rng(5, 26), 4, 26)
    return out


def _commands() -> list:
    """(report name, command line) pairs, in the order they run."""
    runs = [(f"verify-{suite}-s{seed}", ["verify", suite, "--seed", str(seed)]) for suite in SUITES for seed in SEEDS]
    for seed in FAILING_ITEMS:
        for suite in ("thm13", "interlacing"):
            runs.append((f"verify-{suite}-s{seed}", ["verify", suite, "--seed", str(seed), "--count", "1"]))
    for s in SCALE_SEEDS:
        runs += [(f"solve-scale-{s}-{kind}", ["solve", "--instance", f"scale-{s}-{kind}.instance.json"]) for kind in (0, 1)]
    runs.append(("solve-odd-mirror-d3-n10", ["solve", "--instance", "odd-mirror-d3-n10.instance.json"]))
    runs.append(("frames-gen-n14-d12", ["frames", "gen", "--n", "14", "--d", "12", "--out", "frame-n14-d12.instance.json"]))
    runs.append(("solve-frame-n14-d12", ["solve", "--instance", "frame-n14-d12.instance.json"]))
    runs.append(("replay-rademacher-d4-n26", ["replay", "--instance", "rademacher-d4-n26.instance.json"]))
    return runs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write("usage: same_reports.py DIR\n")
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for name, inst in _instances().items():
        model.save_instance(inst, f"{name}.instance.json")
    for name, command in _commands():
        if command[:2] == ["frames", "gen"]:
            # frames gen writes the instance to --out and its report to stdout
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(command)
            Path(f"{name}.json").write_text(buf.getvalue(), encoding="utf-8")
        else:
            code = cli.main(command + ["--out", f"{name}.json"])
        print(f"exit {code}: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
