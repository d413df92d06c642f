"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy. The last line of standard
output is the result object; the line before it is the run record (inputs
digest, versions, reference median, raw times, ladder rungs, failures).
Run records and trace spans are also written under ``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One process, one thread: pin the program's worker count and the BLAS pools.
for var in ("SPECDISC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "matdisc" / "__init__.py").is_file():
        sys.stderr.write(f"error: matdisc sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import matdisc.cli  # noqa: F401  (imports every layer)

    import_s = time.perf_counter() - start
    if not Path(matdisc.cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: matdisc imported from {matdisc.cli.__file__}, not {SRC}\n")
        return 2

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    out_dir = HERE / "_out"
    w = workloads.WORKLOADS[args.workload]
    result, record = harness.run(w, args.seed, args.seconds, bool(args.trace), out_dir, import_s=import_s)
    text = json.dumps(record, sort_keys=True)
    (out_dir / f"record-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
