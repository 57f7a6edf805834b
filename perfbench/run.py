"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trials-exact --seed 1 --seconds 30 --trace 0

The report goes to standard output: one line per metric with its unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit code is
0 when every run passed its correctness check, 1 when one failed, and
2 when the program's sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The seed used when none is given.
DEFAULT_SEED = 1
#: Kept out of benchmark development: later changes confirm a claim on it.
HELD_OUT_SEED = 7919

WORKLOADS = ("broadcast-1e5-vector", "trials-exact", "trials-observed")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed; every op's inputs derive from it (default {DEFAULT_SEED}, "
        f"held-out {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="timed phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # set up, print "ready" and exit: one setup_s sample
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    from benchlib.program import load_program

    load_program(SRC)
    from benchlib.measure import prepare, run_benchmark

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prepare(args.workload, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        record, lines = run_benchmark(
            args.workload,
            args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
            run_py=Path(__file__).resolve(),
            root=ROOT,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
