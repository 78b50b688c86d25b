"""Launcher for the solver benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-m40 --seed 1 --seconds 30 --trace 0

It pins the BLAS thread pools to one thread before numpy is imported, puts
the checkout's ``src`` first on the import path, and refuses to run when the
solver package is not found there (so it never measures an installed copy).
The last line of standard output is the JSON result; see ``bench.py``.

Set-up time varies more between processes than within one, so an untraced
run also times the import and set-up in FRESH_SETUPS fresh processes of this
script (``--setup-only``), one after another, and reports the median.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
FRESH_SETUPS = 4


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:      # read once, when numpy loads BLAS
        os.environ[var] = "1"

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import irs_swipt
    except ImportError as exc:
        print(f"cannot import the solver from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if Path(irs_swipt.__file__).resolve().parent.parent != src:
        print(f"irs_swipt resolved to {irs_swipt.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import bench    # the script's own directory is on sys.path

    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(import_s + bench.prepare(bench.WORKLOADS[args.workload],
                                       args.seed)[1])
        return 0
    fresh = [] if args.trace else [fresh_setup_s(args)
                                   for _ in range(FRESH_SETUPS)]
    result = bench.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), import_s=import_s, root=ROOT,
                       fresh_setups_s=tuple(fresh))
    bench.print_result(result)
    return 0


def fresh_setup_s(args: argparse.Namespace) -> float:
    """Import plus set-up time, measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
