"""Command-line front end.

    irs-swipt run <spec-file>             sweep experiment from a JSON spec
    irs-swipt check-feasibility <file>    harvest feasibility of one scenario
    irs-swipt solve <file>                full joint solve of one scenario

Scenario files carry {"config": {...}, "geometry": {...}, "seed": n}; spec
files mirror the ExperimentSpec fields.  Exit status is 0 on success, 1
when a solve fails numerically (SolverError), and 2 on a malformed spec or
scenario.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import SolverError
from .feasibility import feasibility_check
from .harness import (emit_results, load_experiment_spec, run_experiment,
                      solve_with_init, summarize)
from .scenario import _check_int, generate_scenario, load_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irs-swipt",
        description="IRS-assisted SWIPT MIMO downlink optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep experiment from a spec file")
    run.add_argument("spec", help="JSON experiment spec")
    run.add_argument("--seed", type=int, default=None, help="override seed_base")
    run.add_argument("--trials", type=int, default=None, help="override trials")
    run.add_argument("--out", default=None, help="output file (default stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--threads", type=int, default=1)

    for name, help_text in (
            ("check-feasibility", "check the harvest feasibility of a scenario"),
            ("solve", "solve one scenario end to end")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("scenario", help="JSON scenario file")
        cmd.add_argument("--seed", type=int, default=None, help="override seed")
        cmd.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def _cmd_run(args) -> int:
    spec = load_experiment_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed_base=args.seed)
    if args.trials is not None:
        spec = dataclasses.replace(spec, trials=args.trials)
    results = run_experiment(spec, threads=args.threads)
    if args.out:
        emit_results(results, format=args.format, path=args.out, spec=spec)
        for key, stats in summarize(results).items():
            value, method = key
            print(f"{spec.experiment} value={value:g} method={method}: "
                  f"WSR {stats['wsr_mean']:.4f} bit/s/Hz, "
                  f"Q {stats['q_mean']:.3e} W, "
                  f"feasible {stats['feasible_frac']:.0%}")
    else:
        emit_results(results, format=args.format, path=sys.stdout, spec=spec)
    return 0


def _evaluate(command: str, channels, config) -> tuple[dict, str]:
    """A scenario command's JSON fields and its one-line summary."""
    if command == "solve":
        report = solve_with_init(channels, config)
        return report.to_dict(), (
            f"feasible={report.feasible} iterations={report.iterations_used} "
            f"wsr={report.wsr_bits:.4f} bit/s/Hz ({report.stop_reason})")
    feasible, _, _, q = feasibility_check(channels, config)
    qbar = config.eh_threshold
    return ({"feasible": bool(feasible), "q_achieved_watts": q,
             "eh_threshold_watts": qbar},
            f"feasible={bool(feasible)} q={q:.4e} W threshold={qbar:.4e} W")


def _cmd_scenario(args) -> int:
    """check-feasibility and solve: evaluate one scenario; with --out write
    its JSON there and print a one-line summary, otherwise print the JSON."""
    config, geometry, seed = load_scenario(args.scenario)
    if args.seed is not None:
        _check_int("seed", args.seed, 0)
        seed = args.seed
    channels = generate_scenario(config, geometry, seed)
    fields, summary = _evaluate(args.command, channels, config)
    text = json.dumps({"seed": seed, **fields}, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(summary if args.out else text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _cmd_run if args.command == "run" else _cmd_scenario
    try:
        return handler(args)
    except (ValueError, OSError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SolverError) else 2


if __name__ == "__main__":
    sys.exit(main())
