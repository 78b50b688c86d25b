"""Monte-Carlo experiment runner: sweeps, baselines, and result files.

An experiment sweeps one scenario parameter over a list of values, runs a
number of independent trials per value for each requested method, and
collects one TrialResult per (value, trial, method).  The methods are the
joint solve ("bcd", from the feasibility check's point) and its
baselines, the same solve on a surface-free (M = 0) channel set: "no-irs"
keeps the direct links, "fixed-phase" folds in the feasibility check's
phases; the harvest sweep runs the feasibility alternation instead.
Trials infeasible for the harvest threshold score a weighted sum rate of
zero.  Per-trial seeds are derived from a stable hash so results
reproduce across runs, platforms, and worker counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TextIO

from .bcd import BCD_MAX_ITER, SolveReport, bcd_solve
from .errors import SolverError
from .feasibility import feasibility_check
from .metrics import surface_free
from .scenario import (ChannelSet, Geometry, SystemConfig, _check_int,
                       _check_list, _read_object, generate_scenario)

EXPERIMENTS = (
    "max-harvest-vs-distance",
    "wsr-vs-M",
    "wsr-vs-Qbar",
    "wsr-vs-alphaIRS",
    "wsr-vs-xER",
    "wsr-vs-xIR",
)
METHODS = ("bcd", "fixed-phase", "no-irs")
HARVEST_ONLY = "max-harvest-vs-distance"
CHUNKS_PER_WORKER = 32      # pool chunks per worker process in run_experiment


@dataclass
class ExperimentSpec:
    """One sweep definition: what to vary, how often, and with which methods."""

    experiment: str
    sweep: list[float]
    trials: int = 20
    seed_base: int = 0
    methods: tuple[str, ...] = ("bcd", "fixed-phase", "no-irs")
    config: SystemConfig = field(default_factory=SystemConfig)
    geometry: Geometry = field(default_factory=Geometry)
    record_timings: bool = True

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"expected one of {EXPERIMENTS}")
        self.sweep = [float(v) for v in _check_list("sweep", self.sweep)]
        if not self.sweep:
            raise ValueError("sweep must be non-empty")
        _check_int("trials", self.trials, 1)
        _check_int("seed_base", self.seed_base)
        if self.experiment == "wsr-vs-M" and not all(
                float(v).is_integer() for v in self.sweep):
            raise ValueError(f"wsr-vs-M sweeps whole element counts, got {self.sweep}")
        for value in self.sweep:    # a bad value fails here, before any cell
            apply_sweep(self.experiment, self.config, self.geometry, value)
        self.methods = _check_list("methods", self.methods)
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; expected subset of {METHODS}")
        if self.experiment == HARVEST_ONLY and "fixed-phase" in self.methods:
            raise ValueError("fixed-phase does not apply to the harvest sweep")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = dict(d)
        if "config" in d:
            d["config"] = SystemConfig(**d["config"])
        if "geometry" in d:
            d["geometry"] = Geometry(**d["geometry"])
        return cls(**d)

    def to_dict(self) -> dict:
        from dataclasses import asdict
        d = asdict(self)
        d["methods"] = list(self.methods)
        return d


@dataclass
class TrialResult:
    """One method run at one sweep point."""

    experiment: str
    sweep_value: float
    method: str
    seed: int
    feasible: bool
    wsr_bits: float         # zero when the trial is infeasible
    q_watts: float
    iterations: int
    wall_time_s: float

    CSV_FIELDS = ("experiment", "sweep_value", "method", "seed", "feasible",
                  "wsr_bits", "q_watts", "iterations", "wall_time_s")

    def to_row(self) -> list[str]:
        return [self.experiment, f"{self.sweep_value:.17g}", self.method,
                str(self.seed), str(bool(self.feasible)).lower(),
                f"{self.wsr_bits:.17g}", f"{self.q_watts:.17g}",
                str(self.iterations), f"{self.wall_time_s:.17g}"]

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.CSV_FIELDS}


def derive_seed(seed_base: int, sweep_index: int, trial_index: int,
                method: str) -> int:
    """Stable per-trial seed from a SHA-256 of the trial coordinates."""
    key = f"{seed_base}|{sweep_index}|{trial_index}|{method}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def apply_sweep(experiment: str, config: SystemConfig, geometry: Geometry,
                value: float) -> tuple[SystemConfig, Geometry]:
    """Bind one sweep value to the scenario parameters it controls."""
    if experiment in ("max-harvest-vs-distance", "wsr-vs-xER"):
        return config, geometry.with_er_center(float(value))
    if experiment == "wsr-vs-M":
        return replace(config, n_elements=int(value)), geometry
    if experiment == "wsr-vs-Qbar":
        return replace(config, eh_threshold=float(value)), geometry
    if experiment == "wsr-vs-alphaIRS":
        return config, replace(geometry, alpha_bs_irs=float(value),
                               alpha_irs_er=float(value),
                               alpha_irs_ir=float(value))
    if experiment == "wsr-vs-xIR":
        return config, replace(geometry, ir_center=float(value))
    raise ValueError(f"unknown experiment {experiment!r}")


def solve_with_init(channels: ChannelSet, config: SystemConfig,
                    n_max: int = BCD_MAX_ITER) -> SolveReport:
    """Feasibility check, then bcd_solve from its point; timed together."""
    t0 = time.perf_counter()
    feasible, f0, phi0, _ = feasibility_check(channels, config)
    report = (bcd_solve(channels, config, (f0, phi0), n_max=n_max)
              if feasible else SolveReport([], f0, phi0, "infeasible"))
    report.wall_time_s = time.perf_counter() - t0
    return report


def run_trial(spec: ExperimentSpec, sweep_index: int, trial_index: int,
              method: str) -> TrialResult:
    """Run one (sweep value, trial, method) cell of the experiment grid."""
    value = spec.sweep[sweep_index]
    config, geometry = apply_sweep(spec.experiment, spec.config,
                                   spec.geometry, value)
    seed = derive_seed(spec.seed_base, sweep_index, trial_index, method)
    t0 = time.perf_counter()
    channels = generate_scenario(config, geometry, seed)
    if method == "no-irs":
        channels, config = surface_free(channels, config)

    if spec.experiment == HARVEST_ONLY:
        # the best harvest the alternation finds: an unreachable threshold
        # runs it to its stall point
        unreachable = replace(config, eh_threshold=float("inf"))
        _, _, _, q = feasibility_check(channels, unreachable)
        feasible, wsr, iters = q >= config.eh_threshold, 0.0, 0
    else:
        feasible, f0, phi0, _ = feasibility_check(channels, config)
        if method == "fixed-phase":
            channels, config = surface_free(channels, config, phi0)
            phi0 = phi0[:0]
        wsr, iters, q = 0.0, 0, 0.0
        if feasible:
            try:
                report = bcd_solve(channels, config, (f0, phi0))
                wsr, iters = report.wsr_bits, report.iterations_used
                q = report.sweeps[-1].harvest
            except SolverError:
                feasible = False

    wall = time.perf_counter() - t0 if spec.record_timings else 0.0
    return TrialResult(experiment=spec.experiment, sweep_value=float(value),
                       method=method, seed=seed, feasible=feasible,
                       wsr_bits=wsr, q_watts=q, iterations=iters,
                       wall_time_s=wall)


def _run_cells(args):
    spec, cells = args
    return [run_trial(spec, *cell) for cell in cells]


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> list[TrialResult]:
    """Run the full grid; partial failures never abort the sweep.

    threads must be an integer >= 1.  With threads > 1 the cells go to that
    many worker processes, at most os.cpu_count(), in consecutive chunks,
    about CHUNKS_PER_WORKER per worker: the spec is pickled once per chunk,
    and the last chunk to finish leaves the other workers idle for only a
    small share of the run.  Every cell's result depends only on its own
    seed, so it is the same at any worker count.  Results come back ordered
    by (sweep index, trial, method) regardless of worker scheduling.
    """
    _check_int("threads", threads, 1)
    threads = min(threads, os.cpu_count() or 1)
    cells = [(si, ti, method)
             for si in range(len(spec.sweep))
             for ti in range(spec.trials)
             for method in spec.methods]
    if threads == 1:
        results = [run_trial(spec, *cell) for cell in cells]
    else:
        size = -(-len(cells) // (threads * CHUNKS_PER_WORKER))
        chunks = [(spec, cells[i:i + size])
                  for i in range(0, len(cells), size)]
        workers = min(threads, len(chunks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_cells, chunks))
        results = [r for part in parts for r in part]
    by_cell = dict(zip(cells, results))
    return [by_cell[cell] for cell in sorted(by_cell)]


def summarize(results: list[TrialResult]) -> dict[tuple[float, str], dict]:
    """Mean/std of WSR and harvest per (sweep value, method)."""
    import numpy as np
    groups: dict[tuple[float, str], list[TrialResult]] = {}
    for r in results:
        groups.setdefault((r.sweep_value, r.method), []).append(r)
    out = {}
    for key, rs in sorted(groups.items()):
        wsr = np.array([r.wsr_bits for r in rs])
        q = np.array([r.q_watts for r in rs])
        out[key] = {
            "trials": len(rs),
            "wsr_mean": float(wsr.mean()),
            "wsr_std": float(wsr.std()),
            "q_mean": float(q.mean()),
            "q_std": float(q.std()),
            "feasible_frac": float(np.mean([r.feasible for r in rs])),
        }
    return out


def emit_results(results: list[TrialResult], format: str = "csv",
                 path: str | Path | TextIO = "results.csv",
                 spec: ExperimentSpec | None = None) -> Path | TextIO:
    """Write trial records to a CSV table or a JSON document.

    CSV holds one row per trial with full double precision; JSON mirrors the
    records and embeds the spec for provenance.  path may also be an open
    text stream, which is written to and left open.
    """
    if not results:
        raise ValueError("no results to emit")
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}; expected csv or json")
    if hasattr(path, "write"):
        _write_results(results, format, path, spec)
        return path
    path = Path(path)
    with open(path, "w", newline="") as fh:
        _write_results(results, format, fh, spec)
    return path


def _write_results(results: list[TrialResult], format: str, fh: TextIO,
                   spec: ExperimentSpec | None) -> None:
    if format == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TrialResult.CSV_FIELDS)
        for r in results:
            writer.writerow(r.to_row())
    else:
        doc = {"records": [r.to_dict() for r in results]}
        if spec is not None:
            doc["spec"] = spec.to_dict()
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read an experiment spec file (a JSON object, keys matching
    ExperimentSpec); any other top level, a missing or unknown key or a
    mistyped value raises ValueError."""
    return _read_object(path, "experiment spec", ExperimentSpec.from_dict)
