"""Closed-loop benchmark of the irs_swipt solver.

One client in one process calls the library and issues the next call when
the previous one returns.  Every operation's output is checked with public
functions only, and a failed check or a ``SolverError`` counts as a failed
operation without stopping the run.

Workloads (instance seeds derive from the workload seed; the solver sees
only the generated channels):

    solve-m40    solve_with_init at M=40, er_center=4, ir_center=100.  The
                 precoder dual dominates; cap-hitting solves form the tail.
    solve-m200   the same at M=200.  The phase block (its QCQP assembly)
                 dominates and the precoder is a small share.
    harvest-t2   run_experiment on max-harvest-vs-distance, M=40, methods
                 bcd and no-irs, 2 worker processes.  feasibility_check and
                 the process pool; the BCD solver does not run.

A solve workload solves its whole instance set once, which fixes the quality
figures, then keeps cycling through it until ``seconds`` have passed; the
harvest workload repeats its whole experiment grid the same way.  One
operation is a solve, or one experiment cell (a TrialResult).  On harvest-t2
the latency figures are per trial, the summed wall time of its cells (one
per method): a no-irs cell is an order of magnitude faster than a bcd cell,
so a per-cell median would sit in the gap between the two.

End-to-end metrics are emitted on every workload, so their names are
workload-neutral: ``op_p50_ms``/``op_p90_ms`` are per-operation latencies,
``trials_per_s`` is operations per second of time spent in library calls,
``objective_mean`` is the mean of what an operation maximizes (the final WSR
in bit/s/Hz of a feasible solve; the best harvest in W of a harvest cell)
and ``feasible_frac`` the share of operations that found a feasible point.
The detail line printed before the result adds wsr_mean_bits, q_mean_w,
cap_hit_frac, error_frac, the sample counts and the environment.

With tracing off the result carries the end-to-end metrics.  With tracing on
every operation runs twice, untraced and then traced, and the result carries
per-layer figures per traced operation plus the tracing overhead (traced
wall minus untraced wall).  harvest-t2 is traced at one worker, because the
worker processes do not return the wrappers' counters; its pool overhead is
measured on one untraced pass at its own worker count first.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from irs_swipt.errors import SolverError
from irs_swipt.harness import ExperimentSpec, run_experiment, solve_with_init
from irs_swipt.metrics import (effective_channels, harvested_power_quadratic,
                               weighted_sum_rate)
from irs_swipt.scenario import Geometry, SystemConfig, generate_scenario

from tracing import Tracer

SWEEP_CAP = 50          # solve_with_init's default n_max
CONSTRAINT_RTOL = 1e-6  # power and harvest tolerance, as bcd_solve checks them
UNIT_MODULUS_TOL = 1e-9
WSR_TOL = 1e-9
SOLVE_GEOMETRY = Geometry(er_center=4.0, ir_center=100.0)

# name -> unit; the order is the order of the result
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "trials_per_s": "1/s",
    "objective_mean": "obj",
    "feasible_frac": "frac",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "precoder.solve_s": "s/op",
    "precoder.dual_s": "s/op",
    "precoder.dual_calls": "1/op",
    "precoder.probes": "1/op",
    "precoder.probes_per_dual": "1/call",
    "precoder.sca_iters": "1/call",
    "phase.solve_s": "s/op",
    "phase.assemble_s": "s/op",
    "phase.price_s": "s/op",
    "phase.price_calls": "1/op",
    "phase.mm_steps": "1/call",
    "bcd.sweeps": "1/op",
    "bcd.cap_hits": "1/op",
    "bcd.uw_s": "s/op",
    "bcd.track_s": "s/op",
    "bcd.self_s": "s/op",
    "bcd.block_failures": "1/op",
    "metrics.eff_channels_per_sweep": "1/sweep",
    "linalg.hermitian_solve_calls": "1/op",
    "linalg.hermitian_solve_s": "s/op",
    "feasibility.check_s": "s/op",
    "feasibility.alt_steps": "1/op",
    "feasibility.eh_qcqp_s": "s/op",
    "feasibility.spread_s": "s/op",
    "scenario.generate_s": "s/op",
    "scenario.calls": "1/op",
    "harness.overhead_frac": "frac",
    "trace.overhead_s": "s/op",
    "trace.ops": "count",
}

# Functions wrapped in the traced run, under the module the caller looks
# them up in (see tracing.py).
TRACE_TARGETS = (
    "harness.generate_scenario",
    "harness.feasibility_check",
    "harness.spread_streams",
    "harness.bcd_solve",
    "feasibility.assemble_eh_qcqp",
    "feasibility.max_eh_phase_step",
    "bcd._check_init",
    "bcd.sca_precoder_solve",
    "bcd.phase_solve",
    "bcd.update_decoders",
    "bcd.update_weights",
    "bcd.weighted_sum_rate",
    "bcd.effective_channels",
    "bcd.harvested_power_quadratic",
    "bcd.hermitian_solve",
    "precoder.effective_channels",
    "precoder.dual_bisection",
    "precoder.power_of_lambda",
    "phase.assemble_phase_qcqp",
    "phase.price_bisection",
    "metrics.effective_channels",
)
TRACK_CALLS = ("bcd.weighted_sum_rate", "bcd.effective_channels",
               "bcd.harvested_power_quadratic")


@dataclass(frozen=True)
class SolveWorkload:
    """solve_with_init over a fixed set of generated instances."""

    n_elements: int
    instances: int


@dataclass(frozen=True)
class HarvestWorkload:
    """run_experiment on the max-harvest-vs-distance grid."""

    trials: int                 # per distance and method
    threads: int
    trace_trials: int           # per distance and method, per traced round
    n_elements: int = 40
    distances: tuple[float, ...] = (4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    methods: tuple[str, ...] = ("bcd", "no-irs")


WORKLOADS = {
    "solve-m40": SolveWorkload(n_elements=40, instances=360),
    "solve-m200": SolveWorkload(n_elements=200, instances=125),
    "harvest-t2": HarvestWorkload(trials=105, threads=2, trace_trials=4),
}


class BlockFailureCounter(logging.Handler):
    """Counts bcd_solve's "block failed" warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "block failed" in record.getMessage():
            self.count += 1


@dataclass
class Tally:
    """Operation outcomes, latencies and the first pass's quality."""

    attempted: int = 0
    raised: int = 0
    violated: int = 0           # operations whose output failed the check
    violations: list[str] = field(default_factory=list)
    latencies_s: dict[int, list[float]] = field(default_factory=dict)
    objective: list[float] = field(default_factory=list)
    harvest: list[float] = field(default_factory=list)
    feasible: list[bool] = field(default_factory=list)
    sweeps: list[int] = field(default_factory=list)

    def record_latency(self, key: int, seconds: float) -> None:
        self.latencies_s.setdefault(key, []).append(seconds)

    def latency_ms(self) -> np.ndarray:
        """Per-operation latency: the mean of each instance's (or trial's) runs."""
        return np.array([1e3 * np.mean(v) for v in self.latencies_s.values()])

    def check(self, problems: list[str]) -> None:
        if problems:
            self.violated += 1
            self.violations.extend(problems)

    @property
    def failed(self) -> int:
        return self.raised + self.violated

    @property
    def error_frac(self) -> float:
        return self.failed / max(self.attempted, 1)


@dataclass
class Timing:
    """Wall time spent inside library calls, and the operations it covers."""

    busy_s: float = 0.0
    ops: int = 0


def instance_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def check_solve(report, channels, config: SystemConfig) -> tuple[list[str], float]:
    """Output check of one solve; returns (violations, harvested power)."""
    problems = []
    f, phi = report.f, report.phi
    power = float(np.real(np.vdot(f, f)))
    if power > config.power_budget * (1.0 + CONSTRAINT_RTOL):
        problems.append(f"power {power:.9g} exceeds the budget")
    eff = effective_channels(channels, phi, config)
    harvest = harvested_power_quadratic(f, eff.g)
    if not report.feasible:
        return problems, harvest
    if harvest < config.eh_threshold * (1.0 - CONSTRAINT_RTOL):
        problems.append(f"harvest {harvest:.9g} below the threshold")
    if phi.size and np.max(np.abs(np.abs(phi) - 1.0)) > UNIT_MODULUS_TOL:
        problems.append("phases are not unit-modulus")
    rates = [r for _, r in report.wsr_trajectory]
    if any(b < a - WSR_TOL for a, b in zip(rates, rates[1:])):
        problems.append("WSR trajectory decreases")
    _, wsr = weighted_sum_rate(f, phi, channels, config)
    if abs(report.wsr_bits - wsr) > WSR_TOL * max(1.0, abs(wsr)):
        problems.append(f"reported WSR {report.wsr_bits:.12g} != {wsr:.12g}")
    return problems, harvest


def check_cell(result, config: SystemConfig) -> list[str]:
    """Output check of one harvest cell."""
    if not np.isfinite(result.q_watts):
        return [f"harvest {result.q_watts} is not finite"]
    if result.feasible != (result.q_watts >= config.eh_threshold):
        return [f"feasible={result.feasible} but q={result.q_watts:.9g}"]
    return []


def _solve_op(channels, config: SystemConfig, tally: Tally,
              tracer: Tracer | None, first_pass: bool):
    """One checked solve; returns (wall s, report or None if it raised)."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        report = solve_with_init(channels, config)
    except SolverError:
        report = None
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    tally.attempted += 1
    if report is None:
        tally.raised += 1
        return elapsed, None
    problems, harvest = check_solve(report, channels, config)
    tally.check(problems)
    if first_pass and not problems:
        tally.feasible.append(bool(report.feasible))
        if report.feasible:
            tally.objective.append(report.wsr_bits)
            tally.harvest.append(harvest)
            tally.sweeps.append(report.iterations_used)
    return elapsed, report


def prepare(wl, seed: int):
    """Set-up: build the inputs and make one untimed warm-up call.

    Returns (inputs, seconds).  A solve workload's inputs are its config and
    instance channels; the harvest workload's are its experiment spec (the
    cells generate their own channels, so generation is measured there).
    """
    t0 = time.perf_counter()
    if isinstance(wl, HarvestWorkload):
        inputs = harvest_spec(wl, seed, wl.trials)
        run_experiment(replace(inputs, sweep=inputs.sweep[:1], trials=1),
                       threads=wl.threads)
    else:
        config = SystemConfig(n_elements=wl.n_elements)
        channels = [generate_scenario(config, SOLVE_GEOMETRY, s)
                    for s in instance_seeds(seed, wl.instances)]
        solve_with_init(channels[0], config, n_max=1)
        inputs = (config, channels)
    return inputs, time.perf_counter() - t0


def run_solve(wl: SolveWorkload, inputs, seconds: float, trace: bool):
    """Returns (Tally, Timing, traced figures or None)."""
    config, channels = inputs
    tally, timing, untraced = Tally(), Timing(), Timing()
    tracer = Tracer(TRACE_TARGETS) if trace else None
    sweeps = []
    start = time.perf_counter()
    i = 0
    while True:
        ch = channels[i % wl.instances]
        first = i < wl.instances
        if tracer is not None:
            untraced.busy_s += _solve_op(ch, config, tally, None, False)[0]
            untraced.ops += 1
        dt, report = _solve_op(ch, config, tally, tracer, first)
        timing.busy_s += dt
        timing.ops += 1
        if tracer is None:
            tally.record_latency(i % wl.instances, dt)
        elif report is not None:
            sweeps.append(report.iterations_used)
        i += 1
        if time.perf_counter() - start >= seconds and (
                trace or i >= wl.instances):
            break
    if tracer is None:
        return tally, timing, None
    return tally, timing, layer_figures(tracer, timing, untraced, sweeps)


def _cells(spec: ExperimentSpec, threads: int, tally: Tally,
           tracer: Tracer | None, first_pass: bool) -> tuple[float, float, int]:
    """One checked run_experiment call; returns (wall s, sum of cell wall
    times, cells)."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        results = run_experiment(spec, threads=threads)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    tally.attempted += len(results)
    # Results are ordered by (sweep index, trial, method): one trial's cells
    # are consecutive.
    n_methods = len(spec.methods)
    for j in range(0, len(results), n_methods):
        tally.record_latency(j // n_methods, sum(
            r.wall_time_s for r in results[j:j + n_methods]))
    for r in results:
        problems = check_cell(r, spec.config)
        tally.check(problems)
        if first_pass and not problems:
            tally.feasible.append(bool(r.feasible))
            tally.objective.append(r.q_watts)
            tally.harvest.append(r.q_watts)
    return wall, sum(r.wall_time_s for r in results), len(results)


def harvest_spec(wl: HarvestWorkload, seed_base: int,
                 trials: int) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="max-harvest-vs-distance", sweep=list(wl.distances),
        trials=trials, seed_base=seed_base, methods=wl.methods,
        config=SystemConfig(n_elements=wl.n_elements), geometry=Geometry(),
        record_timings=True)


def run_harvest(wl: HarvestWorkload, spec: ExperimentSpec, seconds: float,
                trace: bool):
    """Returns (Tally, Timing, traced figures or None)."""
    tally, timing = Tally(), Timing()
    cells_s = 0.0
    start = time.perf_counter()
    wall = 0.0
    # Whole grids only: stop at the grid boundary nearest to ``seconds``.
    while timing.ops == 0 or (not trace and time.perf_counter() - start
                              + wall / 2 < seconds):
        wall, cell_s, n = _cells(spec, wl.threads, tally, None,
                                 timing.ops == 0)
        timing.busy_s += wall
        timing.ops += n
        cells_s += cell_s
    if not trace:
        return tally, timing, None

    # Traced rounds at one worker, each on a fresh small grid run untraced
    # first; the pool overhead comes from the untraced pass above.
    tracer = Tracer(TRACE_TARGETS)
    traced, untraced = Timing(), Timing()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        chunk = harvest_spec(wl, spec.seed_base + 1 + rnd, wl.trace_trials)
        for timer, tr in ((untraced, None), (traced, tracer)):
            wall, _, n = _cells(chunk, 1, tally, tr, False)
            timer.busy_s += wall
            timer.ops += n
        rnd += 1
    figures = layer_figures(tracer, traced, untraced, [])
    figures["harness.overhead_frac"] = 1.0 - cells_s / (
        wl.threads * timing.busy_s)
    return tally, traced, figures


def layer_figures(tr: Tracer, traced: Timing, untraced: Timing,
                  sweeps: list[int]) -> dict[str, float]:
    """Per-layer figures per traced operation (see PER_LAYER)."""
    ops = max(traced.ops, 1)

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    dual = tr.calls("precoder.dual_bisection")
    price = tr.calls("phase.price_bisection")
    total_sweeps = sum(sweeps)
    eff_in_bcd = (tr.calls("bcd.effective_channels")
                  + tr.calls("precoder.effective_channels")
                  + tr.calls("metrics.effective_channels",
                             parent="bcd.weighted_sum_rate"))
    return {
        "precoder.solve_s": per_op(tr.total_s("bcd.sca_precoder_solve")),
        "precoder.dual_s": per_op(tr.total_s("precoder.dual_bisection")),
        "precoder.dual_calls": per_op(dual),
        "precoder.probes": per_op(tr.calls("precoder.power_of_lambda")),
        "precoder.probes_per_dual": ratio(
            tr.calls("precoder.power_of_lambda"), dual),
        "precoder.sca_iters": ratio(dual, tr.calls("bcd.sca_precoder_solve")),
        "phase.solve_s": per_op(tr.total_s("bcd.phase_solve")),
        "phase.assemble_s": per_op(tr.total_s("phase.assemble_phase_qcqp")),
        "phase.price_s": per_op(tr.total_s("phase.price_bisection")),
        "phase.price_calls": per_op(price),
        "phase.mm_steps": ratio(price, tr.calls("bcd.phase_solve")),
        "bcd.sweeps": per_op(total_sweeps),
        "bcd.cap_hits": per_op(sum(n >= SWEEP_CAP for n in sweeps)),
        "bcd.uw_s": per_op(tr.total_s("bcd.update_decoders")
                           + tr.total_s("bcd.update_weights")),
        "bcd.track_s": per_op(sum(tr.total_s(name, parent="harness.bcd_solve")
                                  for name in TRACK_CALLS)),
        "bcd.self_s": per_op(tr.self_s("harness.bcd_solve")),
        "bcd.block_failures": 0.0,      # per checked operation, set by run()
        "metrics.eff_channels_per_sweep": ratio(eff_in_bcd, total_sweeps),
        "linalg.hermitian_solve_calls": per_op(tr.calls("bcd.hermitian_solve")),
        "linalg.hermitian_solve_s": per_op(tr.total_s("bcd.hermitian_solve")),
        "feasibility.check_s": per_op(tr.total_s("harness.feasibility_check")),
        "feasibility.alt_steps": per_op(
            tr.calls("feasibility.max_eh_phase_step")),
        "feasibility.eh_qcqp_s": per_op(
            tr.total_s("feasibility.assemble_eh_qcqp")),
        "feasibility.spread_s": per_op(tr.total_s("harness.spread_streams")),
        "scenario.generate_s": per_op(tr.total_s("harness.generate_scenario")),
        "scenario.calls": per_op(tr.calls("harness.generate_scenario")),
        "harness.overhead_frac": 0.0,   # set by run_harvest
        "trace.overhead_s": per_op(traced.busy_s - untraced.busy_s),
        "trace.ops": float(traced.ops),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any worker it reaped."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment(root: Path | None) -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "commit": git_commit(root) if root else "unknown",
    }


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at root, read from the files; else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0, root: Path | None = None, workload=None,
        fresh_setups_s: tuple[float, ...] = ()) -> dict:
    """Run one workload and return the result document.

    ``setup_s`` is the median of this process's import plus set-up and of
    ``fresh_setups_s``, the same measured in fresh processes.  ``workload``
    overrides the sizes of the named workload (tests use it).
    """
    wl = workload if workload is not None else WORKLOADS[name]
    harvest_run = isinstance(wl, HarvestWorkload)
    inputs, setup = prepare(wl, seed)
    counter = BlockFailureCounter()
    bcd_log = logging.getLogger("irs_swipt.bcd")
    bcd_log.addHandler(counter)
    try:
        runner = run_harvest if harvest_run else run_solve
        tally, timing, figures = runner(wl, inputs, seconds, trace)
    finally:
        bcd_log.removeHandler(counter)
    setups = [import_s + setup, *fresh_setups_s]

    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": asdict(wl),
        "threads": 1 if trace else getattr(wl, "threads", 1),
        "environment": environment(root),
        "setups_s": setups,
        "ops_timed": timing.ops,
        "latency_samples": len(tally.latencies_s),
        "first_pass_ops": len(tally.feasible),
        "error_frac": tally.error_frac,
        "raised": tally.raised,
        "violations": tally.violations[:20],
        "block_failures": counter.count,
        "wsr_mean_bits": None if harvest_run else _mean(tally.objective),
        "q_mean_w": _mean(tally.harvest),
        "cap_hit_frac": (None if harvest_run else
                         _mean([n >= SWEEP_CAP for n in tally.sweeps])),
    }
    if trace:
        figures["bcd.block_failures"] = counter.count / max(tally.attempted, 1)
        metrics = {k: (figures[k], unit) for k, unit in PER_LAYER.items()}
    else:
        p50, p90 = np.percentile(tally.latency_ms(), [50, 90])
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": float(p50),
            "op_p90_ms": float(p90),
            "trials_per_s": timing.ops / timing.busy_s,
            "objective_mean": _mean(tally.objective),
            "feasible_frac": _mean(tally.feasible),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    return {
        "detail": detail,
        "result": {
            "correct": tally.violated == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()},
        },
    }


def _mean(values) -> float:
    """Mean, or 0 when every operation failed."""
    return float(np.mean(values)) if len(values) else 0.0


def print_result(doc: dict) -> None:
    """Detail line first; the result object is the last line of stdout."""
    print("detail " + json.dumps(doc["detail"], default=str))
    print(json.dumps(doc["result"]), flush=True)
