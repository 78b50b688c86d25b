"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured numbers (run with -s to stream them).

The randomized criteria use fixed seeds so the suite is reproducible.
"""

import time

import numpy as np
import pytest

from irs_swipt import (ExperimentSpec, Geometry, SystemConfig, bcd_solve,
                       effective_channels, emit_results, feasibility_check,
                       generate_scenario, run_experiment, summarize,
                       weighted_sum_rate)
from irs_swipt.metrics import wmmse_objective
from irs_swipt.phase import eh_slack, mm_prepare, price_bisection
from irs_swipt.precoder import (build_quadratic, dual_bisection,
                                power_of_lambda, sca_objective)

from helpers import (bench_config, dense_form, pg_quadratic_solver,
                     phase_grid_best, random_channels, unit_phases,
                     waterfill_capacity, wmmse_state)
from test_phase import make_phase_data


def report(line):
    print(f"\n{line}")


def test_criterion_01_rate_wmmse_equivalence():
    """|wmmse surrogate - WSR nats| < 1e-8 (1 + WSR) on 100 instances."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        cfg = bench_config(n_bs=4, n_ir=2, d=2, k_i=2, m=6)
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        nats, _ = weighted_sum_rate(f, phi, ch, cfg)
        h = wmmse_objective(w, u, f, phi, ch, cfg)
        gap = abs(h - nats) / (1.0 + nats)
        worst = max(worst, gap)
        assert abs(h - nats) < 1e-8 * (1.0 + nats)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(f"[C1 PASS] rate-WMMSE equivalence on 100 instances; "
           f"worst relative gap {worst:.2e}; {elapsed:.2f} s")


def test_criterion_02_multiplier_monotonicity():
    """P(lambda) non-increasing and J(p) non-decreasing on 50-point grids."""
    t0 = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(20_000 + seed)
        cfg = bench_config()
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        data = build_quadratic(u, w, eff, f, cfg, eh_threshold=0.0)
        powers = [power_of_lambda(lam, data)
                  for lam in np.logspace(-4, 4, 50)]
        for a, b in zip(powers, powers[1:]):
            assert b <= a + 1e-10 * max(1.0, a)

        pdata = make_phase_data(np.random.default_rng(30_000 + seed), 6)
        state = mm_prepare(pdata, unit_phases(rng, 6))
        slacks = [eh_slack(p, state) for p in np.logspace(-4, 4, 50)]
        for a, b in zip(slacks, slacks[1:]):
            assert b >= a - 1e-10 * max(1.0, abs(a))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(f"[C2 PASS] P(lambda) / J(p) monotone on 50 instances x 50-point "
           f"grids, slack 1e-10; {elapsed:.2f} s")


def test_criterion_03_price_global_optimality():
    """Price solution vs 518,400-point exhaustive grid on 20 subproblems."""
    t0 = time.perf_counter()
    checked = 0
    case_two = 0
    for seed in range(40):
        if checked >= 20:
            break
        rng = np.random.default_rng(40_000 + seed)
        data = make_phase_data(rng, 2)
        anchor = unit_phases(rng, 2)
        base = mm_prepare(data, anchor)
        w = data.g.conj() + dense_form(data.upsilon_factor) @ anchor
        j0 = eh_slack(0.0, base)
        j_inf = 2.0 * float(np.sum(np.abs(w)))
        frac = 0.75 if seed % 2 == 0 else -0.5   # Case II / Case I mix
        q_hat = j0 + frac * (j_inf - j0)
        anchor_quad = float(np.real(np.vdot(
            anchor, dense_form(data.upsilon_factor) @ anchor)))
        data.q_resid = q_hat - anchor_quad
        state = mm_prepare(data, anchor)
        nxt, p = price_bisection(state, data)
        phi = nxt.anchor
        value = 2.0 * float(np.real(np.vdot(phi, state.q)))
        grid = phase_grid_best(state.q, w, q_hat, points=720)
        if grid is None:
            continue
        bound = 2.0 * float(np.sum(np.abs(state.q))) * (2.0 * np.pi / 720.0)
        assert value >= grid - bound
        checked += 1
        case_two += int(p > 0.0)
    elapsed = time.perf_counter() - t0
    assert checked >= 20
    assert case_two >= 5
    assert elapsed < 120.0
    report(f"[C3 PASS] price mechanism beat the exhaustive grid on "
           f"{checked} subproblems ({case_two} with active price); "
           f"{elapsed:.2f} s")


def test_criterion_04_convex_subproblem_oracle():
    """Dual closed form vs projected gradient, 1e-4 relative, 20 instances."""
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(50_000 + seed)
        cfg = bench_config(n_bs=2 + seed % 2, n_ir=2, d=1, k_i=1 + seed % 2,
                           m=3)
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        from irs_swipt import harvested_power_quadratic
        qbar = 0.5 * harvested_power_quadratic(f, eff.g)
        data = build_quadratic(u, w, eff, f, cfg, eh_threshold=qbar)
        p0 = power_of_lambda(0.0, data)
        floor = power_of_lambda(1e12, data)
        p_t = min(max(0.4 * p0, 2.0 * floor), 0.5 * (floor + p0))
        f_dual, lam, mu = dual_bisection(data, p_t)
        z_dual = sca_objective(f_dual, data)
        _, z_pg = pg_quadratic_solver(data.a, data.lin, data.gfa,
                                      data.q_tilde, p_t, f_start=data.f_anchor,
                                      iters=15000)
        assert abs(z_pg - z_dual) < 1e-4 * max(abs(z_dual), abs(z_pg), 1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"[C4 PASS] dual solution matches projected-gradient oracle "
           f"within 1e-4 relative on 20 instances; {elapsed:.2f} s")


@pytest.fixture(scope="module")
def bcd_runs():
    """50 feasible desk-scale scenarios solved end to end with defaults."""
    cfg = SystemConfig(n_elements=40)
    geom = Geometry(er_center=4.0, ir_center=100.0)
    runs = []
    seed = 0
    while len(runs) < 50:
        ch = generate_scenario(cfg, geom, seed)
        seed += 1
        feasible, f0, phi0, q = feasibility_check(ch, cfg)
        if not feasible:
            continue
        runs.append((cfg, ch, bcd_solve(ch, cfg, (f0, phi0))))
    return runs


def test_criterion_05_bcd_monotone_convergence(bcd_runs):
    """WSR non-decreasing, converged within 50 sweeps, median sweeps <= 15.

    KNOWN RED (see the convergence analysis in the decisions ledger): the
    monotonicity and median clauses hold, but a 1e-4-relative change within
    50 sweeps does not hold for every instance.  A minority of instances
    passes through slow power-reorganization transients (each block still
    solves its subproblem to stationarity) and takes longer to reach that
    rule, independent of instance family, inner tolerances, or initializer
    strength.  Where the rule fires it marks a plateau, not convergence:
    run with no stop rule, all 50 instances still rise at sweep 3000.  The
    assertion is kept as specified rather than loosened.
    """
    iterations = []
    stalled_late = []
    for idx, (cfg, ch, rep) in enumerate(bcd_runs):
        rates = [r for _, r in rep.wsr_trajectory]
        for a, b in zip(rates, rates[1:]):
            assert b >= a - 1e-9
        assert rep.iterations_used <= 50
        last_delta = abs(rates[-1] - rates[-2]) / max(abs(rates[-1]), 1e-30)
        if last_delta >= 1e-4:
            stalled_late.append(idx)
        iterations.append(rep.iterations_used)
    median_iters = float(np.median(iterations))
    assert median_iters <= 15.0
    status = "PASS" if not stalled_late else "FAIL"
    report(f"[C5 {status}] 50 feasible instances: monotone WSR all 50, "
           f"median sweeps {median_iters:.1f} (<= 15), "
           f"{50 - len(stalled_late)}/50 below 1e-4 relative change "
           f"within 50 sweeps")
    assert not stalled_late, (
        f"{len(stalled_late)} of 50 instances still improve by more than "
        f"1e-4 relative at sweep 50 (the rule fires later, on a plateau, "
        f"not at convergence); "
        f"monotonicity and the median-iteration clause hold")


def test_criterion_05_stop_reason_names_the_stalled_instances(bcd_runs):
    """stop_reason is "sweep cap" on exactly the instances C5 counts as
    stalled (50 sweeps, last relative change >= 1e-4), "converged" on the
    rest."""
    capped = []
    for idx, (cfg, ch, rep) in enumerate(bcd_runs):
        rates = [r for _, r in rep.wsr_trajectory]
        last_delta = abs(rates[-1] - rates[-2]) / max(abs(rates[-1]), 1e-30)
        stalled = rep.iterations_used == 50 and last_delta >= 1e-4
        assert rep.stop_reason == ("sweep cap" if stalled else "converged")
        if stalled:
            capped.append(idx)
    report(f"[C5 stop reason] sweep cap on instances {capped}, "
           f"converged on the other {50 - len(capped)}")


def test_criterion_06_constraint_invariance(bcd_runs):
    """Power <= P_T (1 + 1e-6) and Q >= Qbar (1 - 1e-6) at every sweep."""
    for cfg, ch, rep in bcd_runs:
        for p in [s.power for s in rep.sweeps]:
            assert p <= cfg.power_budget * (1.0 + 1e-6)
        for q in [s.harvest for s in rep.sweeps]:
            assert q >= cfg.eh_threshold * (1.0 - 1e-6)
    report("[C6 PASS] every BCD iterate satisfied the power and harvest "
           "constraints at tolerance 1e-6")


def test_criterion_07_single_user_waterfilling():
    """Single-user rate within 2% of water-filling capacity at fixed phases."""
    t0 = time.perf_counter()
    ratios = []
    for seed in range(5):
        rng = np.random.default_rng(70_000 + seed)
        cfg = bench_config(n_bs=4, n_ir=2, d=2, k_i=1, m=6, qbar=0.0)
        ch = random_channels(rng, cfg)
        feasible, f0, phi0, _ = feasibility_check(ch, cfg)
        rep = bcd_solve(ch, cfg, (f0, phi0), eps=1e-8, n_max=300)
        eff = effective_channels(ch, rep.phi, cfg)
        capacity = waterfill_capacity(eff.hbar[0], cfg.noise_power_ir,
                                      cfg.power_budget)
        nats, _ = weighted_sum_rate(rep.f, rep.phi, ch, cfg)
        ratios.append(nats / capacity)
        assert nats >= 0.98 * capacity
        assert nats <= capacity * (1.0 + 1e-9)
    report(f"[C7 PASS] single-user rate reached "
           f"{100 * min(ratios):.2f}%..{100 * max(ratios):.2f}% of "
           f"water-filling capacity; {time.perf_counter() - t0:.2f} s")


def crossing(distances, values, level):
    """First distance where the curve falls through the level (interpolated)."""
    for (d0, v0), (d1, v1) in zip(zip(distances, values),
                                  zip(distances[1:], values[1:])):
        if v0 >= level > v1:
            return d0 + (d1 - d0) * (v0 - level) / (v0 - v1)
    if values[0] < level:
        return distances[0]
    return distances[-1]


def test_criterion_08_harvest_range_trend():
    """Max-harvest sweep: range extension by the reflecting surface."""
    t0 = time.perf_counter()
    distances = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    qbar = 2e-4

    def harvest_means(m, methods):
        spec = ExperimentSpec(
            experiment="max-harvest-vs-distance", sweep=distances, trials=20,
            seed_base=8, methods=methods,
            config=SystemConfig(n_elements=m), geometry=Geometry(),
            record_timings=False)
        stats = summarize(run_experiment(spec))
        return {meth: [stats[(d, meth)]["q_mean"] for d in distances]
                for meth in methods}

    with_irs_40 = harvest_means(40, ("bcd", "no-irs"))
    q40, q_no = with_irs_40["bcd"], with_irs_40["no-irs"]
    q20 = harvest_means(20, ("bcd",))["bcd"]

    for curve in (q40, q20, q_no):
        for a, b in zip(curve, curve[1:]):
            assert b < a          # mean harvest decays with distance
    for a, b, c in zip(q_no, q20, q40):
        assert a < b < c          # more elements, more power

    d_no = crossing(distances, q_no, qbar)
    d_40 = crossing(distances, q40, qbar)
    assert abs(d_no - 5.5) <= 1.5
    assert abs(d_40 - 9.0) <= 2.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(f"[C8 PASS] harvest range: no-surface crossing at {d_no:.2f} m "
           f"(target 5.5±1.5), 40-element crossing at {d_40:.2f} m "
           f"(target 9±2); {elapsed:.1f} s")


def test_criterion_09_wsr_ordering_at_scale():
    """Mean WSR ordering bcd >= fixed-phase >= no-irs and the M = 60 gap."""
    t0 = time.perf_counter()
    sweep = [20.0, 40.0, 60.0]
    spec = ExperimentSpec(
        experiment="wsr-vs-M", sweep=sweep, trials=20, seed_base=9,
        methods=("bcd", "fixed-phase", "no-irs"),
        config=SystemConfig(), geometry=Geometry(ir_center=100.0),
        record_timings=False)
    stats = summarize(run_experiment(spec))
    for m in sweep:
        bcd_mean = stats[(m, "bcd")]["wsr_mean"]
        fixed_mean = stats[(m, "fixed-phase")]["wsr_mean"]
        bare_mean = stats[(m, "no-irs")]["wsr_mean"]
        assert bcd_mean >= fixed_mean >= bare_mean
    gap = stats[(60.0, "bcd")]["wsr_mean"] - stats[(60.0, "no-irs")]["wsr_mean"]
    assert gap >= 5.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    report(f"[C9 PASS] WSR ordering held at every sweep point; "
           f"gap over no-surface at M=60 is {gap:.2f} bit/s/Hz (>= 5); "
           f"{elapsed:.1f} s")


def test_criterion_10_deterministic_csv(tmp_path):
    """Re-running an experiment reproduces byte-identical CSV output."""
    spec = ExperimentSpec(
        experiment="wsr-vs-M", sweep=[10.0, 16.0], trials=2, seed_base=5,
        methods=("bcd", "no-irs"),
        config=SystemConfig(n_elements=10, eh_threshold=5e-5),
        geometry=Geometry(er_center=4.0, ir_center=30.0),
        record_timings=False)
    a = emit_results(run_experiment(spec), "csv", tmp_path / "a.csv", spec=spec)
    b = emit_results(run_experiment(spec), "csv", tmp_path / "b.csv", spec=spec)
    assert a.read_bytes() == b.read_bytes()
    report("[C10 PASS] identical spec and seed reproduced byte-identical CSV")
