import json
from dataclasses import replace

import numpy as np
import pytest

from irs_swipt import (ExperimentSpec, Geometry, SystemConfig, emit_results,
                       feasibility_check, generate_scenario, run_experiment,
                       solve_with_init, summarize)
import irs_swipt.bcd as bcd
import irs_swipt.feasibility as feasibility
import irs_swipt.harness as harness
from irs_swipt.errors import SolverError
from irs_swipt.harness import (TrialResult, apply_sweep, derive_seed,
                               run_trial)
from irs_swipt.metrics import surface_free
from irs_swipt.scenario import ChannelSet

from helpers import count_calls


def quick_config(m=12, qbar=5e-5):
    """Small, close-in scenario so solves take milliseconds."""
    return SystemConfig(n_elements=m, eh_threshold=qbar)


def quick_geometry():
    return Geometry(er_center=4.0, ir_center=30.0)


def quick_spec(**kw):
    args = dict(experiment="wsr-vs-M", sweep=[8.0], trials=1, seed_base=3,
                methods=("no-irs",), config=quick_config(),
                geometry=quick_geometry(), record_timings=False)
    args.update(kw)
    return ExperimentSpec(**args)


class TestSeedDerivation:
    def test_frozen_values(self):
        # pinned: SHA-256 based, stable across runs and platforms
        assert derive_seed(0, 0, 0, "bcd") == 5264150218901639361
        assert derive_seed(0, 0, 0, "no-irs") == 8742104880616707557
        assert derive_seed(7, 2, 5, "fixed-phase") == 15573623308387557612

    def test_distinct_cells(self):
        seeds = {derive_seed(1, si, ti, m)
                 for si in range(4) for ti in range(4)
                 for m in ("bcd", "no-irs")}
        assert len(seeds) == 32


class TestApplySweep:
    def test_er_distance_moves_irs(self):
        cfg, geom = apply_sweep("wsr-vs-xER", quick_config(), quick_geometry(), 8.0)
        assert geom.er_center == 8.0
        assert geom.irs_position == (8.0, 2.0)

    def test_element_count(self):
        cfg, _ = apply_sweep("wsr-vs-M", quick_config(), quick_geometry(), 24.0)
        assert cfg.n_elements == 24

    def test_threshold(self):
        cfg, _ = apply_sweep("wsr-vs-Qbar", quick_config(), quick_geometry(), 3e-4)
        assert cfg.eh_threshold == 3e-4

    def test_irs_exponents_move_together(self):
        _, geom = apply_sweep("wsr-vs-alphaIRS", quick_config(),
                              quick_geometry(), 2.8)
        assert geom.alpha_bs_irs == geom.alpha_irs_er == geom.alpha_irs_ir == 2.8
        assert geom.alpha_bs_ir == 3.6

    def test_ir_distance(self):
        _, geom = apply_sweep("wsr-vs-xIR", quick_config(), quick_geometry(), 77.0)
        assert geom.ir_center == 77.0


class TestBaselines:
    def test_no_irs_matches_zero_element_encoding(self):
        cfg = quick_config(m=10)
        ch = generate_scenario(cfg, quick_geometry(), seed=4)
        zeroed = ChannelSet(z=np.zeros_like(ch.z), h_b=ch.h_b.copy(),
                            h_r=np.zeros_like(ch.h_r), g_b=ch.g_b.copy(),
                            g_r=np.zeros_like(ch.g_r))
        report_zeroed = solve_with_init(zeroed, cfg)

        report_m0 = solve_with_init(*surface_free(ch, cfg))
        assert report_zeroed.feasible == report_m0.feasible
        assert report_zeroed.wsr_bits == pytest.approx(report_m0.wsr_bits,
                                                       rel=1e-9)

    def test_fixed_phase_trajectory_monotone(self):
        cfg = quick_config(m=14)
        ch = generate_scenario(cfg, quick_geometry(), seed=5)
        phi0 = feasibility_check(ch, cfg)[2]
        report = solve_with_init(*surface_free(ch, cfg, phi0))
        assert report.feasible
        rates = [r for _, r in report.wsr_trajectory]
        for a, b in zip(rates, rates[1:]):
            assert b >= a - 1e-9

    def test_no_irs_harvest_equals_direct_eigenvalue(self):
        from irs_swipt import effective_channels
        from irs_swipt.feasibility import max_eh_beam
        from irs_swipt.linalg import herm
        cfg = quick_config(m=10)
        ch = generate_scenario(cfg, quick_geometry(), seed=6)
        bare, cfg0 = surface_free(ch, cfg)
        eff = effective_channels(bare, np.ones(0, complex), cfg0)
        _, q = max_eh_beam(eff.g, cfg)
        g_direct = sum(cfg.eh_weights[el] * cfg.eh_efficiency
                       * herm(ch.g_b[el]) @ ch.g_b[el]
                       for el in range(cfg.n_ers))
        chi = np.linalg.eigvalsh(g_direct)[-1]
        assert q == pytest.approx(chi * cfg.power_budget, rel=1e-9)

    def test_gap_to_fixed_phase_narrows_near_feasibility_boundary(self):
        cfg0 = quick_config(m=16, qbar=2e-4)
        geom = quick_geometry()
        qmax = np.median([feasibility_check(
            generate_scenario(cfg0, geom, s),
            replace(cfg0, eh_threshold=float("inf")))[3] for s in range(12)])

        def mean_gap(qbar):
            cfg = replace(cfg0, eh_threshold=qbar)
            gaps = []
            for seed in range(12):
                ch = generate_scenario(cfg, geom, seed)
                full = solve_with_init(ch, cfg)
                phi0 = feasibility_check(ch, cfg)[2]
                fixed = solve_with_init(*surface_free(ch, cfg, phi0))
                if full.feasible and fixed.feasible:
                    gaps.append(full.wsr_bits - fixed.wsr_bits)
            assert len(gaps) >= 5
            return float(np.mean(gaps))

        assert mean_gap(0.85 * qmax) < mean_gap(2e-4)

    def test_bcd_beats_baselines_on_average(self):
        cfg = quick_config(m=16)
        geom = quick_geometry()
        gains_no_irs, gains_fixed = [], []
        for seed in range(20):
            ch = generate_scenario(cfg, geom, seed)
            full = solve_with_init(ch, cfg)
            phi0 = feasibility_check(ch, cfg)[2]
            fixed = solve_with_init(*surface_free(ch, cfg, phi0))
            bare = solve_with_init(*surface_free(ch, cfg))
            wsr = full.wsr_bits if full.feasible else 0.0
            gains_no_irs.append(wsr - (bare.wsr_bits if bare.feasible else 0.0))
            gains_fixed.append(wsr - (fixed.wsr_bits if fixed.feasible else 0.0))
        assert np.mean(gains_no_irs) > 0.0
        assert np.mean(gains_fixed) >= 0.0
        assert np.mean([g >= -1e-6 for g in gains_fixed]) >= 0.9

    def test_baseline_cells_make_no_phase_steps(self, monkeypatch):
        # a surface-free cell has no phase to move, so the joint solve runs
        # no phase block and the harvest alternation no phase step
        phase_solves = count_calls(monkeypatch, bcd, "phase_solve")
        spec = quick_spec(sweep=[8.0, 12.0], trials=2,
                          methods=("fixed-phase", "no-irs"))
        results = run_experiment(spec)
        for method in spec.methods:
            assert any(r.iterations >= 1 for r in results
                       if r.method == method)
        assert phase_solves == []

        phase_steps = count_calls(monkeypatch, feasibility,
                                  "max_eh_phase_step")
        run_experiment(quick_spec(experiment="max-harvest-vs-distance",
                                  sweep=[4.0, 8.0], trials=2))
        assert phase_steps == []


class TestRunTrial:
    @pytest.mark.parametrize("experiment,value,method", [
        ("wsr-vs-M", 8.0, "bcd"), ("wsr-vs-M", 8.0, "fixed-phase"),
        ("wsr-vs-M", 8.0, "no-irs"),
        ("max-harvest-vs-distance", 4.0, "bcd"),
        ("max-harvest-vs-distance", 4.0, "no-irs")])
    def test_matches_direct_solve(self, experiment, value, method):
        """Each cell is the direct solve (or harvest maximization) on the
        cell's seeded channels, made surface-free for the baselines."""
        spec = quick_spec(experiment=experiment, sweep=[value],
                          methods=(method,))
        cell = run_trial(spec, 0, 0, method)
        config, geometry = apply_sweep(experiment, spec.config,
                                       spec.geometry, spec.sweep[0])
        ch = generate_scenario(config, geometry, cell.seed)
        if method == "no-irs":
            ch, config = surface_free(ch, config)
        elif method == "fixed-phase":
            ch, config = surface_free(ch, config,
                                      feasibility_check(ch, config)[2])
        if experiment == "max-harvest-vs-distance":
            q = feasibility_check(
                ch, replace(config, eh_threshold=float("inf")))[3]
            expected = (0.0, q, 0)
        else:
            report = solve_with_init(ch, config)
            assert report.feasible
            expected = (report.wsr_bits, report.sweeps[-1].harvest,
                        report.iterations_used)
        assert cell.feasible
        assert (cell.wsr_bits, cell.q_watts, cell.iterations) == expected

    @pytest.mark.parametrize("method", ["bcd", "no-irs", "fixed-phase"])
    def test_one_feasibility_check_per_cell(self, monkeypatch, method):
        # fixed-phase solves at the full draw's check point, M = 0, with no
        # second check on the surface-free set
        spec = quick_spec(sweep=[8.0], trials=3, methods=(method,))
        calls = count_calls(monkeypatch, harness, "feasibility_check")
        results = run_experiment(spec)
        assert all(r.feasible and r.iterations >= 1 for r in results)
        assert len(calls) == len(results)


    def test_solver_error_scores_the_cell_infeasible(self, monkeypatch):
        """A SolverError from bcd_solve scores its cell feasible=False,
        WSR 0, q 0 and 0 iterations, and every other cell is as in an
        uninjected run.  This pins today's scoring, which the per-trial
        status column of ROADMAP open item 4 will replace."""
        spec = quick_spec(sweep=[6.0, 8.0], trials=2, methods=("bcd", "no-irs"))
        clean = run_experiment(spec)
        real, calls = harness.bcd_solve, []

        def failing_second_call(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise SolverError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "bcd_solve", failing_second_call)
        injected = run_experiment(spec)
        assert len(calls) == sum(r.feasible for r in clean) >= 2
        changed = [i for i, (a, b) in enumerate(zip(clean, injected))
                   if a.to_dict() != b.to_dict()]
        assert len(changed) == 1
        before, after = clean[changed[0]], injected[changed[0]]
        assert before.feasible and before.iterations >= 1
        assert (after.feasible, after.wsr_bits, after.q_watts,
                after.iterations) == (False, 0.0, 0.0, 0)
        assert after.seed == before.seed


class TestRunExperiment:
    def test_single_cell(self):
        results = run_experiment(quick_spec())
        assert len(results) == 1
        r = results[0]
        assert r.method == "no-irs"
        assert r.experiment == "wsr-vs-M"
        assert r.sweep_value == 8.0
        assert r.feasible in (True, False)
        if not r.feasible:
            assert r.wsr_bits == 0.0

    def test_rerun_reproduces_results(self):
        spec = quick_spec(trials=2, methods=("bcd", "no-irs"))
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_worker_pool_matches_sequential(self):
        spec = quick_spec(trials=2, methods=("no-irs",), sweep=[6.0, 10.0])
        seq = run_experiment(spec, threads=1)
        par = run_experiment(spec, threads=2)
        assert [r.to_dict() for r in seq] == [r.to_dict() for r in par]

    def test_results_ordered_by_sweep_index_trial_and_method_name(
            self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNKS_PER_WORKER", 2)
        spec = quick_spec(experiment="max-harvest-vs-distance",
                          sweep=[6.0, 4.0], trials=2,
                          methods=("no-irs", "bcd"))
        seq = run_experiment(spec, threads=1)
        par = run_experiment(spec, threads=2)
        assert [(r.sweep_value, r.method) for r in seq] == [
            (v, m) for v in (6.0, 4.0) for _ in range(2)
            for m in ("bcd", "no-irs")]
        assert [r.to_dict() for r in seq] == [r.to_dict() for r in par]

    @pytest.mark.parametrize("cells", [1, 5])
    @pytest.mark.parametrize("method", ["bcd", "no-irs"])
    @pytest.mark.parametrize("experiment,sweep", [
        ("wsr-vs-M", [6.0, 8.0, 10.0, 12.0, 14.0]),
        ("max-harvest-vs-distance", [4.0, 5.0, 6.0, 7.0, 8.0])])
    def test_chunked_pool_matches_sequential(self, monkeypatch, experiment,
                                             sweep, method, cells):
        # two chunks per worker at two workers: five cells go out in chunks
        # of 2, 2 and 1, one cell in a single chunk to a single worker
        monkeypatch.setattr(harness, "CHUNKS_PER_WORKER", 2)
        spec = quick_spec(experiment=experiment, sweep=sweep[:cells],
                          methods=(method,))
        seq = run_experiment(spec, threads=1)
        par = run_experiment(spec, threads=2)
        assert len(par) == cells
        assert [r.to_dict() for r in seq] == [r.to_dict() for r in par]

    @pytest.mark.parametrize("threads", [0, -1, 1.5, True])
    def test_rejects_a_thread_count_not_an_integer_from_one(self, threads):
        with pytest.raises(ValueError, match="threads must be an integer"):
            run_experiment(quick_spec(methods=("no-irs",)), threads=threads)

    @pytest.mark.parametrize("cpus,workers", [(2, [2]), (1, []), (None, [])])
    def test_starts_at_most_one_worker_per_cpu(self, monkeypatch, cpus,
                                              workers):
        # a stand-in pool records its size and maps in this process, so a
        # huge thread count starts no process
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return list(map(fn, *iterables))

        spec = quick_spec(trials=2, methods=("no-irs",), sweep=[6.0, 10.0])
        seq = run_experiment(spec, threads=1)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        par = run_experiment(spec, threads=10 ** 6)
        assert started == workers
        assert [r.to_dict() for r in seq] == [r.to_dict() for r in par]

    def test_harvest_grows_with_elements(self):
        geom = quick_geometry()
        means = []
        for m in (0, 12, 24):
            spec = ExperimentSpec(
                experiment="max-harvest-vs-distance", sweep=[4.0], trials=8,
                seed_base=1, methods=("bcd",),
                config=quick_config(m=max(m, 1), qbar=2e-4), geometry=geom,
                record_timings=False)
            if m == 0:
                spec = ExperimentSpec(
                    experiment="max-harvest-vs-distance", sweep=[4.0],
                    trials=8, seed_base=1, methods=("no-irs",),
                    config=quick_config(m=1, qbar=2e-4), geometry=geom,
                    record_timings=False)
            results = run_experiment(spec)
            means.append(np.mean([r.q_watts for r in results]))
        assert means[0] < means[1] < means[2]

    def test_rejects_bad_spec(self):
        for experiment in ("nonsense", "convergence"):
            with pytest.raises(ValueError):
                quick_spec(experiment=experiment)
        with pytest.raises(ValueError):
            quick_spec(sweep=[])
        with pytest.raises(ValueError):
            quick_spec(methods=("warp-drive",))
        with pytest.raises(ValueError):
            quick_spec(experiment="max-harvest-vs-distance",
                       methods=("fixed-phase",))
        # a string is not split into characters: "45" ran M = 4 and 5
        with pytest.raises(ValueError, match="^sweep must be a list"):
            quick_spec(sweep="45")
        with pytest.raises(ValueError, match="^methods must be a list"):
            quick_spec(methods="bcd")
        # a repeated method ran every cell twice; no method runs no cell
        for methods in (("no-irs", "no-irs"), ("bcd", "no-irs", "bcd"), ()):
            with pytest.raises(ValueError, match="^methods must be non-empty"):
                quick_spec(methods=methods)
        # every sweep value is bound when the spec is built
        with pytest.raises(ValueError, match="n_elements"):
            quick_spec(sweep=[8.0, -4.0])
        with pytest.raises(ValueError, match="er_center"):
            quick_spec(experiment="max-harvest-vs-distance", sweep=[5.0, -1.0])


class TestEmitResults:
    def record(self, **kw):
        args = dict(experiment="wsr-vs-M", sweep_value=8.0, method="bcd",
                    seed=12345, feasible=True, wsr_bits=1.0 / 3.0,
                    q_watts=2.5e-4, iterations=7, wall_time_s=0.0)
        args.update(kw)
        return TrialResult(**args)

    def test_single_record_csv(self, tmp_path):
        p = emit_results([self.record()], "csv", tmp_path / "one.csv")
        lines = p.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("experiment,sweep_value,method,seed,")
        assert "bcd" in lines[1]

    def test_full_precision(self, tmp_path):
        wsr = 1.0 / 3.0
        p = emit_results([self.record(wsr_bits=wsr)], "csv", tmp_path / "p.csv")
        row = p.read_text().splitlines()[1].split(",")
        assert float(row[5]) == wsr  # 17 significant digits round-trips

    def test_json_roundtrip(self, tmp_path):
        spec = quick_spec()
        records = [self.record(), self.record(method="no-irs", feasible=False,
                                              wsr_bits=0.0)]
        p = emit_results(records, "json", tmp_path / "r.json", spec=spec)
        doc = json.loads(p.read_text())
        assert doc["spec"]["experiment"] == "wsr-vs-M"
        parsed = [TrialResult(**rec) for rec in doc["records"]]
        assert [r.to_dict() for r in parsed] == [r.to_dict() for r in records]

    def test_csv_determinism(self, tmp_path):
        spec = quick_spec(trials=2)
        a = emit_results(run_experiment(spec), "csv", tmp_path / "a.csv",
                         spec=spec)
        b = emit_results(run_experiment(spec), "csv", tmp_path / "b.csv",
                         spec=spec)
        assert a.read_bytes() == b.read_bytes()

    def test_summarize(self):
        records = [self.record(wsr_bits=1.0), self.record(wsr_bits=3.0),
                   self.record(method="no-irs", wsr_bits=0.5)]
        stats = summarize(records)
        assert stats[(8.0, "bcd")]["wsr_mean"] == pytest.approx(2.0)
        assert stats[(8.0, "bcd")]["trials"] == 2
        assert stats[(8.0, "no-irs")]["feasible_frac"] == 1.0

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "csv", tmp_path / "x.csv")
