import numpy as np
import pytest

import irs_swipt.bcd as bcd_module
from irs_swipt import (SolverError, bcd_solve, effective_channels,
                       feasibility_check, harvested_power_quadratic,
                       solve_with_init, weighted_sum_rate)
from irs_swipt.bcd import Sweep, bcd_sweep, mmse_refresh
from irs_swipt.errors import ConditioningError
from irs_swipt.feasibility import spread_streams
from irs_swipt.linalg import frob_sq, inverse_logdet_pd
from irs_swipt.metrics import LN2, mse_matrix, surface_free, wmmse_objective
from irs_swipt.phase import phase_solve
from irs_swipt.precoder import sca_precoder_solve

from helpers import (bench_config, count_calls, crandn, mmse_refresh_loop,
                     random_channels, random_precoders, unit_phases,
                     waterfill_capacity, wmmse_state)

from test_metrics import scalar_setup


def feasible_instance(rng, cfg, qbar_frac=0.5, sigma2=1.0):
    """Channels plus a feasible starting point with a binding-ish threshold."""
    ch = random_channels(rng, cfg)
    feasible, f0, phi0, q = feasibility_check(ch, cfg)
    assert feasible or cfg.eh_threshold > 0
    cfg_q = bench_config(m=cfg.n_elements, qbar=qbar_frac * q, sigma2=sigma2)
    feasible, f0, phi0, q2 = feasibility_check(ch, cfg_q)
    assert feasible
    return ch, cfg_q, f0, phi0


def refresh(f, phi, ch, cfg):
    return mmse_refresh(f, effective_channels(ch, phi, cfg), cfg)


def figures(sweep):
    """A sweep record's figures, without its arrays."""
    return (sweep.wsr_bits, sweep.power, sweep.harvest, sweep.precoder_iters,
            sweep.phase_iters, sweep.errors)


class TestBatchedRefresh:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("m", [0, 1, 37])
    def test_matches_per_user_loop(self, d, m):
        rng = np.random.default_rng(40 + 3 * m + d)
        cfg = bench_config(k_i=3, n_ir=3, n_er=3, d=d, m=m,
                           rate_weights=(0.4, 1.3, 2.2), eh_weights=(0.7, 1.9))
        ch = random_channels(rng, cfg)
        f = random_precoders(rng, cfg)
        eff = effective_channels(ch, unit_phases(rng, m), cfg)
        u, w, wsr = mmse_refresh(f, eff, cfg)
        u_ref, w_ref, wsr_ref = mmse_refresh_loop(f, eff, cfg)
        for got, ref in ((u, u_ref), (w, w_ref)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert wsr == pytest.approx(wsr_ref, rel=1e-12)

    @pytest.mark.parametrize("k_i", [1, 2, 3, 4])
    def test_two_eigvalsh_calls_for_any_user_count(self, monkeypatch, k_i):
        # one condition check for the stacked C_k, one for the stacked E_k
        rng = np.random.default_rng(50 + k_i)
        cfg = bench_config(k_i=k_i, d=1)
        ch = random_channels(rng, cfg)
        eff = effective_channels(ch, unit_phases(rng, cfg.n_elements), cfg)
        f = random_precoders(rng, cfg)
        checks = count_calls(monkeypatch, np.linalg, "eigvalsh")
        mmse_refresh(f, eff, cfg)
        assert len(checks) == 2


class TestDecoderUpdate:
    def test_scalar_case(self):
        cfg, ch, f, phi = scalar_setup(h=1.0, p=1.0, sigma2=1.0)
        u, _, _ = refresh(f, phi, ch, cfg)
        assert u[0, 0, 0] == pytest.approx(0.5)

    def test_zero_precoder(self):
        rng = np.random.default_rng(0)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        f = np.zeros((cfg.n_irs, cfg.n_bs_antennas, cfg.n_streams), complex)
        u, _, _ = refresh(f, unit_phases(rng, cfg.n_elements), ch, cfg)
        assert np.max(np.abs(u)) == 0.0

    def test_minimizes_mse_trace(self):
        rng = np.random.default_rng(1)
        cfg = bench_config()
        ch, phi, f, u, _ = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        base = np.real(np.trace(mse_matrix(0, f, u, eff, cfg.noise_power_ir)))
        for scale in (1e-3, 1e-2):
            for _ in range(20):
                u_pert = u.copy()
                u_pert[0] += crandn(rng, cfg.n_ir_antennas, cfg.n_streams,
                                    scale=scale)
                perturbed = np.real(np.trace(
                    mse_matrix(0, f, u_pert, eff, cfg.noise_power_ir)))
                assert perturbed >= base - 1e-12


class TestWeightUpdate:
    def test_scalar_case(self):
        cfg, ch, f, phi = scalar_setup(h=1.0, p=1.0, sigma2=1.0)
        _, w, _ = refresh(f, phi, ch, cfg)
        # the error variance halves, so the weight doubles
        assert w[0, 0, 0] == pytest.approx(2.0)

    def test_zero_precoder_gives_identity(self):
        rng = np.random.default_rng(2)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        f = np.zeros((cfg.n_irs, cfg.n_bs_antennas, cfg.n_streams), complex)
        phi = unit_phases(rng, cfg.n_elements)
        _, w, _ = refresh(f, phi, ch, cfg)
        for k in range(cfg.n_irs):
            np.testing.assert_allclose(w[k], np.eye(cfg.n_streams), atol=1e-12)

    def test_rate_equivalence_after_updates(self):
        rng = np.random.default_rng(3)
        cfg = bench_config()
        ch, phi, f, _, _ = wmmse_state(rng, cfg)
        u, w, refresh_nats = refresh(f, phi, ch, cfg)
        nats, _ = weighted_sum_rate(f, phi, ch, cfg)
        h = wmmse_objective(w, u, f, phi, ch, cfg)
        assert abs(h - nats) < 1e-8 * (1.0 + nats)
        assert refresh_nats == pytest.approx(nats, rel=1e-9)


class TestBcdSolve:
    def test_monotone_rate_and_feasible_iterates(self):
        for seed in range(12):
            rng = np.random.default_rng(500 + seed)
            cfg = bench_config(m=5)
            ch, cfg_q, f0, phi0 = feasible_instance(rng, cfg)
            report = bcd_solve(ch, cfg_q, (f0, phi0))
            rates = [r for _, r in report.wsr_trajectory]
            for a, b in zip(rates, rates[1:]):
                assert b >= a - 1e-9
            # final point satisfies both constraints
            eff = effective_channels(ch, report.phi, cfg_q)
            assert frob_sq(report.f) <= cfg_q.power_budget * (1 + 1e-6)
            assert (harvested_power_quadratic(report.f, eff.g)
                    >= cfg_q.eh_threshold * (1 - 1e-6))

    def test_single_precoder_failure_is_absorbed(self, monkeypatch):
        rng = np.random.default_rng(500)
        ch, cfg_q, f0, phi0 = feasible_instance(rng, bench_config(m=5))
        real = bcd_module.sca_precoder_solve
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise SolverError("injected precoder failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(bcd_module, "sca_precoder_solve", fails_once)
        report = bcd_solve(ch, cfg_q, (f0, phi0))
        assert len(calls) >= 2
        # the failed sweep keeps its precoders, counts 0 precoder
        # iterations and records the failure; its phase block still runs
        failed = report.sweeps[1]
        assert failed.errors == (("precoder", "injected precoder failure"),)
        assert failed.precoder_iters == 0 and failed.phase_iters > 0
        np.testing.assert_array_equal(failed.f, report.sweeps[0].f)
        assert all(s.errors == () for s in report.sweeps[2:])
        bare = solve_with_init(*surface_free(ch, bench_config(m=5)))
        assert bare.feasible and bare.iterations_used >= 1
        assert all(s.phase_iters == 0 for s in bare.sweeps)
        rates = [r for _, r in report.wsr_trajectory]
        for a, b in zip(rates, rates[1:]):
            assert b >= a - 1e-9
        eff = effective_channels(ch, report.phi, cfg_q)
        assert frob_sq(report.f) <= cfg_q.power_budget * (1 + 1e-6)
        assert (harvested_power_quadratic(report.f, eff.g)
                >= cfg_q.eh_threshold * (1 - 1e-6))

    def test_persistent_precoder_failure_aborts(self, monkeypatch):
        rng = np.random.default_rng(501)
        ch, cfg_q, f0, phi0 = feasible_instance(rng, bench_config(m=5))
        calls = []

        def always_fails(*args, **kwargs):
            calls.append(None)
            raise SolverError("injected precoder failure")

        monkeypatch.setattr(bcd_module, "sca_precoder_solve", always_fails)
        with pytest.raises(SolverError, match="consecutive failed BCD sweeps"):
            bcd_solve(ch, cfg_q, (f0, phi0))
        assert len(calls) == bcd_module.MAX_CONSECUTIVE_FAILURES

    def test_batched_factorization_failure_is_absorbed(self, monkeypatch):
        # a ConditioningError raised by a batched factorization inside a
        # block costs that block one sweep, like any other solver failure
        rng = np.random.default_rng(503)
        ch, cfg_q, f0, phi0 = feasible_instance(rng, bench_config(m=5))
        ill_second = np.stack((np.eye(2), np.diag([1.0, 1e-14]))).astype(complex)
        real = bcd_module.sca_precoder_solve
        raised = []

        def fails_once(*args, **kwargs):
            if not raised:
                try:
                    inverse_logdet_pd(ill_second)
                except ConditioningError as exc:
                    raised.append(exc)
                    raise
                raise AssertionError("the ill-conditioned stack was factored")
            return real(*args, **kwargs)

        monkeypatch.setattr(bcd_module, "sca_precoder_solve", fails_once)
        report = bcd_solve(ch, cfg_q, (f0, phi0))
        assert len(raised) == 1
        assert report.iterations_used >= 2
        rates = [r for _, r in report.wsr_trajectory]
        for a, b in zip(rates, rates[1:]):
            assert b >= a - 1e-9
        assert frob_sq(report.f) <= cfg_q.power_budget * (1 + 1e-6)

    def test_one_channel_build_per_sweep(self, monkeypatch):
        # the precoder block reads the sweep's channels instead of
        # rebuilding them
        rng = np.random.default_rng(502)
        ch, cfg_q, f0, phi0 = feasible_instance(rng, bench_config(m=5))

        def forbidden(*args, **kwargs):
            raise AssertionError("the precoder block rebuilt the channels")

        monkeypatch.setattr("irs_swipt.precoder.effective_channels", forbidden,
                            raising=False)
        builds = count_calls(monkeypatch, bcd_module, "effective_channels")
        report = bcd_solve(ch, cfg_q, (f0, phi0))
        assert report.iterations_used >= 2
        assert len(builds) == report.iterations_used + 1

    @pytest.mark.parametrize("qbar_frac", [0.0, 0.5, 0.9])
    def test_one_channel_build_at_the_starting_phases(self, monkeypatch,
                                                      qbar_frac):
        # feasibility_check builds only the ER side of the channels; the
        # solver builds them in full once at its starting phases, and the
        # start check and the stream spreading read that build
        rng = np.random.default_rng(504)
        cfg = bench_config(m=5)
        ch = random_channels(rng, cfg)
        q_max = feasibility_check(ch, bench_config(m=5, qbar=np.inf))[3]
        cfg_q = bench_config(m=5, qbar=qbar_frac * q_max)
        phi0 = feasibility_check(ch, cfg_q)[2]
        builds = count_calls(monkeypatch, bcd_module, "effective_channels")
        report = solve_with_init(ch, cfg_q, n_max=0)
        assert report.feasible and report.iterations_used == 0
        assert len(builds) == 1
        assert np.array_equal(builds[0][1], phi0)

    @pytest.mark.parametrize("m", [0, 5])
    def test_rank_one_start_is_spread_over_the_streams(self, m):
        # no block moves a precoder column off zero, so without the spread
        # at the start every IR would keep a single stream
        rng = np.random.default_rng(505 + m)
        ch, cfg_q, f0, phi0 = feasible_instance(rng, bench_config(m=m))
        assert np.all(f0[:, :, 1] == 0.0)
        report = bcd_solve(ch, cfg_q, (f0, phi0), n_max=3)
        assert np.all(np.linalg.norm(report.f, axis=1) > 0.0)

    def test_solve_with_init_is_the_solve_from_the_feasibility_point(self):
        for seed in range(4):
            rng = np.random.default_rng(506 + seed)
            cfg = bench_config(m=5)
            ch = random_channels(rng, cfg)
            q_max = feasibility_check(ch, bench_config(m=5, qbar=np.inf))[3]
            cfg_q = bench_config(m=5, qbar=0.5 * q_max)
            ref = bcd_solve(ch, cfg_q, feasibility_check(ch, cfg_q)[1:3])
            out = solve_with_init(ch, cfg_q)
            np.testing.assert_array_equal(out.f, ref.f)
            np.testing.assert_array_equal(out.phi, ref.phi)
            assert ([figures(s) for s in out.sweeps]
                    == [figures(s) for s in ref.sweeps])
            assert out.stop_reason == ref.stop_reason

    @pytest.mark.parametrize("m", [0, 5])
    def test_bcd_sweep_by_hand_is_the_solve(self, m):
        # sweep 0 is the spread start with U, W refreshed; every later
        # record is bcd_sweep of the one before, to the bit
        rng = np.random.default_rng(510 + m)
        ch, cfg_q, f0, phi0 = feasible_instance(rng, bench_config(m=m))
        report = bcd_solve(ch, cfg_q, (f0, phi0))
        assert report.iterations_used >= 2
        eff = effective_channels(ch, phi0, cfg_q)
        f = spread_streams(f0, eff.g, cfg_q)
        u, w, nats = mmse_refresh(f, eff, cfg_q)
        sweep = Sweep(f, phi0, eff, u, w, nats / LN2, frob_sq(f),
                      harvested_power_quadratic(f, eff.g))
        for n, recorded in enumerate(report.sweeps):
            if n:
                sweep = bcd_sweep(sweep, ch, cfg_q)
            assert figures(sweep) == figures(recorded)
            for name in ("f", "phi", "u", "w"):
                assert (getattr(sweep, name).tobytes()
                        == getattr(recorded, name).tobytes())
        assert report.f.tobytes() == sweep.f.tobytes()
        assert report.phi.tobytes() == sweep.phi.tobytes()

    def test_infeasible_start_reports_no_sweeps(self):
        rng = np.random.default_rng(511)
        cfg = bench_config(m=5, qbar=1e12)
        report = solve_with_init(random_channels(rng, cfg), cfg)
        assert not report.feasible and report.sweeps == []
        assert report.wsr_bits == 0.0 and report.iterations_used == 0
        assert report.wsr_trajectory == []
        assert report.stop_reason == "infeasible"
        doc = report.to_dict()
        assert doc["wsr_trajectory"] == [] and doc["iterations_used"] == 0
        assert doc["stop_reason"] == "infeasible"
        for name in ("precoder_inner_iters", "phase_inner_iters",
                     "power_trajectory", "harvest_trajectory"):
            assert doc[name] == []

    def test_stop_reason_is_the_rule_that_ended_the_loop(self):
        # "converged" exactly when the last sweep moved the rate by less
        # than eps relative, "sweep cap" when n_max sweeps ran without that;
        # eps = 0 never stops, eps = inf stops after one sweep
        for seed in range(4):
            rng = np.random.default_rng(520 + seed)
            ch, cfg_q, f0, phi0 = feasible_instance(rng, bench_config(m=5))
            for eps, n_max in ((1e-4, 50), (1e-4, 3), (0.0, 4), (np.inf, 50),
                               (1e-4, 0)):
                report = bcd_solve(ch, cfg_q, (f0, phi0), eps=eps, n_max=n_max)
                rates = [r for _, r in report.wsr_trajectory]
                settled = (len(rates) > 1 and abs(rates[-1] - rates[-2])
                           < eps * max(abs(rates[-1]), 1e-30))
                assert report.stop_reason == ("converged" if settled
                                              else "sweep cap")
                assert settled or report.iterations_used == n_max
                if eps == 0.0 or n_max == 0:
                    assert not settled
                if eps == np.inf:
                    assert report.iterations_used == 1
                assert report.to_dict()["stop_reason"] == report.stop_reason

    def test_no_irs_reduction_matches_precoder_only(self):
        rng = np.random.default_rng(4)
        cfg = bench_config(qbar=0.0)
        ch = random_channels(rng, cfg)
        ch.h_r[:] = 0.0
        ch.g_r[:] = 0.0
        ch.z[:] = 0.0
        feasible, f0, phi0, _ = feasibility_check(ch, cfg)
        full = bcd_solve(ch, cfg, (f0, phi0))
        ch0, cfg0 = surface_free(ch, cfg)
        frozen = bcd_solve(ch0, cfg0, (f0, np.ones(0, complex)))
        assert full.wsr_bits == pytest.approx(frozen.wsr_bits, rel=1e-9)

    def test_fixed_point_blockwise_stationarity(self):
        # moderate SNR so the sweep converges to a fixed point quickly; at
        # high SNR the tail can crawl along a near-degenerate ridge for
        # thousands of sweeps
        rng = np.random.default_rng(10)
        cfg = bench_config(m=4, sigma2=4.0)
        ch, cfg_q, f0, phi0 = feasible_instance(rng, cfg, sigma2=4.0)
        report = bcd_solve(ch, cfg_q, (f0, phi0), eps=1e-10, n_max=400)
        f, phi = report.f, report.phi
        u, w, _ = refresh(f, phi, ch, cfg_q)
        base = report.wsr_bits

        f_re, _ = sca_precoder_solve(u, w, effective_channels(ch, phi, cfg_q),
                                     f, cfg_q)
        _, wsr_f = weighted_sum_rate(f_re, phi, ch, cfg_q)
        assert abs(wsr_f - base) < 1e-6 * max(1.0, base)

        phi_re, _ = phase_solve(u, w, f, ch, phi, cfg_q)
        _, wsr_p = weighted_sum_rate(f, phi_re, ch, cfg_q)
        assert abs(wsr_p - base) < 1e-6 * max(1.0, base)

    def test_rejects_infeasible_init(self):
        rng = np.random.default_rng(6)
        cfg = bench_config(qbar=0.0)
        ch = random_channels(rng, cfg)
        f = random_precoders(rng, cfg, power=4.0 * cfg.power_budget)
        phi = unit_phases(rng, cfg.n_elements)
        with pytest.raises(ValueError):
            bcd_solve(ch, cfg, (f, phi))

    @pytest.mark.parametrize("scale", [2.0, 0.0])
    @pytest.mark.parametrize("m", [0, 5])
    def test_infeasible_sweep_is_rejected(self, monkeypatch, m, scale):
        # a precoder step that leaves the feasible set (over the budget or
        # below the harvest threshold) must not come back as a feasible
        # report: the check on the sweep record catches it even when no
        # later block reads the precoders
        rng = np.random.default_rng(512 + m)
        ch, cfg_q, f0, phi0 = feasible_instance(rng, bench_config(m=m))
        real = bcd_module.sca_precoder_solve

        def faulty(*args):
            f, traj = real(*args)
            return scale * f, traj

        monkeypatch.setattr(bcd_module, "sca_precoder_solve", faulty)
        with pytest.raises(ValueError, match="BCD iterate"):
            bcd_solve(ch, cfg_q, (f0, phi0), n_max=1)

    def test_single_user_reaches_waterfilling_capacity(self):
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            cfg = bench_config(n_bs=4, n_ir=2, d=2, k_i=1, m=4, qbar=0.0)
            ch = random_channels(rng, cfg)
            feasible, f0, phi0, _ = feasibility_check(ch, cfg)
            report = bcd_solve(ch, cfg, (f0, phi0), eps=1e-8, n_max=300)
            eff = effective_channels(ch, report.phi, cfg)
            cap_nats = waterfill_capacity(eff.hbar[0], cfg.noise_power_ir,
                                          cfg.power_budget)
            nats, _ = weighted_sum_rate(report.f, report.phi, ch, cfg)
            assert nats >= 0.98 * cap_nats
            assert nats <= cap_nats * (1.0 + 1e-6)
