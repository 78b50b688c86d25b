import numpy as np
import pytest

import irs_swipt.feasibility as feasibility
from irs_swipt import (effective_channels, feasibility_check,
                       harvested_power_quadratic)
from irs_swipt.feasibility import (eh_phase_weights, energy_precoder,
                                   max_eh_beam, max_eh_phase_step,
                                   spread_streams)
from irs_swipt.linalg import frob_sq, herm, unit_phase
from irs_swipt.phase import assemble_phase_qcqp

from helpers import bench_config, count_calls, crandn, dense_form, \
    feasibility_check_loop, feasibility_check_plain, harvest_gradient_fd, \
    plain_driver, random_channels, random_precoders, unit_phases, wmmse_state


def unit_beam(rng, cfg):
    """A random unit vector of length N_B."""
    b = crandn(rng, cfg.n_bs_antennas)
    return b / np.linalg.norm(b)


class TestMaxEhPrecoder:
    def test_isotropic_harvest_matrix(self):
        cfg = bench_config()
        c = 0.37
        g = c * np.eye(cfg.n_bs_antennas, dtype=complex)
        _, q = max_eh_beam(g, cfg)
        assert q == pytest.approx(c * cfg.power_budget, rel=1e-12)

    def test_beats_random_precoders(self):
        rng = np.random.default_rng(0)
        cfg = bench_config()
        x = crandn(rng, cfg.n_bs_antennas, cfg.n_bs_antennas)
        g = x @ herm(x)
        b, q_star = max_eh_beam(g, cfg)
        f_star = energy_precoder(b, cfg)
        assert q_star == pytest.approx(harvested_power_quadratic(f_star, g),
                                       rel=1e-9)
        for _ in range(10000):
            f = random_precoders(rng, cfg)
            assert harvested_power_quadratic(f, g) <= q_star * (1.0 + 1e-12)

    def test_uses_exact_power(self):
        rng = np.random.default_rng(1)
        cfg = bench_config()
        x = crandn(rng, cfg.n_bs_antennas, cfg.n_bs_antennas)
        f = energy_precoder(max_eh_beam(x @ herm(x), cfg)[0], cfg)
        assert np.sum(np.abs(f) ** 2) == pytest.approx(cfg.power_budget,
                                                       rel=1e-12)
        # all power on the first stream column
        assert np.max(np.abs(f[:, :, 1:])) == 0.0


class TestMaxEhPhaseStep:
    def test_aligns_with_harvest_gradient(self):
        rng = np.random.default_rng(2)
        cfg = bench_config(eh_weights=(0.4, 1.9))
        for _ in range(5):
            b = unit_beam(rng, cfg)
            ch, anchor, f, u, w = wmmse_state(rng, cfg,
                                              f=energy_precoder(b, cfg))
            step = max_eh_phase_step(
                b, effective_channels(ch, anchor, cfg).gbar, ch.z,
                eh_phase_weights(ch, cfg))
            oracle = harvest_gradient_fd(f, anchor, ch, cfg)
            data = assemble_phase_qcqp(u, w, f, ch, cfg)
            dense = data.g.conj() + dense_form(data.upsilon_factor) @ anchor
            np.testing.assert_allclose(oracle, dense, rtol=1e-8,
                                       atol=1e-8 * np.max(np.abs(dense)))
            np.testing.assert_allclose(step, unit_phase(oracle), atol=1e-7)
            np.testing.assert_allclose(step, unit_phase(dense), atol=1e-12)

    def test_ascent_property(self):
        rng = np.random.default_rng(3)
        cfg = bench_config()
        for _ in range(20):
            ch = random_channels(rng, cfg)
            b = unit_beam(rng, cfg)
            f = energy_precoder(b, cfg)
            anchor = unit_phases(rng, cfg.n_elements)
            eff = effective_channels(ch, anchor, cfg)
            phi = max_eh_phase_step(b, eff.gbar, ch.z,
                                    eh_phase_weights(ch, cfg))
            after = effective_channels(ch, phi, cfg)
            assert (harvested_power_quadratic(f, after.g)
                    >= harvested_power_quadratic(f, eff.g) - 1e-10)

    def test_zero_gradient_entry_maps_to_one(self):
        rng = np.random.default_rng(4)
        cfg = bench_config(m=3)
        ch = random_channels(rng, cfg)
        ch.g_r[:, :, 1] = 0.0
        b = unit_beam(rng, cfg)
        anchor = unit_phases(rng, 3)
        phi = max_eh_phase_step(b, effective_channels(ch, anchor, cfg).gbar,
                                ch.z, eh_phase_weights(ch, cfg))
        assert phi[1] == 1.0 + 0j


class TestFeasibilityCheck:
    def test_zero_threshold_immediately_feasible(self):
        rng = np.random.default_rng(5)
        cfg = bench_config(qbar=0.0)
        ch = random_channels(rng, cfg)
        feasible, f, phi, q = feasibility_check(ch, cfg)
        assert feasible
        assert q >= 0.0
        assert np.sum(np.abs(f) ** 2) == pytest.approx(cfg.power_budget,
                                                       rel=1e-9)

    def test_impossible_threshold_infeasible(self):
        rng = np.random.default_rng(6)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        # crude upper bound on the harvest: full power through the total
        # channel energy, all efficiency and weights
        energy = (np.linalg.norm(ch.g_b) ** 2 + np.linalg.norm(ch.g_r) ** 2
                  + np.linalg.norm(ch.z) ** 2 + 1.0) ** 2
        cfg_hard = bench_config(qbar=10.0 * cfg.power_budget * energy)
        feasible, _, _, q = feasibility_check(ch, cfg_hard)
        assert not feasible
        assert q < cfg_hard.eh_threshold

    def test_alternation_is_monotone(self):
        rng = np.random.default_rng(7)
        cfg = bench_config(qbar=np.inf)  # never early-exits
        with np.errstate(invalid="ignore"):
            for _ in range(5):
                ch = random_channels(rng, cfg)
                phi = np.ones(cfg.n_elements, dtype=complex)
                eff = effective_channels(ch, phi, cfg)
                w_r = eh_phase_weights(ch, cfg)
                b, q = max_eh_beam(eff.g, cfg)
                values = [q]
                for _ in range(15):
                    phi = max_eh_phase_step(b, eff.gbar, ch.z, w_r)
                    eff = effective_channels(ch, phi, cfg)
                    b, q = max_eh_beam(eff.g, cfg)
                    values.append(q)
                for a, b in zip(values, values[1:]):
                    assert b >= a - 1e-10 * max(1.0, a)

    def test_feasible_point_satisfies_both_constraints(self):
        rng = np.random.default_rng(8)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        # pick a threshold known to be reachable: half the first-step value
        phi0 = np.ones(cfg.n_elements, dtype=complex)
        _, q0 = max_eh_beam(effective_channels(ch, phi0, cfg).g, cfg)
        cfg_q = bench_config(qbar=0.5 * q0)
        feasible, f, phi, q = feasibility_check(ch, cfg_q)
        assert feasible
        eff = effective_channels(ch, phi, cfg_q)
        assert np.sum(np.abs(f) ** 2) <= cfg_q.power_budget * (1 + 1e-9)
        assert harvested_power_quadratic(f, eff.g) >= cfg_q.eh_threshold

    def test_without_elements_single_precoder_step_decides(self):
        rng = np.random.default_rng(9)
        cfg = bench_config(m=0, qbar=0.0)
        ch = random_channels(rng, cfg)
        feasible, f, phi, q = feasibility_check(ch, cfg)
        assert feasible
        assert phi.shape == (0,)
        eff = effective_channels(ch, phi, cfg)
        _, q_direct = max_eh_beam(eff.g, cfg)
        assert q == pytest.approx(q_direct, rel=1e-12)


class TestMatchesPerStepBuild:
    """feasibility_check against the alternation that builds the full
    effective channels, with G summed one ER at a time, on every step."""

    @pytest.mark.parametrize("m", [0, 1, 37])
    @pytest.mark.parametrize("eh_weights", [(1.3,), (0.4, 1.9, 0.7)])
    @pytest.mark.parametrize("threshold", ["zero", "reachable", "unreachable"])
    def test_outputs_equal_to_the_bit(self, m, eh_weights, threshold):
        rng = np.random.default_rng(100 * m + len(eh_weights))
        base = bench_config(m=m, k_e=len(eh_weights), eh_weights=eh_weights)
        for _ in range(4):
            ch = random_channels(rng, base)
            q_first = feasibility_check_loop(ch, base)[3]   # qbar = 0: no step
            q_best = feasibility_check_loop(
                ch, bench_config(m=m, k_e=len(eh_weights),
                                 eh_weights=eh_weights, qbar=np.inf))[3]
            qbar = {"zero": 0.0, "reachable": 0.5 * (q_first + q_best),
                    "unreachable": 10.0 * q_best}[threshold]
            cfg = bench_config(m=m, k_e=len(eh_weights),
                               eh_weights=eh_weights, qbar=qbar)
            ref = feasibility_check_loop(ch, cfg)
            out = feasibility_check(ch, cfg)
            assert len(out) == 4
            assert out[0] == ref[0] and out[3] == ref[3]
            np.testing.assert_array_equal(out[1], ref[1])
            np.testing.assert_array_equal(out[2], ref[2])

    def test_one_phase_step_between_two_precoder_steps(self, monkeypatch):
        # feasibility.py imports no full channel build, so every step builds
        # only the ER composites
        assert not hasattr(feasibility, "effective_channels")
        # ... and beyond that, each map, plain or extrapolated, kept or
        # refused, is one phase step and one beamforming step
        steps = count_calls(monkeypatch, feasibility, "max_eh_phase_step")
        beams = count_calls(monkeypatch, feasibility, "max_eh_beam")
        momentum, extrapolations = feasibility._momentum, []

        def counted(mapped, extrapolated, x, budget):
            def counted_extrapolated(*args):
                extrapolations.append(args)
                return extrapolated(*args)
            return momentum(mapped, counted_extrapolated, x, budget)

        monkeypatch.setattr(feasibility, "_momentum", counted)
        rng = np.random.default_rng(11)
        cfg = bench_config(m=37, qbar=np.inf)
        feasibility_check(random_channels(rng, cfg), cfg)
        assert len(steps) >= 2
        assert len(extrapolations) >= 1
        assert len(beams) == len(steps) + 1


class TestReturnedPoint:
    """The rank-one F that feasibility_check fills once, at the returned
    point, from the best beam."""

    @pytest.mark.parametrize("m", [0, 1, 37])
    @pytest.mark.parametrize("k_e", [1, 3])
    @pytest.mark.parametrize("threshold", ["zero", "reachable", "unreachable"])
    def test_harvest_power_and_rank_of_the_returned_precoder(
            self, monkeypatch, m, k_e, threshold):
        kw = dict(m=m, k_e=k_e, eh_weights=(1.3, 0.4, 1.9)[:k_e])
        rng = np.random.default_rng(1400 + 10 * m + k_e)
        fills = count_calls(monkeypatch, feasibility, "energy_precoder")
        for _ in range(4):
            ch = random_channels(rng, bench_config(**kw))
            q_first = feasibility_check(ch, bench_config(**kw))[3]
            q_best = feasibility_check(ch, bench_config(qbar=np.inf, **kw))[3]
            qbar = {"zero": 0.0, "reachable": 0.5 * (q_first + q_best),
                    "unreachable": 10.0 * q_best}[threshold]
            cfg = bench_config(qbar=qbar, **kw)
            fills.clear()
            feasible, f, phi, q = feasibility_check(ch, cfg)
            assert len(fills) == 1
            assert feasible == (threshold != "unreachable")
            g = effective_channels(ch, phi, cfg).g
            assert harvested_power_quadratic(f, g) == pytest.approx(
                q, rel=1e-12)
            assert frob_sq(f) == pytest.approx(cfg.power_budget, rel=1e-12)
            assert np.all(f[:, :, 1:] == 0.0)
            assert np.all(np.linalg.norm(f[:, :, 0], axis=1) > 0.0)


class TestAcceleration:
    """The momentum-accelerated alternation against the plain loop."""

    WEIGHTS = {1: (1.3,), 3: (0.4, 1.9, 0.7)}

    @pytest.mark.parametrize("m", [1, 6, 37])
    @pytest.mark.parametrize("k_e", [1, 3])
    def test_no_lower_harvest_in_fewer_steps(self, monkeypatch, m, k_e):
        cfg = bench_config(m=m, k_e=k_e, eh_weights=self.WEIGHTS[k_e],
                           qbar=np.inf)
        # The two loops stop on the same per-step stall but not at the same
        # point, and now and then on different stationary points: 12 of
        # 1,200 draws of this grid (seeds 5000-5199) ended more than 1e-8
        # below.
        steps = count_calls(monkeypatch, feasibility, "max_eh_phase_step")
        n_fast = n_plain = 0
        q_fast, q_plain = [], []
        for seed in range(8):
            ch = random_channels(np.random.default_rng(1200 + seed), cfg)
            steps.clear()
            q_fast.append(feasibility_check(ch, cfg)[3])
            n_fast += len(steps)
            q_plain.append(feasibility_check_plain(ch, cfg)[3])
            # with a plain driver the check is the plain loop
            with monkeypatch.context() as plain:
                plain.setattr(feasibility, "_momentum", plain_driver)
                steps.clear()
                assert feasibility_check(ch, cfg)[3] == q_plain[-1]
                n_plain += len(steps)
        below = np.array(q_fast) < np.array(q_plain) * (1.0 - 1e-8)
        assert np.sum(below) <= 1
        assert sum(q_fast) >= sum(q_plain) * (1.0 - 1e-8)
        if m == 37:
            assert n_fast <= n_plain / 2

    @pytest.mark.parametrize("m", [1, 6, 37])
    @pytest.mark.parametrize("k_e", [1, 3])
    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_two_step_exits_equal_the_plain_loop(self, m, k_e, n_steps):
        # a threshold at the plain loop's best within n_steps steps is
        # reached there, before any extrapolation
        kw = dict(m=m, k_e=k_e, eh_weights=self.WEIGHTS[k_e])
        for seed in range(8):
            ch = random_channels(np.random.default_rng(1300 + seed),
                                 bench_config(**kw))
            qbar = feasibility_check_plain(ch, bench_config(qbar=np.inf, **kw),
                                           max_iter=n_steps)[3]
            cfg = bench_config(qbar=qbar, **kw)
            ref = feasibility_check_plain(ch, cfg)
            out = feasibility_check(ch, cfg)
            assert out[0] and ref[0]
            assert out[3] == ref[3]
            np.testing.assert_array_equal(out[1], ref[1])
            np.testing.assert_array_equal(out[2], ref[2])


class TestSpreadStreams:
    """spread_streams on the energy-beamforming precoder and on others."""

    def rank_one_start(self, seed, qbar_frac, **kw):
        """feasibility_check's rank-one F, its harvest matrix G at the
        returned phases, and a config whose threshold is qbar_frac times
        the harvest of that F."""
        rng = np.random.default_rng(seed)
        cfg = bench_config(**kw)
        ch = random_channels(rng, cfg)
        _, f, phi, _ = feasibility_check(ch, cfg)
        g = effective_channels(ch, phi, cfg).g
        q = harvested_power_quadratic(f, g)
        return f, g, bench_config(qbar=qbar_frac * q, **kw)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("qbar_frac", [0.0, 0.5, 0.9, 1.0])
    def test_keeps_the_power_and_the_harvest(self, d, qbar_frac):
        for seed in range(8):
            f, g, cfg = self.rank_one_start(900 + seed, qbar_frac, d=d, n_ir=d)
            out = spread_streams(f, g, cfg)
            assert abs(frob_sq(out) - frob_sq(f)) <= 1e-12 * frob_sq(f)
            assert harvested_power_quadratic(out, g) >= cfg.eh_threshold

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("qbar_frac", [0.0, 0.5])
    def test_fills_every_zero_column_when_a_mix_is_feasible(self, d,
                                                            qbar_frac):
        for seed in range(8):
            f, g, cfg = self.rank_one_start(910 + seed, qbar_frac, d=d, n_ir=d)
            assert np.all(np.linalg.norm(f[:, :, 1:], axis=1) == 0.0)
            out = spread_streams(f, g, cfg)
            assert np.all(np.linalg.norm(out, axis=1) > 0.0)

    def test_no_feasible_mix_keeps_the_input(self):
        # at a threshold equal to the rank-one harvest every mix harvests less
        for seed in range(8):
            f, g, cfg = self.rank_one_start(920 + seed, 1.0)
            assert harvested_power_quadratic(f, g) >= cfg.eh_threshold
            np.testing.assert_array_equal(spread_streams(f, g, cfg), f)

    @pytest.mark.parametrize("qbar_frac", [0.0, 0.5])
    def test_input_without_a_zero_column_comes_back_unchanged(self,
                                                             qbar_frac):
        # a single stream has nothing to fill; a random F no zero column
        rng = np.random.default_rng(930)
        for seed in range(8):
            f, g, cfg = self.rank_one_start(930 + seed, qbar_frac, d=1)
            np.testing.assert_array_equal(spread_streams(f, g, cfg), f)
            _, g, cfg = self.rank_one_start(940 + seed, qbar_frac)
            f = random_precoders(rng, cfg)
            np.testing.assert_array_equal(spread_streams(f, g, cfg), f)
