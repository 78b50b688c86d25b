import numpy as np
import pytest

import irs_swipt.feasibility as feasibility
from irs_swipt import (effective_channels, feasibility_check,
                       harvested_power_quadratic)
from irs_swipt.feasibility import max_eh_phase_step, max_eh_precoder
from irs_swipt.linalg import herm, unit_phase
from irs_swipt.phase import assemble_phase_qcqp

from helpers import bench_config, count_calls, crandn, dense_form, \
    feasibility_check_loop, harvest_gradient_fd, random_channels, \
    random_precoders, unit_phases, wmmse_state


def eh_scale(cfg):
    """Per-ER harvest factors alpha_l * eta."""
    return cfg.eh_efficiency * np.asarray(cfg.eh_weights)


class TestMaxEhPrecoder:
    def test_isotropic_harvest_matrix(self):
        cfg = bench_config()
        c = 0.37
        g = c * np.eye(cfg.n_bs_antennas, dtype=complex)
        f, q = max_eh_precoder(g, cfg)
        assert q == pytest.approx(c * cfg.power_budget, rel=1e-12)

    def test_beats_random_precoders(self):
        rng = np.random.default_rng(0)
        cfg = bench_config()
        x = crandn(rng, cfg.n_bs_antennas, cfg.n_bs_antennas)
        g = x @ herm(x)
        f_star, q_star = max_eh_precoder(g, cfg)
        assert q_star == pytest.approx(harvested_power_quadratic(f_star, g),
                                       rel=1e-9)
        for _ in range(10000):
            f = random_precoders(rng, cfg)
            assert harvested_power_quadratic(f, g) <= q_star * (1.0 + 1e-12)

    def test_uses_exact_power(self):
        rng = np.random.default_rng(1)
        cfg = bench_config()
        x = crandn(rng, cfg.n_bs_antennas, cfg.n_bs_antennas)
        f, _ = max_eh_precoder(x @ herm(x), cfg)
        assert np.sum(np.abs(f) ** 2) == pytest.approx(cfg.power_budget,
                                                       rel=1e-12)
        # all power on the first stream column
        assert np.max(np.abs(f[:, :, 1:])) == 0.0


class TestMaxEhPhaseStep:
    def test_aligns_with_harvest_gradient(self):
        rng = np.random.default_rng(2)
        cfg = bench_config(eh_weights=(0.4, 1.9))
        for _ in range(5):
            ch, anchor, f, u, w = wmmse_state(rng, cfg)
            step = max_eh_phase_step(
                f, effective_channels(ch, anchor, cfg).gbar, ch.z,
                ch.g_r.conj(), eh_scale(cfg))
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
            f = random_precoders(rng, cfg)
            anchor = unit_phases(rng, cfg.n_elements)
            eff = effective_channels(ch, anchor, cfg)
            phi = max_eh_phase_step(f, eff.gbar, ch.z, ch.g_r.conj(),
                                    eh_scale(cfg))
            after = effective_channels(ch, phi, cfg)
            assert (harvested_power_quadratic(f, after.g)
                    >= harvested_power_quadratic(f, eff.g) - 1e-10)

    def test_zero_gradient_entry_maps_to_one(self):
        rng = np.random.default_rng(4)
        cfg = bench_config(m=3)
        ch = random_channels(rng, cfg)
        ch.g_r[:, :, 1] = 0.0
        f = random_precoders(rng, cfg)
        anchor = unit_phases(rng, 3)
        phi = max_eh_phase_step(f, effective_channels(ch, anchor, cfg).gbar,
                                ch.z, ch.g_r.conj(), eh_scale(cfg))
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
                f, q = max_eh_precoder(eff.g, cfg)
                values = [q]
                for _ in range(15):
                    phi = max_eh_phase_step(f, eff.gbar, ch.z, ch.g_r.conj(),
                                            eh_scale(cfg))
                    eff = effective_channels(ch, phi, cfg)
                    f, q = max_eh_precoder(eff.g, cfg)
                    values.append(q)
                for a, b in zip(values, values[1:]):
                    assert b >= a - 1e-10 * max(1.0, a)

    def test_feasible_point_satisfies_both_constraints(self):
        rng = np.random.default_rng(8)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        # pick a threshold known to be reachable: half the first-step value
        phi0 = np.ones(cfg.n_elements, dtype=complex)
        _, q0 = max_eh_precoder(effective_channels(ch, phi0, cfg).g, cfg)
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
        _, q_direct = max_eh_precoder(eff.g, cfg)
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
            out = feasibility_check(ch, cfg, return_channels=True)
            assert out[0] == ref[0]
            np.testing.assert_array_equal(out[1], ref[1])
            np.testing.assert_array_equal(out[2], ref[2])
            assert out[3] == ref[3]
            for name in ("hbar", "gbar", "g"):
                np.testing.assert_array_equal(getattr(out[4], name),
                                              getattr(ref[4], name))
            short = feasibility_check(ch, cfg)
            assert len(short) == 4
            assert short[0] == ref[0] and short[3] == ref[3]
            np.testing.assert_array_equal(short[1], ref[1])
            np.testing.assert_array_equal(short[2], ref[2])

    @pytest.mark.parametrize("return_channels", [False, True])
    def test_full_channel_build_only_at_the_returned_phases(
            self, monkeypatch, return_channels):
        builds = count_calls(monkeypatch, feasibility, "effective_channels")
        steps = count_calls(monkeypatch, feasibility, "max_eh_phase_step")
        precoders = count_calls(monkeypatch, feasibility, "max_eh_precoder")
        rng = np.random.default_rng(11)
        cfg = bench_config(m=37, qbar=np.inf)
        out = feasibility_check(random_channels(rng, cfg), cfg,
                                return_channels=return_channels)
        # one phase step per alternation step, between two precoder steps
        assert len(steps) >= 2
        assert len(steps) == len(precoders) - 1
        if return_channels:
            assert len(builds) == 1
            assert builds[0][1] is out[2]
        else:
            assert builds == []
