import numpy as np
import pytest

from irs_swipt import (SystemConfig, effective_channels, harvested_power,
                       harvested_power_quadratic, user_rate, weighted_sum_rate)
from irs_swipt.linalg import herm
from irs_swipt.metrics import LN2, mse_matrix, wmmse_objective
from irs_swipt.scenario import ChannelSet

from helpers import (bench_config, crandn, effective_channel_direct,
                     effective_channels_loop, harvest_direct, random_channels,
                     random_precoders, unit_phases, wmmse_state, wsr_direct,
                     wsr_gradient)


def scalar_setup(h=1.0, p=4.0, sigma2=1.0):
    """Single-antenna single-user system with a real scalar channel."""
    cfg = SystemConfig(n_bs_antennas=1, n_ir_antennas=1, n_er_antennas=1,
                       n_irs=1, n_ers=1, n_streams=1, n_elements=0,
                       noise_power_ir=sigma2,
                       power_budget=p)
    ch = ChannelSet(z=np.zeros((0, 1), dtype=complex),
                    h_b=np.full((1, 1, 1), h, dtype=complex),
                    h_r=np.zeros((1, 1, 0), dtype=complex),
                    g_b=np.ones((1, 1, 1), dtype=complex),
                    g_r=np.zeros((1, 1, 0), dtype=complex))
    f = np.full((1, 1, 1), np.sqrt(p), dtype=complex)
    return cfg, ch, f, np.zeros(0, dtype=complex)


class TestEffectiveChannels:
    def test_no_reflection_gives_direct(self):
        rng = np.random.default_rng(0)
        cfg = bench_config(m=5)
        ch = random_channels(rng, cfg)
        ch.h_r[:] = 0.0
        ch.g_r[:] = 0.0
        eff = effective_channels(ch, unit_phases(rng, 5), cfg)
        np.testing.assert_allclose(eff.hbar, ch.h_b)
        np.testing.assert_allclose(eff.gbar, ch.g_b)

    def test_matches_explicit_diagonal_product(self):
        rng = np.random.default_rng(1)
        cfg = bench_config(m=7)
        ch = random_channels(rng, cfg)
        phi = unit_phases(rng, 7)
        eff = effective_channels(ch, phi, cfg)
        for k in range(cfg.n_irs):
            direct = effective_channel_direct(ch.h_b[k], ch.h_r[k], phi, ch.z)
            assert np.max(np.abs(eff.hbar[k] - direct)) < 1e-12
        for el in range(cfg.n_ers):
            direct = effective_channel_direct(ch.g_b[el], ch.g_r[el], phi, ch.z)
            assert np.max(np.abs(eff.gbar[el] - direct)) < 1e-12

    def test_harvest_matrix_is_hermitian_psd(self):
        rng = np.random.default_rng(2)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        eff = effective_channels(ch, unit_phases(rng, cfg.n_elements), cfg)
        assert np.max(np.abs(eff.g - herm(eff.g))) < 1e-12
        assert np.linalg.eigvalsh(eff.g)[0] > -1e-10


    @pytest.mark.parametrize("m", [0, 1, 37])
    @pytest.mark.parametrize("eh_weights", [(1.3,), (0.4, 1.9, 0.7)])
    def test_batched_harvest_matrix_equals_per_er_loop(self, m, eh_weights):
        rng = np.random.default_rng(10 * m + len(eh_weights))
        cfg = bench_config(m=m, k_e=len(eh_weights), eh_weights=eh_weights)
        for _ in range(5):
            ch = random_channels(rng, cfg)
            phi = unit_phases(rng, m)
            eff = effective_channels(ch, phi, cfg)
            ref = effective_channels_loop(ch, phi, cfg)
            np.testing.assert_array_equal(eff.g, ref.g)
            np.testing.assert_array_equal(eff.gbar, ref.gbar)
            np.testing.assert_array_equal(eff.hbar, ref.hbar)


class TestUserRate:
    def test_zero_precoder_zero_rate(self):
        rng = np.random.default_rng(3)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        f = random_precoders(rng, cfg)
        f[0] = 0.0
        eff = effective_channels(ch, unit_phases(rng, cfg.n_elements), cfg)
        assert user_rate(0, f, eff, cfg.noise_power_ir) == 0.0

    def test_scalar_shannon(self):
        p = 4.0
        cfg, ch, f, phi = scalar_setup(p=p)
        eff = effective_channels(ch, phi, cfg)
        assert user_rate(0, f, eff, 1.0) == pytest.approx(np.log(1.0 + p))

    def test_determinant_ratio_identity(self):
        rng = np.random.default_rng(4)
        cfg = bench_config()
        ch, phi, f, _, _ = wmmse_state(rng, cfg)
        nats, _ = weighted_sum_rate(f, phi, ch, cfg)
        assert abs(nats - wsr_direct(f, phi, ch, cfg)) < 1e-10

    def test_rejects_nonpositive_noise(self):
        rng = np.random.default_rng(5)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        eff = effective_channels(ch, unit_phases(rng, cfg.n_elements), cfg)
        with pytest.raises(ValueError):
            user_rate(0, random_precoders(rng, cfg), eff, 0.0)

    def test_independent_of_phases_without_reflection(self):
        rng = np.random.default_rng(6)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        ch.h_r[:] = 0.0
        f = random_precoders(rng, cfg)
        r1 = weighted_sum_rate(f, unit_phases(rng, cfg.n_elements), ch, cfg)
        r2 = weighted_sum_rate(f, unit_phases(rng, cfg.n_elements), ch, cfg)
        assert r1 == r2


class TestWeightedSumRate:
    def test_zero_precoders(self):
        rng = np.random.default_rng(7)
        cfg = bench_config()
        ch = random_channels(rng, cfg)
        f = np.zeros((cfg.n_irs, cfg.n_bs_antennas, cfg.n_streams), complex)
        assert weighted_sum_rate(f, unit_phases(rng, cfg.n_elements),
                                 ch, cfg) == (0.0, 0.0)

    def test_weight_linearity_single_user(self):
        rng = np.random.default_rng(8)
        cfg = bench_config(k_i=1, rate_weights=(2.0,))
        ch, phi, f, _, _ = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        nats, _ = weighted_sum_rate(f, phi, ch, cfg)
        assert nats == pytest.approx(
            2.0 * user_rate(0, f, eff, cfg.noise_power_ir), rel=1e-12)

    def test_bit_conversion(self):
        rng = np.random.default_rng(9)
        cfg = bench_config()
        ch, phi, f, _, _ = wmmse_state(rng, cfg)
        nats, bits = weighted_sum_rate(f, phi, ch, cfg)
        assert abs(bits * LN2 - nats) < 1e-12


class TestHarvestedPower:
    def test_zero_and_linearity_in_efficiency(self):
        rng = np.random.default_rng(10)
        cfg = bench_config(eta=0.8)
        cfg_half = bench_config(eta=0.4)
        ch = random_channels(rng, cfg)
        phi = unit_phases(rng, cfg.n_elements)
        f = random_precoders(rng, cfg)
        zeros = np.zeros_like(f)
        eff = effective_channels(ch, phi, cfg)
        _, q0 = harvested_power(zeros, eff, cfg)
        assert q0 == 0.0
        _, q_full = harvested_power(f, eff, cfg)
        eff_half = effective_channels(ch, phi, cfg_half)
        _, q_half = harvested_power(f, eff_half, cfg_half)
        assert q_half == pytest.approx(0.5 * q_full, rel=1e-12)

    def test_both_forms_agree(self):
        rng = np.random.default_rng(11)
        cfg = bench_config(eh_weights=(0.5, 2.0))
        ch, phi, f, _, _ = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        per_er, weighted = harvested_power(f, eff, cfg)
        assert np.all(per_er >= 0.0)
        assert abs(weighted - harvested_power_quadratic(f, eff.g)) < 1e-10
        assert weighted == pytest.approx(harvest_direct(f, phi, ch, cfg),
                                         rel=1e-12)
        for el in range(cfg.n_ers):
            gbar = effective_channel_direct(ch.g_b[el], ch.g_r[el], phi, ch.z)
            q_l = cfg.eh_efficiency * sum(np.linalg.norm(gbar @ f[k]) ** 2
                                          for k in range(cfg.n_irs))
            assert per_er[el] == pytest.approx(q_l, rel=1e-12)


class TestMseMatrix:
    def test_zero_decoder_gives_identity(self):
        rng = np.random.default_rng(12)
        cfg = bench_config()
        ch, phi, f, u, _ = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        e = mse_matrix(0, f, np.zeros_like(u), eff, cfg.noise_power_ir)
        np.testing.assert_allclose(e, np.eye(cfg.n_streams), atol=1e-14)

    def test_optimal_decoder_matches_closed_form(self):
        # with the MMSE decoder, E_k = I - F^H Hbar^H (sum HFF^H H^H + s2 I)^-1 Hbar F
        rng = np.random.default_rng(13)
        cfg = bench_config()
        ch, phi, f, u, _ = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        for k in range(cfg.n_irs):
            hbar = eff.hbar[k]
            cov = cfg.noise_power_ir * np.eye(cfg.n_ir_antennas, dtype=complex)
            for m in range(cfg.n_irs):
                hf = hbar @ f[m]
                cov += hf @ herm(hf)
            hf_k = hbar @ f[k]
            closed = (np.eye(cfg.n_streams, dtype=complex)
                      - herm(hf_k) @ np.linalg.solve(cov, hf_k))
            e = mse_matrix(k, f, u, eff, cfg.noise_power_ir)
            assert np.max(np.abs(e - closed)) < 1e-10

    def test_hermitian_residual(self):
        rng = np.random.default_rng(14)
        cfg = bench_config()
        ch, phi, f, _, _ = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        u = crandn(rng, cfg.n_irs, cfg.n_ir_antennas, cfg.n_streams)
        e = mse_matrix(1, f, u, eff, cfg.noise_power_ir)
        assert np.max(np.abs(e - herm(e))) < 1e-12


class TestWmmseObjective:
    def test_identity_weights(self):
        rng = np.random.default_rng(15)
        cfg = bench_config()
        ch, phi, f, u, _ = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        eye = np.tile(np.eye(cfg.n_streams, dtype=complex), (cfg.n_irs, 1, 1))
        h = wmmse_objective(eye, u, f, phi, ch, cfg)
        expect = sum(
            cfg.rate_weights[k] * (cfg.n_streams - np.real(np.trace(
                mse_matrix(k, f, u, eff, cfg.noise_power_ir))))
            for k in range(cfg.n_irs))
        assert h == pytest.approx(expect, rel=1e-12)

    def test_equals_rate_at_optimal_aux(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            cfg = bench_config()
            ch, phi, f, u, w = wmmse_state(rng, cfg)
            nats, _ = weighted_sum_rate(f, phi, ch, cfg)
            h = wmmse_objective(w, u, f, phi, ch, cfg)
            assert abs(h - nats) < 1e-8 * (1.0 + nats)

    def test_perturbing_weights_decreases_objective(self):
        rng = np.random.default_rng(16)
        cfg = bench_config()
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        h_star = wmmse_objective(w, u, f, phi, ch, cfg)
        for _ in range(10):
            w_pert = w.copy()
            delta = crandn(rng, cfg.n_streams, cfg.n_streams, scale=0.1)
            w_pert[0] = w_pert[0] + delta @ herm(delta) + 0.05 * np.eye(cfg.n_streams)
            assert wmmse_objective(w_pert, u, f, phi, ch, cfg) < h_star

    def test_rejects_singular_weights(self):
        rng = np.random.default_rng(17)
        cfg = bench_config()
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        w_bad = w.copy()
        w_bad[0] = 0.0
        with pytest.raises(ValueError):
            wmmse_objective(w_bad, u, f, phi, ch, cfg)


class TestRateGradient:
    def test_finite_difference_matches_analytic(self):
        rng = np.random.default_rng(18)
        cfg = bench_config(n_bs=3, n_ir=2, d=1, k_i=2, m=4)
        ch, phi, f, _, _ = wmmse_state(rng, cfg)
        grad = wsr_gradient(f, phi, ch, cfg)
        h = 1e-6

        def wsr_at(fx):
            return weighted_sum_rate(fx, phi, ch, cfg)[0]

        fd = np.zeros_like(f)
        for idx in np.ndindex(f.shape):
            for direction, unit in ((1.0, 1.0), (1j, 1j)):
                fp, fm = f.copy(), f.copy()
                fp[idx] += h * unit
                fm[idx] -= h * unit
                partial = (wsr_at(fp) - wsr_at(fm)) / (2.0 * h)
                if direction == 1.0:
                    fd[idx] += 0.5 * partial
                else:
                    fd[idx] += 0.5j * partial
        # fd now approximates the conjugate gradient (real + j imag halves)
        assert (np.linalg.norm(fd - grad)
                < 1e-5 * max(1.0, np.linalg.norm(grad)))
