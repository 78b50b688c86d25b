import json

import numpy as np
import pytest

from irs_swipt import (Geometry, SystemConfig, generate_scenario,
                       load_scenario, path_loss_linear, weighted_sum_rate)
from irs_swipt.harness import derive_seed
from irs_swipt.scenario import EXPONENT_FIELDS, ChannelSet, steering_vector

from helpers import (generate_scenario_loops, random_precoders, rician_channel,
                     rician_channel_both_terms)


class TestPathLoss:
    def test_reference_values(self):
        assert path_loss_linear(1.0, 2.0, -30.0, 1.0) == pytest.approx(1e-3)
        assert path_loss_linear(1.0, 3.6, -30.0, 1.0) == pytest.approx(1e-3)
        # one decade at exponent 2 costs another 20 dB
        assert path_loss_linear(10.0, 2.0, -30.0, 1.0) == pytest.approx(1e-5)

    def test_reference_distance_identity(self):
        for d0 in (0.5, 1.0, 3.0):
            assert path_loss_linear(d0, 2.7, 0.0, d0) == pytest.approx(1.0)

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            path_loss_linear(0.0, 2.0)
        with pytest.raises(ValueError):
            path_loss_linear(-1.0, 2.0)
        with pytest.raises(ValueError):
            path_loss_linear(1.0, 2.0, d0=0.0)
        with pytest.raises(ValueError, match="^distance"):
            path_loss_linear(float("nan"), 2.0)
        with pytest.raises(ValueError, match="^d0"):
            path_loss_linear(1.0, 2.0, d0=float("nan"))


class TestSteeringVector:
    def test_single_element(self):
        np.testing.assert_allclose(steering_vector(1, 1.234), [1.0 + 0j])

    def test_broadside(self):
        np.testing.assert_allclose(steering_vector(3, 0.0, 0.5), np.ones(3))

    def test_endfire_half_wavelength(self):
        v = steering_vector(2, np.pi / 2.0, 0.5)
        np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = steering_vector(rng.integers(1, 30), rng.uniform(0, 2 * np.pi),
                                rng.uniform(0.1, 1.0))
            np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            steering_vector(0, 0.0)

    def test_angle_array_stacks_single_angle_responses(self):
        angles = np.random.default_rng(6).uniform(0, 2 * np.pi, (3, 4))
        stacked = steering_vector(5, angles, 0.25)
        assert stacked.shape == (3, 4, 5)
        for idx in np.ndindex(angles.shape):
            np.testing.assert_array_equal(
                stacked[idx], steering_vector(5, float(angles[idx]), 0.25))


class TestRicianChannel:
    def test_large_factor_is_line_of_sight(self):
        rng = np.random.default_rng(1)
        h = rician_channel(3, 4, 1e12, 0.7, -0.3, rng)
        los = np.outer(steering_vector(3, 0.7), steering_vector(4, -0.3).conj())
        assert (np.linalg.norm(h - los, "fro")
                < 1e-5 * np.linalg.norm(los, "fro"))

    def test_zero_factor_is_rayleigh(self):
        rng = np.random.default_rng(2)
        draws = np.array([np.abs(rician_channel(1, 1, 0.0, 0.0, 0.0, rng)) ** 2
                          for _ in range(10000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("m", [0, 1, 40])
    def test_zero_factor_skips_the_line_of_sight_term(self, m):
        # the same bits, sign bits included, and the same stream after
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for shape in [(m, 4), (2, m), (m, m)] * 100:
            aoa, aod = rng.uniform(0, 2 * np.pi, 2)
            ref_rng.uniform(0, 2 * np.pi, 2)
            h = rician_channel(*shape, 0.0, aoa, aod, rng)
            ref = rician_channel_both_terms(*shape, 0.0, aoa, aod, ref_rng)
            np.testing.assert_array_equal(h, ref)
            for got, want in ((h.real, ref.real), (h.imag, ref.imag)):
                np.testing.assert_array_equal(np.signbit(got),
                                              np.signbit(want))
        assert rng.random() == ref_rng.random()

    def test_unit_average_power_at_default_factor(self):
        rng = np.random.default_rng(3)
        rows, cols = 3, 5
        total = 0.0
        n = 2000
        for _ in range(n):
            h = rician_channel(rows, cols, 3.0, rng.uniform(0, 2 * np.pi),
                               rng.uniform(0, 2 * np.pi), rng)
            total += np.linalg.norm(h, "fro") ** 2
        assert total / n == pytest.approx(rows * cols, rel=0.05)

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            rician_channel(2, 2, -0.1, 0.0, 0.0, np.random.default_rng(0))


class TestGenerateScenario:
    def test_deterministic(self):
        cfg = SystemConfig(n_elements=6)
        geom = Geometry()
        a = generate_scenario(cfg, geom, seed=42)
        b = generate_scenario(cfg, geom, seed=42)
        for name in ("z", "h_b", "h_r", "g_b", "g_r"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        c = generate_scenario(cfg, geom, seed=43)
        assert not np.array_equal(a.z, c.z)

    def test_no_elements_gives_empty_reflect_matrices(self):
        cfg = SystemConfig(n_elements=0)
        ch = generate_scenario(cfg, Geometry(), seed=0)
        assert ch.z.shape == (0, cfg.n_bs_antennas)
        assert ch.h_r.shape == (cfg.n_irs, cfg.n_ir_antennas, 0)
        assert ch.g_r.shape == (cfg.n_ers, cfg.n_er_antennas, 0)

        # padding the same direct links with zeroed reflect links of any M
        # gives identical downstream metrics
        m_pad = 3
        padded = ChannelSet(
            z=np.zeros((m_pad, cfg.n_bs_antennas), dtype=complex),
            h_b=ch.h_b.copy(),
            h_r=np.zeros((cfg.n_irs, cfg.n_ir_antennas, m_pad), dtype=complex),
            g_b=ch.g_b.copy(),
            g_r=np.zeros((cfg.n_ers, cfg.n_er_antennas, m_pad), dtype=complex))
        cfg_pad = SystemConfig(n_elements=m_pad)
        rng = np.random.default_rng(5)
        f = random_precoders(rng, cfg)
        wsr0 = weighted_sum_rate(f, np.zeros(0, dtype=complex), ch, cfg)
        wsr1 = weighted_sum_rate(f, np.ones(m_pad, dtype=complex), padded, cfg_pad)
        assert wsr0 == pytest.approx(wsr1, rel=1e-12)

    def test_power_scaling_all_links(self):
        # shrink the node disks to points so every link distance is known
        cfg = SystemConfig(n_bs_antennas=2, n_ir_antennas=2, n_er_antennas=2,
                           n_irs=1, n_ers=1, n_streams=1, n_elements=4)
        geom = Geometry(er_center=5.0, er_radius=1e-12, ir_center=40.0,
                        ir_radius=1e-12)
        d_bs_er = 5.0
        d_bs_ir = 40.0
        d_bs_irs = np.hypot(5.0, 2.0)
        d_irs_er = 2.0
        d_irs_ir = np.hypot(35.0, 2.0)
        expect = {
            "z": (d_bs_irs, geom.alpha_bs_irs, 4 * 2),
            "h_b": (d_bs_ir, geom.alpha_bs_ir, 2 * 2),
            "h_r": (d_irs_ir, geom.alpha_irs_ir, 2 * 4),
            "g_b": (d_bs_er, geom.alpha_bs_er, 2 * 2),
            "g_r": (d_irs_er, geom.alpha_irs_er, 2 * 4),
        }
        sums = dict.fromkeys(expect, 0.0)
        n = 800
        for seed in range(n):
            ch = generate_scenario(cfg, geom, seed)
            for name in expect:
                arr = getattr(ch, name)
                sums[name] += np.linalg.norm(arr) ** 2
        for name, (dist, alpha, size) in expect.items():
            target = size * path_loss_linear(dist, alpha, geom.pl0_db, geom.d0)
            assert sums[name] / n == pytest.approx(target, rel=0.10), name

    @pytest.mark.parametrize("m", [0, 1, 40, 200])
    @pytest.mark.parametrize("fields", [
        {},
        {"n_irs": 1, "n_ers": 1},
        {"n_irs": 3, "n_ers": 2, "n_bs_antennas": 6, "n_ir_antennas": 3,
         "n_streams": 3},
        {"rician_factor": 0.0},
    ])
    def test_equals_loop_reference_bit_for_bit(self, m, fields):
        cfg = SystemConfig(n_elements=m, **fields)
        for geom in (Geometry(), Geometry(er_center=4.0, ir_center=100.0)):
            for seed in range(60):
                got = generate_scenario(cfg, geom, seed)
                ref = generate_scenario_loops(cfg, geom, seed)
                for name in ("z", "h_b", "h_r", "g_b", "g_r"):
                    a, b = getattr(got, name), getattr(ref, name)
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    np.testing.assert_array_equal(a.view(np.uint64),
                                                  b.view(np.uint64))

    @pytest.mark.parametrize("fields", [
        {"n_elements": 40},
        {"n_elements": 40, "n_er_antennas": 1, "antenna_spacing_ratio": 0.25},
        {"n_elements": 40, "n_er_antennas": 3, "antenna_spacing_ratio": 0.25},
    ])
    def test_equals_loop_reference_on_harvest_grid_seeds(self, fields):
        # the 64-bit per-cell seeds and ER placements of the harvest sweep
        cfg = SystemConfig(**fields)
        for si, x_er in enumerate(range(4, 11)):
            geom = Geometry().with_er_center(float(x_er))
            for ti in range(8):
                for method in ("bcd", "no-irs"):
                    seed = derive_seed(1, si, ti, method)
                    got = generate_scenario(cfg, geom, seed)
                    ref = generate_scenario_loops(cfg, geom, seed)
                    for name in ("z", "h_b", "h_r", "g_b", "g_r"):
                        a, b = getattr(got, name), getattr(ref, name)
                        assert a.dtype == b.dtype and a.shape == b.shape, name
                        np.testing.assert_array_equal(a.view(np.uint64),
                                                      b.view(np.uint64))

    def test_zero_length_link_raises(self):
        geom = Geometry(er_radius=0.0, irs_position=(5.0, 0.0))
        with pytest.raises(ValueError, match="zero-length"):
            generate_scenario(SystemConfig(), geom, seed=0)

    def test_non_finite_gain_raises(self):
        # the path-loss law overflows to inf without raising
        geom = Geometry(pl0_db=3080.0, d0=1e3)
        with pytest.raises(ValueError, match="not finite"):
            generate_scenario(SystemConfig(), geom, seed=0)

    @pytest.mark.parametrize("name, value", [
        ("bs_position", "12"), ("bs_position", (0.0, 0.0, 0.0)),
        ("irs_position", "52"), ("irs_position", [5.0]),
        ("bs_position", 0.0)])
    def test_position_is_a_list_of_two_numbers(self, name, value):
        # a string was split into its digits; three numbers failed only
        # inside the draw, with a broadcasting error
        with pytest.raises(ValueError, match=f"^{name} must"):
            Geometry(**{name: value})

    @pytest.mark.parametrize("name", [
        "er_center", "ir_center", "er_radius", "ir_radius", "d0"])
    def test_nan_fails_at_construction(self, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            Geometry(**{name: float("nan")})

    @pytest.mark.parametrize("name, value", [
        ("bs_position", (float("nan"), 0.0)),
        ("bs_position", (0.0, -float("inf"))),
        ("irs_position", (float("inf"), 2.0)),
        ("irs_position", (5.0, float("nan")))])
    def test_non_finite_position_fails_at_construction(self, name, value):
        # a NaN failed only in the draw, as "distance must be strictly
        # positive"; an inf coordinate generated channels
        with pytest.raises(ValueError, match=f"^{name} must hold two finite"):
            Geometry(**{name: value})

    @pytest.mark.parametrize("name", EXPONENT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -3.0])
    def test_bad_path_loss_exponent_fails_at_construction(self, name, value):
        # a negative exponent made the gain grow with distance
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and non-negative"):
            Geometry(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_pl0_db_fails_at_construction(self, value):
        with pytest.raises(ValueError, match="^pl0_db must be finite"):
            Geometry(pl0_db=value)

    def test_zero_exponent_is_a_distance_free_gain(self):
        geom = Geometry(alpha_bs_er=0.0)
        assert path_loss_linear(7.0, geom.alpha_bs_er, geom.pl0_db,
                                geom.d0) == pytest.approx(1e-3, rel=1e-12)
        generate_scenario(SystemConfig(n_elements=4), geom, seed=0)

    def test_irs_follows_er_center_by_default(self):
        geom = Geometry(er_center=7.5)
        assert geom.irs_position == (7.5, 2.0)
        moved = geom.with_er_center(9.0)
        assert moved.irs_position == (9.0, 2.0)


class TestConfigValidation:
    def test_stream_bound(self):
        with pytest.raises(ValueError):
            SystemConfig(n_streams=3, n_ir_antennas=2)

    @pytest.mark.parametrize("fields", [
        {"n_elements": 40.0}, {"n_irs": 2.0}, {"n_ers": True},
        {"n_elements": -1}, {"n_streams": 0},
    ])
    def test_counts_take_integers_only(self, fields):
        with pytest.raises(ValueError):
            SystemConfig(**fields)

    def test_weight_lengths(self):
        with pytest.raises(ValueError):
            SystemConfig(n_irs=2, rate_weights=(1.0,))

    @pytest.mark.parametrize("fields", [{"rate_weights": "12"},
                                        {"eh_weights": "1111"},
                                        {"rate_weights": 1.0}])
    def test_weights_are_a_list(self, fields):
        # a string was split into its digits, "12" into (1.0, 2.0)
        name, = fields
        with pytest.raises(ValueError, match=f"^{name} must be a list"):
            SystemConfig(**fields)

    def test_list_weights_equal_tuple_weights(self):
        n_ers = SystemConfig().n_ers
        listed = SystemConfig(rate_weights=[1, 2.0], eh_weights=[0.5] * n_ers)
        tupled = SystemConfig(rate_weights=(1.0, 2.0),
                              eh_weights=(0.5,) * n_ers)
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert all(type(x) is float for x in listed.rate_weights)

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            SystemConfig(eh_efficiency=0.0)
        with pytest.raises(ValueError):
            SystemConfig(eh_efficiency=1.5)

    @pytest.mark.parametrize("name", [
        "power_budget", "noise_power_ir", "eh_threshold", "rician_factor",
        "rate_weights", "eh_weights"])
    def test_nan_fails_at_construction(self, name):
        # a NaN passed every "x <= 0" test: a NaN power budget failed only
        # inside the solve, a NaN threshold reported every draw infeasible
        nan, weights = float("nan"), name.endswith("weights")
        value = (nan,) + getattr(SystemConfig(), name)[1:] if weights else nan
        with pytest.raises(ValueError, match=(
                "weights must be strictly positive" if weights
                else f"^{name} must")):
            SystemConfig(**{name: value})

    def test_unreachable_threshold_stays_legal(self):
        # the harvest sweep runs the alternation at an infinite threshold
        assert SystemConfig(eh_threshold=float("inf")).eh_threshold == np.inf

    def test_defaults_are_consistent(self):
        cfg = SystemConfig()
        assert cfg.rate_weights == (1.0, 1.0)
        assert len(cfg.eh_weights) == cfg.n_ers
        assert cfg.noise_power_ir == pytest.approx(1e-13)


def test_load_scenario_roundtrip(tmp_path):
    doc = {
        "config": {"n_bs_antennas": 3, "n_elements": 5, "rate_weights": [1, 2]},
        "geometry": {"er_center": 6.0, "ir_center": 50.0},
        "seed": 11,
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    cfg, geom, seed = load_scenario(p)
    assert cfg.n_bs_antennas == 3
    assert cfg.rate_weights == (1.0, 2.0)
    assert geom.er_center == 6.0
    assert geom.irs_position == (6.0, 2.0)
    assert seed == 11
