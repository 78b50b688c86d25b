import numpy as np
import pytest

from irs_swipt import effective_channels, harvested_power_quadratic
from irs_swipt import precoder
from irs_swipt.errors import InfeasibleDirectionError
from irs_swipt.linalg import frob_sq, herm
from irs_swipt.precoder import (QuadraticData, _probe, build_quadratic,
                                dual_bisection, power_of_lambda,
                                precoder_closed_form, sca_objective,
                                sca_precoder_solve)

from helpers import (bench_config, crandn, mu_per_user,
                     precoder_terms_per_user, project_ball_halfspace,
                     random_precoders, sca_objective_per_user, wmmse_state)


def make_data(a, lin, g, f_anchor, qbar):
    """QuadraticData from raw matrices."""
    return QuadraticData.from_terms(a, lin, g, f_anchor, qbar)


def random_data(rng, cfg=None, qbar=None, feasible_anchor=True):
    """Subproblem data at a random WMMSE state with a feasible anchor."""
    cfg = cfg or bench_config()
    ch, phi, f, u, w = wmmse_state(rng, cfg)
    eff = effective_channels(ch, phi, cfg)
    q_at_anchor = harvested_power_quadratic(f, eff.g)
    if qbar is None:
        qbar = 0.5 * q_at_anchor if feasible_anchor else 2.0 * q_at_anchor
    return build_quadratic(u, w, eff, f, cfg, eh_threshold=qbar), cfg, eff


def tight_budget(data, frac):
    """A budget that binds the power constraint while the linearized harvest
    stays reachable: P(lambda) converges to the minimum power satisfying the
    harvest plane as lambda grows, so the budget must sit above that floor."""
    p0 = power_of_lambda(0.0, data)
    floor = power_of_lambda(1e12, data)
    return min(max(frac * p0, 2.0 * floor), 0.5 * (floor + p0))


def lagrangian(f, lam, mu, data, p_t):
    val = sca_objective(f, data)
    val += lam * (float(np.sum(np.abs(f) ** 2)) - p_t)
    lin_harvest = 2.0 * sum(float(np.real(np.vdot(data.gfa[k], f[k])))
                            for k in range(len(f)))
    val += mu * (data.q_tilde - lin_harvest)
    return val


class TestBuildQuadratic:
    def test_zero_decoders_zero_quadratic(self):
        rng = np.random.default_rng(0)
        cfg = bench_config(k_i=1)
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        data = build_quadratic(np.zeros_like(u), w, eff, f, cfg,
                               cfg.eh_threshold)
        assert np.max(np.abs(data.a)) == 0.0

    def test_harvest_linearization_is_lower_bound(self):
        rng = np.random.default_rng(1)
        data, cfg, eff = random_data(rng)
        fa = data.f_anchor
        anchor_q = harvested_power_quadratic(fa, data.g)
        for _ in range(100):
            f = random_precoders(rng, cfg, power=rng.uniform(0.1, 10.0))
            lhs = harvested_power_quadratic(f, data.g)
            rhs = -anchor_q + 2.0 * sum(
                float(np.real(np.vdot(data.gfa[k], f[k])))
                for k in range(cfg.n_irs))
            assert lhs >= rhs - 1e-10 * max(1.0, abs(rhs))
        rhs_at_anchor = -anchor_q + 2.0 * sum(
            float(np.real(np.vdot(data.gfa[k], fa[k])))
            for k in range(cfg.n_irs))
        assert rhs_at_anchor == pytest.approx(anchor_q, rel=1e-10)

    def test_eigen_reconstruction(self):
        rng = np.random.default_rng(2)
        data, _, _ = random_data(rng)
        rebuilt = (data.basis * data.values) @ herm(data.basis)
        assert (np.linalg.norm(rebuilt - data.a)
                < 1e-9 * max(1.0, np.linalg.norm(data.a)))

    def test_assembly_matches_per_user_sums(self):
        rng = np.random.default_rng(20)
        cfg = bench_config(rate_weights=(0.7, 1.9))
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        data = build_quadratic(u, w, eff, f, cfg, cfg.eh_threshold)
        a, lin = precoder_terms_per_user(u, w, eff.hbar, cfg.rate_weights)
        np.testing.assert_allclose(data.a, a, rtol=0, atol=1e-12 * np.abs(a).max())
        np.testing.assert_allclose(data.lin, lin, rtol=0,
                                   atol=1e-12 * np.abs(lin).max())
        f_test = random_precoders(rng, cfg)
        ref = sca_objective_per_user(f_test, a, lin)
        assert sca_objective(f_test, data) == pytest.approx(ref, rel=1e-12)

    def test_q_tilde_definition(self):
        rng = np.random.default_rng(3)
        qbar = 0.123
        data, _, _ = random_data(rng, qbar=qbar)
        anchor_q = harvested_power_quadratic(data.f_anchor, data.g)
        assert data.q_tilde == pytest.approx(qbar + anchor_q, rel=1e-12)


class TestClosedForm:
    def test_identity_quadratic_halves(self):
        rng = np.random.default_rng(4)
        k, n, d = 2, 3, 2
        lin = crandn(rng, k, n, d)
        g = np.eye(n, dtype=complex)
        data = make_data(np.eye(n, dtype=complex), lin, g,
                         crandn(rng, k, n, d), qbar=0.0)
        f = precoder_closed_form(1.0, 0.0, data)
        np.testing.assert_allclose(f, lin / 2.0, atol=1e-12)

    def test_lagrangian_stationarity_by_finite_differences(self):
        rng = np.random.default_rng(5)
        data, cfg, _ = random_data(rng)
        lam, mu = 0.7, 0.3
        f = precoder_closed_form(lam, mu, data)
        h = 1e-5
        scale = 1.0 + np.linalg.norm(data.lin)
        for _ in range(12):
            idx = tuple(rng.integers(0, s) for s in f.shape)
            for unit in (1.0, 1j):
                fp, fm = f.copy(), f.copy()
                fp[idx] += h * unit
                fm[idx] -= h * unit
                fd = (lagrangian(fp, lam, mu, data, cfg.power_budget)
                      - lagrangian(fm, lam, mu, data, cfg.power_budget)) / (2 * h)
                assert abs(fd) < 1e-6 * scale

    def test_large_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(6)
        data, _, _ = random_data(rng)
        norms = [np.linalg.norm(precoder_closed_form(lam, 0.0, data))
                 for lam in (1e0, 1e3, 1e6, 1e9)]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-6

    def test_cached_solve_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        data, _, _ = random_data(rng)
        for lam in (1e-3, 0.5, 20.0):
            f = precoder_closed_form(lam, 0.4, data)
            shifted = data.a + lam * np.eye(data.a.shape[0])
            for k in range(len(f)):
                rhs = data.lin[k] + 0.4 * data.gfa[k]
                direct = np.linalg.solve(shifted, rhs)
                assert (np.linalg.norm(f[k] - direct)
                        < 1e-9 * max(1.0, np.linalg.norm(direct)))


class TestComputeMu:
    """The harvest multiplier mu(lambda), the second value of _probe."""

    def test_inactive_constraint(self):
        rng = np.random.default_rng(8)
        data, _, _ = random_data(rng, qbar=0.0)
        # anchor harvests something, so q_tilde = anchor harvest and the
        # mu = 0 solution stays above it only if condition (the inequality)
        # holds; with qbar = 0 a feasible direction always exists
        mu = _probe(0.0, data)[1]
        if mu == 0.0:
            f0 = precoder_closed_form(0.0, 0.0, data)
            lin_h = 2.0 * sum(float(np.real(np.vdot(data.gfa[k], f0[k])))
                              for k in range(len(f0)))
            assert lin_h >= data.q_tilde

    def test_positive_mu_makes_constraint_tight(self):
        rng = np.random.default_rng(9)
        found = 0
        for seed in range(20):
            data, cfg, _ = random_data(np.random.default_rng(1000 + seed),
                                       qbar=None)
            # raise the threshold until mu must activate
            anchor_q = harvested_power_quadratic(data.f_anchor, data.g)
            data = data.with_anchor(data.f_anchor, 5.0 * anchor_q)
            mu = _probe(0.2, data)[1]
            if mu <= 0.0:
                continue
            found += 1
            f = precoder_closed_form(0.2, mu, data)
            lin_h = 2.0 * sum(float(np.real(np.vdot(data.gfa[k], f[k])))
                              for k in range(len(f)))
            assert abs(lin_h - data.q_tilde) < 1e-6 * abs(data.q_tilde)
        assert found >= 5

    def test_threshold_sweep_flips_mu_continuously(self):
        rng = np.random.default_rng(10)
        data, cfg, _ = random_data(rng, qbar=0.0)
        anchor_q = harvested_power_quadratic(data.f_anchor, data.g)
        objectives, mus = [], []
        for factor in np.linspace(0.0, 6.0, 25):
            d = data.with_anchor(data.f_anchor, factor * anchor_q)
            mu = _probe(0.1, d)[1]
            mus.append(mu)
            objectives.append(sca_objective(precoder_closed_form(0.1, mu, d), d))
        assert mus[0] == 0.0
        assert mus[-1] > 0.0
        jumps = np.abs(np.diff(objectives))
        assert np.max(jumps) < 10.0 * (np.median(jumps) + 1e-9)

    def test_degenerate_direction_raises(self):
        rng = np.random.default_rng(11)
        k, n, d = 1, 3, 1
        a = np.eye(n, dtype=complex)
        lin = crandn(rng, k, n, d)
        data = make_data(a, lin, np.zeros((n, n), dtype=complex),
                         crandn(rng, k, n, d), qbar=1.0)
        with pytest.raises(InfeasibleDirectionError):
            _probe(0.0, data)[1]


class TestScalarDual:
    """The per-eigenvalue sums reproduce the explicit per-user forms."""

    LAMS = np.concatenate(([0.0], np.logspace(-4, 6, 41)))

    def binding_data(self, seed):
        """Data whose threshold is slack at lambda = 0 but binds as lambda
        grows, so a lambda grid sees both mu = 0 and mu > 0."""
        data, _, _ = random_data(np.random.default_rng(seed))
        c0 = 2.0 * sum(float(np.real(np.vdot(
            data.gfa[k], np.linalg.pinv(data.a) @ data.lin[k])))
            for k in range(len(data.lin)))
        anchor_q = harvested_power_quadratic(data.f_anchor, data.g)
        return data.with_anchor(data.f_anchor, 0.5 * c0 - anchor_q), c0

    def test_power_and_mu_match_per_user_forms(self):
        cases = 0
        mus = []
        for seed in range(5100, 5110):
            data, c0 = self.binding_data(seed)
            if c0 <= 0.0:
                continue
            cases += 1
            for lam in self.LAMS:
                mu = _probe(lam, data)[1]
                mus.append(mu)
                ref = mu_per_user(lam, data)
                assert abs(mu - ref) <= 1e-10 * abs(ref)
                power = power_of_lambda(lam, data)
                direct = frob_sq(precoder_closed_form(lam, mu, data))
                assert abs(power - direct) <= 1e-10 * direct
        assert cases >= 3
        assert 0.0 in mus
        assert max(mus) > 0.0


class TestPowerOfLambda:
    def test_monotone_decreasing(self):
        for seed in range(10):
            data, _, _ = random_data(np.random.default_rng(2000 + seed))
            lams = np.logspace(-4, 4, 50)
            powers = [power_of_lambda(l, data) for l in lams]
            for a, b in zip(powers, powers[1:]):
                assert b <= a + 1e-10 * max(1.0, a)

    def test_vanishes_at_huge_lambda(self):
        # pure-regularizer limit: with no harvest term the solution shrinks
        # like 1/lambda (with an active harvest plane the power instead
        # converges to the minimum-power point on that plane)
        rng = np.random.default_rng(12)
        cfg = bench_config()
        k, n, d = cfg.n_irs, cfg.n_bs_antennas, cfg.n_streams
        a = crandn(rng, n, n)
        a = a @ herm(a)
        data = make_data(a, crandn(rng, k, n, d),
                         np.zeros((n, n), dtype=complex),
                         crandn(rng, k, n, d), qbar=0.0)
        assert power_of_lambda(1e12, data) < 1e-6 * cfg.power_budget

    def test_continuity(self):
        rng = np.random.default_rng(13)
        data, _, _ = random_data(rng)
        for lam in (0.01, 0.5, 3.0):
            base = power_of_lambda(lam, data)
            diffs = [abs(power_of_lambda(lam + delta, data) - base)
                     for delta in (1e-3, 1e-5, 1e-7)]
            assert diffs[0] > diffs[2]
            assert diffs[2] < 1e-5 * max(1.0, base)


class TestDualBisection:
    def test_tight_budget_binds_power(self):
        rng = np.random.default_rng(14)
        data, _, _ = random_data(rng)
        p_t = tight_budget(data, 0.25)
        f, lam, mu = dual_bisection(data, p_t)
        assert lam > 0.0
        assert np.sum(np.abs(f) ** 2) == pytest.approx(p_t, rel=1e-6)

    def test_slack_budget_returns_unconstrained(self):
        rng = np.random.default_rng(15)
        data, _, _ = random_data(rng, qbar=0.0)
        p_t = 10.0 * power_of_lambda(0.0, data)
        f, lam, mu = dual_bisection(data, p_t)
        assert lam == 0.0
        np.testing.assert_allclose(
            f, precoder_closed_form(0.0, _probe(0.0, data)[1], data))

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(16)
        cfg = bench_config(n_bs=2, n_ir=2, d=1, k_i=2, m=3)
        data, cfg, _ = random_data(rng, cfg=cfg)
        p_t = tight_budget(data, 0.5)
        f_star, lam, mu = dual_bisection(data, p_t)
        z_star = sca_objective(f_star, data)
        for _ in range(1000):
            raw = random_precoders(rng, cfg, power=p_t * rng.uniform(0.2, 1.5))
            f = project_ball_halfspace(raw, np.sqrt(p_t), data.gfa,
                                       data.q_tilde / 2.0)
            assert np.sum(np.abs(f) ** 2) <= p_t * (1.0 + 1e-9)
            lin_h = 2.0 * sum(float(np.real(np.vdot(data.gfa[k], f[k])))
                              for k in range(cfg.n_irs))
            assert lin_h >= data.q_tilde * (1.0 - 1e-9) - 1e-12
            assert sca_objective(f, data) >= z_star - 1e-9 * max(1.0, abs(z_star))

    def test_probe_count_on_oracle_instances(self, monkeypatch):
        # C4's instances: the P(0) probe plus plain bisection
        # (helpers.bisection_root) take 45.3 power evaluations per solve,
        # the Illinois search 27.95.  On six of them p_t falls in the jump
        # of P(lambda) where a near-zero eigenvalue of A crosses the cutoff,
        # and both searches run to float resolution.
        calls = []

        def counted(lam, data):
            calls.append(lam)
            return power_of_lambda(lam, data)

        monkeypatch.setattr(precoder, "power_of_lambda", counted)
        for seed in range(20):
            rng = np.random.default_rng(50_000 + seed)
            cfg = bench_config(n_bs=2 + seed % 2, n_ir=2, d=1,
                               k_i=1 + seed % 2, m=3)
            data, _, _ = random_data(rng, cfg=cfg)
            dual_bisection(data, tight_budget(data, 0.4))
        assert len(calls) / 20 < 36.0


class TestScaSolve:
    def test_zero_threshold_matches_plain_bisection(self):
        rng = np.random.default_rng(17)
        cfg = bench_config(qbar=0.0)
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        f_sca, traj = sca_precoder_solve(u, w, eff, f, cfg)
        data = build_quadratic(u, w, eff, f_sca, cfg, cfg.eh_threshold)
        f_direct, lam, mu = dual_bisection(data, cfg.power_budget)
        assert mu == 0.0
        assert (np.linalg.norm(f_sca - f_direct)
                < 1e-5 * max(1.0, np.linalg.norm(f_sca)))

    def test_objective_monotone_and_iterates_feasible(self):
        for seed in range(50):
            rng = np.random.default_rng(3000 + seed)
            cfg = bench_config()
            ch, phi, f, u, w = wmmse_state(rng, cfg)
            eff = effective_channels(ch, phi, cfg)
            qbar = 0.6 * harvested_power_quadratic(f, eff.g)
            cfg_q = bench_config(qbar=qbar)
            f_out, traj = sca_precoder_solve(u, w, eff, f, cfg_q)
            objectives = [it.objective for it in traj]
            for a, b in zip(objectives, objectives[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))
            for it in traj:
                assert it.power <= cfg_q.power_budget * (1.0 + 1e-6)
                assert it.harvest >= qbar * (1.0 - 1e-6)

    @pytest.mark.parametrize("eps,n_max", [(1e-6, 100), (0.0, 3)])
    def test_reanchors_only_before_another_iteration(self, monkeypatch, eps,
                                                     n_max):
        # one with_anchor per iteration after the first: the anchor at the
        # last iterate would never be read
        real = QuadraticData.with_anchor
        anchors = []

        def counted(data, f_anchor, eh_threshold):
            anchors.append(f_anchor)
            return real(data, f_anchor, eh_threshold)

        monkeypatch.setattr(QuadraticData, "with_anchor", counted)
        monkeypatch.setattr(precoder, "SCA_EPS", eps)
        monkeypatch.setattr(precoder, "SCA_MAX_ITER", n_max)
        for seed in range(10):
            rng = np.random.default_rng(3100 + seed)
            cfg = bench_config()
            ch, phi, f, u, w = wmmse_state(rng, cfg)
            eff = effective_channels(ch, phi, cfg)
            qbar = 0.6 * harvested_power_quadratic(f, eff.g)
            cfg_q = bench_config(qbar=qbar)
            anchors.clear()
            f_out, traj = sca_precoder_solve(u, w, eff, f, cfg_q)
            iterations = len(traj) - 1
            assert iterations >= 2
            assert len(anchors) == iterations - 1
            assert anchors[-1] is not f_out

    def test_kkt_residuals_at_convergence(self, monkeypatch):
        rng = np.random.default_rng(19)
        cfg = bench_config()
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        eff = effective_channels(ch, phi, cfg)
        qbar = 0.6 * harvested_power_quadratic(f, eff.g)
        cfg_q = bench_config(qbar=qbar)
        monkeypatch.setattr(precoder, "SCA_EPS", 1e-10)
        monkeypatch.setattr(precoder, "SCA_MAX_ITER", 300)
        f_star, _ = sca_precoder_solve(u, w, eff, f, cfg_q)
        data = build_quadratic(u, w, eff, f_star, cfg_q, cfg_q.eh_threshold)
        f_fix, lam, mu = dual_bisection(data, cfg_q.power_budget)
        # stationarity of the inner Lagrangian at the fixed point
        grad = (np.einsum("ij,kjd->kid", data.a, f_fix)
                + lam * f_fix - data.lin - mu * data.gfa)
        assert (np.linalg.norm(grad)
                < 1e-5 * (1.0 + np.linalg.norm(data.lin)))
        # complementary slackness
        power = float(np.sum(np.abs(f_fix) ** 2))
        assert abs(lam * (power - cfg_q.power_budget)) < 1e-6 * max(1.0, lam)
        lin_h = 2.0 * sum(float(np.real(np.vdot(data.gfa[k], f_fix[k])))
                          for k in range(cfg_q.n_irs))
        assert abs(mu * (lin_h - data.q_tilde)) < 1e-6 * max(1.0, mu)
