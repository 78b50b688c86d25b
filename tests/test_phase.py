import tracemalloc
from dataclasses import fields, replace
from statistics import mean

import numpy as np
import pytest

import irs_swipt.phase as phase_module
from irs_swipt import (Geometry, SystemConfig, bcd_solve, effective_channels,
                       feasibility_check, generate_scenario, harvested_power)
from irs_swipt.bcd import mmse_refresh
from irs_swipt.errors import InfeasibleSubproblemError
from irs_swipt.linalg import MAX_DOUBLINGS, herm, unit_phase
from irs_swipt.metrics import wmmse_objective
from irs_swipt.phase import (MM_EPS, assemble_phase_qcqp, eh_slack,
                             mm_extrapolate, mm_prepare, phase_closed_form,
                             phase_solve, price_bisection)
from irs_swipt.precoder import sca_precoder_solve

from helpers import (bench_config, count_calls, crandn, dense_form,
                     dense_phase_forms, mm_prepare_two_projections, phase_data,
                     phase_grid_best, phase_solve_plain, unit_phases,
                     wmmse_state)


def make_phase_data(rng, m, psd_scale=1.0, q_resid=0.0):
    """Hand-built PhaseQcqpData with random PSD quadratics."""
    x = crandn(rng, m, m) * np.sqrt(psd_scale / m)
    y = crandn(rng, m, m) * np.sqrt(psd_scale / m)
    return phase_data(
        x, y, v=crandn(rng, m), g=crandn(rng, m), q_resid=q_resid,
        lam_max=float(np.linalg.eigvalsh(dense_form(x))[-1]))


def full_state(rng, cfg=None):
    cfg = cfg or bench_config()
    ch, phi, f, u, w = wmmse_state(rng, cfg)
    data = assemble_phase_qcqp(u, w, f, ch, cfg)
    return cfg, ch, phi, f, u, w, data


class TestAssembly:
    def test_hadamard_identity(self):
        rng = np.random.default_rng(0)
        m = 6
        x = crandn(rng, m, m)
        b = x @ herm(x)
        y = crandn(rng, m, m)
        c = y @ herm(y)
        phi = unit_phases(rng, m)
        big_phi = np.diag(phi)
        lhs = np.trace(herm(big_phi) @ b @ big_phi @ c)
        rhs = np.vdot(phi, (b * c.T) @ phi)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("m", [1, 6, 37])
    def test_factors_match_dense_forms(self, d, m):
        rng = np.random.default_rng(20 + m + d)
        cfg = bench_config(k_i=3, n_er=3, d=d, m=m,
                           rate_weights=(0.4, 1.3, 2.2), eh_weights=(0.7, 1.9))
        _, ch, _, f, u, w, data = full_state(rng, cfg)
        xi, upsilon, v, g, direct, _ = dense_phase_forms(u, w, f, ch, cfg)

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

        assert close(dense_form(data.xi_factor), xi)
        assert close(dense_form(data.upsilon_factor), upsilon)
        assert close(data.v, v)
        assert close(data.g, g)
        assert close(data.direct_harvest, direct)
        assert close(data.lam_max, np.linalg.eigvalsh(xi)[-1])

    def test_objective_identity_against_matrix_form(self):
        rng = np.random.default_rng(1)
        cfg, ch, phi, f, u, w, data = full_state(rng)
        obj_const = dense_phase_forms(u, w, f, ch, cfg)[5]
        f_tilde = sum(f[k] @ herm(f[k]) for k in range(cfg.n_irs))
        for _ in range(5):
            test_phi = unit_phases(rng, cfg.n_elements)
            eff = effective_channels(ch, test_phi, cfg)
            direct = 0.0
            for k in range(cfg.n_irs):
                om = cfg.rate_weights[k]
                uwu = u[k] @ w[k] @ herm(u[k])
                direct += om * np.real(
                    np.trace(uwu @ eff.hbar[k] @ f_tilde @ herm(eff.hbar[k])))
                direct -= 2.0 * om * np.real(
                    np.trace(w[k] @ herm(u[k]) @ eff.hbar[k] @ f[k]))
            value = mm_prepare(data, test_phi).objective + obj_const
            assert abs(value - direct) < 1e-9 * max(1.0, abs(direct))

    def test_harvest_identity_against_metrics(self):
        rng = np.random.default_rng(2)
        cfg, ch, phi, f, u, w, data = full_state(rng)
        for _ in range(5):
            test_phi = unit_phases(rng, cfg.n_elements)
            eff = effective_channels(ch, test_phi, cfg)
            _, q = harvested_power(f, eff, cfg)
            harvest = mm_prepare(data, test_phi).reflected + data.direct_harvest
            assert abs(harvest - q) < 1e-9 * max(1.0, q)

    def test_quadratics_are_psd(self):
        rng = np.random.default_rng(3)
        _, _, _, _, _, _, data = full_state(rng)
        xi = dense_form(data.xi_factor)
        assert np.linalg.eigvalsh(xi)[0] > -1e-9
        assert np.linalg.eigvalsh(dense_form(data.upsilon_factor))[0] > -1e-9
        assert data.lam_max >= np.max(np.abs(np.linalg.eigvalsh(xi))) - 1e-9


def test_no_m_by_m_allocation():
    # One M x M complex array at M = 1500 is 36 MB; the factored build,
    # one MM anchor and one priced solve must stay under a quarter of it.
    cfg = bench_config(m=1500)
    ch, phi, f, u, w = wmmse_state(np.random.default_rng(19), cfg)
    tracemalloc.start()
    try:
        data = assemble_phase_qcqp(u, w, f, ch, cfg)
        price_bisection(mm_prepare(data, phi), data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1500 * 1500 * 16 / 4


class TestMmPrepare:
    def test_isotropic_quadratic_cancels_anchor(self):
        rng = np.random.default_rng(4)
        m = 5
        data = make_phase_data(rng, m)
        iso = phase_data(np.sqrt(data.lam_max) * np.eye(m, dtype=complex),
                         data.upsilon_factor, v=data.v, g=data.g,
                         lam_max=data.lam_max)
        state = mm_prepare(iso, unit_phases(rng, m))
        np.testing.assert_allclose(state.q, -iso.v.conj(), atol=1e-12)

    def test_majorizer_dominates_quadratic(self):
        rng = np.random.default_rng(5)
        data = make_phase_data(rng, 6)
        anchor = unit_phases(rng, 6)
        lam = data.lam_max
        xi = dense_form(data.xi_factor)

        def majorizer(phi):
            # lam |phi|^2 - 2 Re{phi^H (lam I - Xi) anchor} + anchor^H (lam I - Xi) anchor
            shift = lam * np.eye(6, dtype=complex) - xi
            return (lam * np.real(np.vdot(phi, phi))
                    - 2.0 * np.real(np.vdot(phi, shift @ anchor))
                    + np.real(np.vdot(anchor, shift @ anchor)))

        quad_at = lambda phi: float(np.real(np.vdot(phi, xi @ phi)))
        assert majorizer(anchor) == pytest.approx(quad_at(anchor), abs=1e-10)
        for _ in range(100):
            phi = unit_phases(rng, 6)
            assert majorizer(phi) >= quad_at(phi) - 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("m", [0, 1, 37])
    def test_stacked_projection_matches_two_projections(self, d, m):
        rng = np.random.default_rng(60 + 3 * m + d)
        cfg = bench_config(k_i=3, n_ir=3, n_er=3, d=d, m=m,
                           rate_weights=(0.4, 1.3, 2.2), eh_weights=(0.7, 1.9))
        _, _, _, _, _, _, data = full_state(rng, cfg)
        anchor = unit_phases(rng, m)
        state = mm_prepare(data, anchor)
        ref = mm_prepare_two_projections(data, anchor)
        for got, want in ((state.q, ref.q), (state.w, ref.w)):
            assert got.shape == want.shape == (m,)
            assert np.all(np.abs(got - want)
                          <= 1e-12 * max(np.max(np.abs(want), initial=0.0),
                                         1e-300))
        for name in ("q_hat", "objective", "reflected"):
            assert getattr(state, name) == pytest.approx(
                getattr(ref, name), rel=1e-12), name

    def test_extrapolated_state_matches_preparing_the_point(self):
        # q, w and Y^H anchor are affine in the anchor, so combining two
        # states gives the state at the combined (off-circle) point
        rng = np.random.default_rng(61)
        cfg = bench_config(m=37)
        _, _, _, _, _, _, data = full_state(rng, cfg)
        cur, prev = (mm_prepare(data, unit_phases(rng, 37)) for _ in range(2))
        for beta in (0.0, 0.25, 0.9):
            got = mm_extrapolate(cur, prev, beta, data)
            want = mm_prepare(data, (1 + beta) * cur.anchor
                              - beta * prev.anchor)
            for name in ("anchor", "y_proj", "q", "w"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.all(np.abs(a - b) <= 1e-12 * np.max(np.abs(b))), name
            assert got.q_hat == pytest.approx(want.q_hat, rel=1e-12)
            assert np.isnan(got.objective) and np.isnan(got.reflected)

    def test_linearized_bound_matches_truth_at_anchor(self):
        rng = np.random.default_rng(6)
        cfg, ch, phi, f, u, w, data = full_state(rng)
        anchor = unit_phases(rng, cfg.n_elements)
        state = mm_prepare(data, anchor)
        lin_at_anchor = 2.0 * np.real(np.vdot(
            anchor, data.g.conj() + dense_form(data.upsilon_factor) @ anchor))
        # constraint slack at the anchor equals the true harvest slack
        assert (lin_at_anchor - state.q_hat) == pytest.approx(
            state.reflected - data.q_resid, abs=1e-10)


class TestClosedForm:
    def test_extracts_phases(self):
        data = make_phase_data(np.random.default_rng(7), 2)
        zero = phase_data(data.xi_factor, np.zeros((2, 0), complex),
                          v=data.v, g=np.zeros(2, complex),
                          lam_max=data.lam_max)
        state = replace(mm_prepare(zero, np.ones(2, dtype=complex)),
                        q=np.array([1.0, 1j]))
        np.testing.assert_allclose(phase_closed_form(0.0, state),
                                   [1.0, 1j], atol=1e-15)

    def test_zero_entry_maps_to_one(self):
        data = make_phase_data(np.random.default_rng(8), 3)
        zero = phase_data(data.xi_factor, np.zeros((3, 0), complex),
                          v=data.v, g=np.zeros(3, complex),
                          lam_max=data.lam_max)
        state = replace(mm_prepare(zero, np.ones(3, dtype=complex)),
                        q=np.array([0.0, 2.0, -1j]))
        phi = phase_closed_form(0.0, state)
        assert phi[0] == 1.0 + 0j

    def test_alignment_beats_random_candidates(self):
        rng = np.random.default_rng(9)
        m = 4
        data = make_phase_data(rng, m)
        anchor = unit_phases(rng, m)
        state = mm_prepare(data, anchor)
        p = 0.7
        w = data.g.conj() + dense_form(data.upsilon_factor) @ anchor
        target = state.q + p * w
        phi_star = phase_closed_form(p, state)
        best = 2.0 * np.real(np.vdot(phi_star, target))
        for _ in range(10000):
            cand = unit_phases(rng, m)
            assert 2.0 * np.real(np.vdot(cand, target)) <= best + 1e-9


class TestEhSlack:
    def test_monotone_in_price(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            data = make_phase_data(rng, 5)
            state = mm_prepare(data, unit_phases(rng, 5))
            prices = np.logspace(-3, 4, 50)
            vals = [eh_slack(p, state) for p in prices]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-10 * max(1.0, abs(a))

    def test_zero_harvest_terms(self):
        rng = np.random.default_rng(10)
        m = 4
        base = make_phase_data(rng, m)
        data = phase_data(base.xi_factor, np.zeros((m, 0), complex),
                          v=base.v, g=np.zeros(m, complex),
                          lam_max=base.lam_max)
        state = mm_prepare(data, unit_phases(rng, m))
        for p in (0.0, 1.0, 100.0):
            assert eh_slack(p, state) == 0.0

    def test_limit_is_sum_of_magnitudes(self):
        rng = np.random.default_rng(11)
        data = make_phase_data(rng, 6)
        state = mm_prepare(data, unit_phases(rng, 6))
        w = data.g.conj() + dense_form(data.upsilon_factor) @ state.anchor
        limit = 2.0 * float(np.sum(np.abs(w)))
        assert eh_slack(1e12, state) == pytest.approx(limit, rel=1e-9)


class TestPriceBisection:
    def test_deeply_slack_bound_short_circuits(self):
        rng = np.random.default_rng(12)
        data = make_phase_data(rng, 5, q_resid=-100.0)
        state = mm_prepare(data, unit_phases(rng, 5))
        assert state.q_hat <= 0.0
        nxt, p = price_bisection(state, data)
        assert p == 0.0
        np.testing.assert_allclose(nxt.anchor, np.exp(1j * np.angle(state.q)))

    def test_returned_point_always_feasibility_preserving(self):
        # a non-positive bound is not automatically satisfied: the unpriced
        # solution can push the reflected harvest term below it; whatever
        # the case split, the returned point must satisfy the linearized
        # constraint or the true harvest constraint
        for seed in range(200):
            rng = np.random.default_rng(5000 + seed)
            data = make_phase_data(rng, 5)
            anchor = unit_phases(rng, 5)
            base = mm_prepare(data, anchor)
            w = data.g.conj() + dense_form(data.upsilon_factor) @ anchor
            j0 = eh_slack(0.0, base)
            if j0 >= -1e-9:
                continue
            q_hat = 0.5 * j0    # negative, above J(0)
            anchor_quad = float(np.real(np.vdot(
                anchor, dense_form(data.upsilon_factor) @ anchor)))
            data.q_resid = q_hat - anchor_quad
            state = mm_prepare(data, anchor)
            nxt, p = price_bisection(state, data)
            lin_ok = (2.0 * np.real(np.vdot(nxt.anchor, w))
                      >= q_hat - 1e-9 * max(1.0, abs(q_hat)))
            true_ok = nxt.reflected >= data.q_resid - 1e-12
            assert lin_ok or true_ok
            if not lin_ok:
                assert p == 0.0

    def test_tight_price_meets_bound(self):
        hits = 0
        for seed in range(30):
            r = np.random.default_rng(200 + seed)
            data = make_phase_data(r, 5)
            anchor = unit_phases(r, 5)
            state = mm_prepare(data, anchor)
            # choose a bound between J(0) and the reachable limit, keeping
            # q_resid consistent so the true constraint matches the bound
            j0 = eh_slack(0.0, state)
            j_inf = 2.0 * float(np.sum(np.abs(
                data.g.conj() + dense_form(data.upsilon_factor) @ anchor)))
            if j_inf <= j0 + 1e-9:
                continue
            q_hat = 0.5 * (j0 + j_inf)
            anchor_quad = float(np.real(np.vdot(
                anchor, dense_form(data.upsilon_factor) @ anchor)))
            data.q_resid = q_hat - anchor_quad
            state = mm_prepare(data, anchor)
            assert state.q_hat == pytest.approx(q_hat, rel=1e-12)
            nxt, p = price_bisection(state, data)
            if p > 0.0:
                hits += 1
                j_at = eh_slack(p, state)
                assert abs(j_at - q_hat) <= 1e-6 * max(1.0, abs(q_hat))
                assert 2.0 * np.real(np.vdot(
                    nxt.anchor, data.g.conj()
                    + dense_form(data.upsilon_factor) @ anchor)) >= q_hat * (1 - 1e-9)
        assert hits >= 10

    def test_unreachable_bound_raises(self):
        rng = np.random.default_rng(14)
        data = make_phase_data(rng, 4)
        anchor = unit_phases(rng, 4)
        j_inf = 2.0 * float(np.sum(np.abs(
            data.g.conj() + dense_form(data.upsilon_factor) @ anchor)))
        anchor_quad = float(np.real(np.vdot(
            anchor, dense_form(data.upsilon_factor) @ anchor)))
        data.q_resid = 2.0 * j_inf + 1.0 - anchor_quad
        bad = mm_prepare(data, anchor)
        assert bad.q_hat > j_inf
        with pytest.raises(InfeasibleSubproblemError):
            price_bisection(bad, data)

    def test_saturated_bound_keeps_the_better_point(self):
        # q_hat equal to the reachable slack 2 sum |w|: J(p) only approaches
        # it as p grows, so no bracket exists and the map keeps whichever of
        # the aligned point and the anchor scores higher on 2 Re{phi^H q}.
        saturated = 0
        for seed in range(40):
            rng = np.random.default_rng(9000 + seed)
            data = make_phase_data(rng, 5)
            anchor = unit_phases(rng, 5)
            upsilon = dense_form(data.upsilon_factor)
            w = data.g.conj() + upsilon @ anchor
            data.q_resid = (2.0 * float(np.sum(np.abs(w)))
                            - float(np.real(np.vdot(anchor, upsilon @ anchor))))
            state = mm_prepare(data, anchor)
            nxt, p = price_bisection(state, data)
            again = mm_prepare(data, nxt.anchor)
            for fld in fields(nxt):
                assert np.array_equal(getattr(nxt, fld.name),
                                      getattr(again, fld.name)), fld.name
            if p != float(2 ** MAX_DOUBLINGS):
                continue
            saturated += 1
            best = max((unit_phase(w), anchor),
                       key=lambda phi: 2.0 * np.real(np.vdot(phi, state.q)))
            np.testing.assert_allclose(nxt.anchor, best, rtol=0, atol=1e-12)
        assert saturated >= 30

    def test_map_from_an_off_circle_anchor_is_feasible_and_unit_modulus(self):
        # The harvest form is convex, so its linearization at any anchor
        # bounds it from below, and the map from an extrapolated anchor
        # meets the true constraint.  In the saturated branch such an
        # anchor is not a candidate, even where it scores higher.
        sat = priced = anchor_scored_higher = 0
        for seed in range(60):
            rng = np.random.default_rng(9500 + seed)
            data = make_phase_data(rng, 5)
            cur, prev = (mm_prepare(data, unit_phases(rng, 5)) for _ in range(2))
            y = mm_extrapolate(cur, prev, 0.9, data)
            assert np.max(np.abs(np.abs(y.anchor) - 1.0)) > 1e-3
            upsilon_form = float(np.real(np.vdot(y.y_proj, y.y_proj)))
            j0 = eh_slack(0.0, y)
            j_limit = 2.0 * float(np.sum(np.abs(y.w)))
            saturate = seed % 2 == 0
            q_hat = j_limit if saturate else j0 + 0.9 * (j_limit - j0)
            data.q_resid = q_hat - upsilon_form
            y = mm_extrapolate(cur, prev, 0.9, data)
            nxt, p = price_bisection(y, data)
            assert np.max(np.abs(np.abs(nxt.anchor) - 1.0)) < 1e-12
            harvest = float(np.real(
                np.vdot(nxt.anchor, dense_form(data.upsilon_factor)
                        @ nxt.anchor) + 2.0 * np.vdot(nxt.anchor, data.g.conj())))
            tol = 1e-9 * max(1.0, abs(data.q_resid))
            assert harvest >= data.q_resid - tol
            assert nxt.reflected >= data.q_resid - tol
            if p == float(2 ** MAX_DOUBLINGS):
                sat += 1
                aligned = unit_phase(y.w)
                np.testing.assert_array_equal(nxt.anchor, aligned)
                anchor_scored_higher += (np.real(np.vdot(y.anchor, y.q))
                                         > np.real(np.vdot(aligned, y.q)))
            elif p > 0.0:
                priced += 1
        assert sat >= 12 and priced >= 8 and anchor_scored_higher >= 12

    def test_global_optimality_on_exhaustive_grid(self):
        # two-element subproblems solved by brute force over 720^2 phases
        for seed in range(6):
            rng = np.random.default_rng(300 + seed)
            data = make_phase_data(rng, 2)
            anchor = unit_phases(rng, 2)
            state = mm_prepare(data, anchor)
            w = data.g.conj() + dense_form(data.upsilon_factor) @ anchor
            j0 = eh_slack(0.0, state)
            j_inf = 2.0 * float(np.sum(np.abs(w)))
            q_hat = j0 + 0.7 * (j_inf - j0)
            state = replace(state, q_hat=q_hat)
            nxt, p = price_bisection(state, data)
            value = 2.0 * np.real(np.vdot(nxt.anchor, state.q))
            grid = phase_grid_best(state.q, w, q_hat)
            if grid is None:
                continue
            bound = 2.0 * float(np.sum(np.abs(state.q))) * (2 * np.pi / 720)
            assert value >= grid - bound


class TestPhaseSolve:
    def test_monotone_objective_and_feasible_iterates(self):
        for seed in range(50):
            rng = np.random.default_rng(400 + seed)
            cfg = bench_config()
            ch, phi, f, u, w = wmmse_state(rng, cfg)
            data = assemble_phase_qcqp(u, w, f, ch, cfg)
            qbar = 0.5 * (mm_prepare(data, phi).reflected
                          + data.direct_harvest)
            cfg_q = bench_config(qbar=qbar)
            phi_out, traj = phase_solve(u, w, f, ch, phi, cfg_q)
            objectives = [it.objective for it in traj]
            for a, b in zip(objectives, objectives[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))
            for it in traj:
                assert it.harvest >= qbar * (1.0 - 1e-6)
            assert np.max(np.abs(np.abs(phi_out) - 1.0)) < 1e-12

    def test_improves_rate_objective(self):
        rng = np.random.default_rng(15)
        cfg = bench_config(qbar=0.0)
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        h_before = wmmse_objective(w, u, f, phi, ch, cfg)
        phi_out, _ = phase_solve(u, w, f, ch, phi, cfg)
        h_after = wmmse_objective(w, u, f, phi_out, ch, cfg)
        assert h_after >= h_before - 1e-9

    def test_kkt_residual_at_convergence(self, monkeypatch):
        rng = np.random.default_rng(18)
        cfg = bench_config()
        ch, phi, f, u, w = wmmse_state(rng, cfg)
        data = assemble_phase_qcqp(u, w, f, ch, cfg)
        qbar = 0.9 * (mm_prepare(data, phi).reflected + data.direct_harvest)
        cfg_q = bench_config(qbar=qbar)
        monkeypatch.setattr(phase_module, "MM_EPS", 1e-12)
        monkeypatch.setattr(phase_module, "MM_MAX_ITER", 2000)
        phi_star, _ = phase_solve(u, w, f, ch, phi, cfg_q)
        # Stationarity: Xi phi + v* - nu (g* + Upsilon phi) must lie along
        # j*phi entrywise after the unit-modulus multipliers absorb the
        # radial component; solve for nu >= 0 in least squares.
        grad = dense_form(data.xi_factor) @ phi_star + data.v.conj()
        cons = data.g.conj() + dense_form(data.upsilon_factor) @ phi_star
        slack = (mm_prepare(data, phi_star).reflected
                 - (qbar - data.direct_harvest))
        c0 = np.imag(phi_star.conj() * grad)
        c1 = np.imag(phi_star.conj() * cons)
        if slack > 1e-6 * max(1.0, abs(qbar)):
            nu = 0.0
        else:
            nu = max(0.0, float(np.dot(c0, c1) / max(np.dot(c1, c1), 1e-300)))
        residual = np.linalg.norm(c0 - nu * c1)
        assert residual < 1e-5 * max(1.0, np.linalg.norm(grad))


def first_phase_block(seed, m=40):
    """(U, W, F, channels, phi, config) as the first phase block of a
    default-config solve sees them: the solver's start from the feasibility
    check's point (a zero-sweep solve), one MMSE refresh and one precoder
    solve, at M elements, ER 4 m and IR 100 m from the BS.  There the block
    starts at harvest-maximizing phases, where plain MM crawls."""
    cfg = SystemConfig(n_elements=m)
    ch = generate_scenario(cfg, Geometry(er_center=4.0, ir_center=100.0), seed)
    feasible, f, phi, _ = feasibility_check(ch, cfg)
    assert feasible
    f = bcd_solve(ch, cfg, (f, phi), n_max=0).f
    eff = effective_channels(ch, phi, cfg)
    u, w, _ = mmse_refresh(f, eff, cfg)
    f, _ = sca_precoder_solve(u, w, eff, f, cfg)
    return u, w, f, ch, phi, cfg


class TestMomentum:
    @pytest.mark.parametrize("n_max", [1, 2, 3, 7])
    def test_every_map_counts_against_the_budget(self, monkeypatch, n_max):
        u, w, f, ch, phi, cfg = first_phase_block(1)
        maps = count_calls(monkeypatch, phase_module, "price_bisection")
        monkeypatch.setattr(phase_module, "MM_EPS", 0.0)
        monkeypatch.setattr(phase_module, "MM_MAX_ITER", n_max)
        _, traj = phase_solve(u, w, f, ch, phi, cfg)
        assert len(traj) - 1 <= len(maps) <= n_max
        # no momentum before the third map: the first two are plain MM's
        _, plain = phase_solve_plain(u, w, f, ch, phi, cfg, eps=0.0, n_max=2)
        assert traj[:3] == plain[:len(traj)]

    @pytest.mark.parametrize("n_max, kept", [(6, 4), (7, 5)])
    @pytest.mark.parametrize("reason", ["solver-error", "objective", "harvest"])
    def test_rejected_momentum_map_restarts_with_the_plain_map(
            self, monkeypatch, reason, n_max, kept):
        # Replace every extrapolated state by one whose map is refused:
        # the state at the unconstrained minimizer of f, which is below the
        # harvest threshold, with an unreachable harvest bound (its priced
        # solve raises) or with none (it maps to a point with f no higher
        # than plain MM's but below the threshold); or the state at phi_0,
        # which maps to phi_1, whose f is above f(phi_k) for k >= 2.  Each
        # refusal is
        # a restart that still spends a priced solve, so the loop is plain
        # MM map for map: two plain maps, then a refused one, and so on.
        checked = 0
        for seed in range(20):
            rng = np.random.default_rng(700 + seed)
            cfg = bench_config(m=8)
            ch, phi, f, u, w = wmmse_state(rng, cfg)
            free, _ = phase_solve_plain(u, w, f, ch, phi, cfg, eps=0.0,
                                        n_max=1000)
            data = assemble_phase_qcqp(u, w, f, ch, cfg)
            q_free = mm_prepare(data, free).reflected + data.direct_harvest
            q_start = mm_prepare(data, phi).reflected + data.direct_harvest
            if q_free >= q_start:
                continue
            cfg_q = bench_config(m=8, qbar=0.5 * (q_free + q_start))
            data = assemble_phase_qcqp(u, w, f, ch, cfg_q)
            at_free = mm_prepare(data, free)
            bound = {"solver-error": np.inf, "harvest": -np.inf}.get(reason)
            _, plain = phase_solve_plain(u, w, f, ch, phi, cfg_q, eps=0.0,
                                         n_max=n_max)
            escape = price_bisection(replace(at_free, q_hat=-np.inf), data)[0]
            if (not plain[1].objective > plain[2].objective
                    or escape.objective > plain[-1].objective
                    or escape.reflected >= data.q_resid):
                continue
            offered = []

            def refused(cur, prev, beta, data):
                offered.append(beta)
                if reason == "objective":
                    return mm_prepare(data, np.asarray(phi, dtype=complex))
                return replace(at_free, q_hat=bound)

            monkeypatch.setattr(phase_module, "mm_extrapolate", refused)
            maps = count_calls(monkeypatch, phase_module, "price_bisection")
            monkeypatch.setattr(phase_module, "MM_EPS", 0.0)
            monkeypatch.setattr(phase_module, "MM_MAX_ITER", n_max)
            phi_out, traj = phase_solve(u, w, f, ch, phi, cfg_q)
            monkeypatch.undo()
            assert offered == [0.25, 0.25]
            assert len(maps) == n_max
            assert traj == plain[:kept + 1]
            phi_plain, _ = phase_solve_plain(u, w, f, ch, phi, cfg_q, eps=0.0,
                                             n_max=kept)
            assert np.array_equal(phi_out, phi_plain)
            for it in traj:
                assert it.harvest >= cfg_q.eh_threshold * (1.0 - 1e-6)
            checked += 1
        assert checked >= 3

    def test_reaches_the_plain_optimum_in_fewer_maps(self, monkeypatch):
        # The value plain MM reaches within 5,000 maps (or at its own stop),
        # to the stop rule's relative resolution; the maps each loop needs
        # to get there, on seeds fixed in advance.
        monkeypatch.setattr(phase_module, "MM_MAX_ITER", 5000)
        n_plain, n_fast = [], []
        for seed in (1, 2, 3, 4, 5, 6):
            u, w, f, ch, phi, cfg = first_phase_block(seed)
            _, plain = phase_solve_plain(u, w, f, ch, phi, cfg, n_max=5000)
            target = plain[-1].objective + MM_EPS * abs(plain[-1].objective)
            _, fast = phase_solve(u, w, f, ch, phi, cfg)
            for traj, counts in ((plain, n_plain), (fast, n_fast)):
                counts.append(next((i for i, it in enumerate(traj)
                                    if it.objective <= target), np.inf))
        assert mean(n_fast) < mean(n_plain)
