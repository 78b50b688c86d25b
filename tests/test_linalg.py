import numpy as np
import pytest

from irs_swipt import effective_channels, harvested_power_quadratic
from irs_swipt.errors import BracketError, ConditioningError
from irs_swipt.linalg import (MAX_CONDITION, MAX_DOUBLINGS, ROOT_EPS,
                              _bracketed_root, _momentum, _settled, herm,
                              hermitian_solve, inverse_logdet_pd, unit_phase)
from irs_swipt.phase import eh_slack, mm_prepare
from irs_swipt.precoder import (_probe, build_quadratic, power_of_lambda,
                                precoder_closed_form)

from helpers import (bench_config, bisection_root, crandn, unit_phases,
                     wmmse_state)
from test_phase import make_phase_data


def dual_excess(seed):
    """P(lambda) - p_t on a C2-style instance whose harvest threshold is
    half the lambda = 0 harvest, so mu > 0 at large lambda."""
    rng = np.random.default_rng(20_000 + seed)
    cfg = bench_config()
    ch, phi, f, u, w = wmmse_state(rng, cfg)
    eff = effective_channels(ch, phi, cfg)
    data = build_quadratic(u, w, eff, f, cfg, eh_threshold=0.0)
    q0 = harvested_power_quadratic(precoder_closed_form(0.0, 0.0, data), eff.g)
    data = data.with_anchor(f, 0.5 * q0)
    p0 = power_of_lambda(0.0, data)
    p_t = 0.5 * (p0 + power_of_lambda(1e12, data))
    return data, (lambda lam: power_of_lambda(lam, data) - p_t), p0 - p_t, p_t


def price_excess(seed):
    """q_hat - J(p) on a make_phase_data instance in Case II."""
    rng = np.random.default_rng(30_000 + seed)
    data = make_phase_data(rng, 6)
    state = mm_prepare(data, unit_phases(rng, 6))
    j0 = eh_slack(0.0, state)
    q_hat = j0 + 0.75 * (2.0 * float(np.sum(np.abs(state.w))) - j0)
    return (lambda p: q_hat - eh_slack(p, state)), q_hat - j0


class TestUnitPhase:
    def test_signed_zeros_map_to_one(self):
        # a product with a zero factor can carry -0.0 parts, whose arctan2
        # is +-pi, not 0
        z = np.array([complex(-0.0, -0.0), complex(-0.0, 0.0),
                      complex(0.0, -0.0), 0j])
        assert np.all(unit_phase(z) == 1.0)

    def test_nonzero_entries_keep_their_angle(self):
        rng = np.random.default_rng(50)
        z = np.concatenate([crandn(rng, 64), [complex(-0.0, 2.0),
                                              complex(-0.0, -2.0), -3.0]])
        np.testing.assert_array_equal(unit_phase(z), np.exp(1j * np.angle(z)))


class TestSettled:
    def test_change_equal_to_the_tolerance_does_not_stop(self):
        # |new - old| = 0.25 = rtol |new|, exactly in binary
        assert not _settled(1.0, 1.25, 0.25)
        assert _settled(1.0, 1.25, 0.25 + 2.0 ** -52)

    def test_zero_tolerance_never_stops(self):
        for new, old in ((1.0, 1.0), (0.0, 0.0), (-3.0, -3.0), (1.0, 2.0)):
            assert not _settled(new, old, 0.0)

    def test_signed_values_scale_by_the_magnitude_of_new(self):
        # the phase objective f can be negative
        assert _settled(-100.0, -100.5, 1e-2)
        assert not _settled(-100.0, -102.0, 1e-2)
        assert _settled(-100.0, -99.5, 1e-2)
        assert not _settled(1.0, -1.0, 1.0)

    def test_floor_at_new_zero(self):
        assert _settled(0.0, 1e-31, 1.0)
        assert not _settled(0.0, 1e-29, 1.0)
        assert _settled(0.0, 0.0, 1e-8)


class TestBracketedRoot:
    def test_constant_excess_raises_bracket_error(self):
        calls = []

        def excess(x):
            calls.append(x)
            return 1.0

        with pytest.raises(BracketError):
            _bracketed_root(excess, 1.0)
        assert calls == [2.0 ** i for i in range(MAX_DOUBLINGS + 1)]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_plain_bisection(self, seed):
        data, excess, at_zero, p_t = dual_excess(seed)
        tol = ROOT_EPS * p_t
        lam = _bracketed_root(excess, at_zero, slack_tol=tol)
        ref = bisection_root(excess, slack_tol=tol)
        assert excess(lam) <= 0.0
        assert -excess(lam) <= tol
        assert abs(lam - ref) <= ROOT_EPS * max(1.0, lam, ref)
        assert _probe(lam, data)[1] > 0.0

        excess, at_zero = price_excess(seed)
        p = _bracketed_root(excess, at_zero)
        ref = bisection_root(excess)
        assert excess(p) <= 0.0
        assert abs(p - ref) <= ROOT_EPS * max(1.0, p, ref)

    def test_root_at_bracket_start(self):
        # the root lies exactly on a doubling point and on a bisection point
        for root in (1.0, 4.0, 0.25):
            x = _bracketed_root(lambda x: root - x, root)
            assert x >= root and x - root <= ROOT_EPS * max(1.0, root)


class TestMomentumDriver:
    """_momentum on the contraction x -> A x + b with A = diag(0.99, 0.5),
    whose slow mode makes plain iteration crawl.  The extrapolated map is
    kept when it lowers the distance to the fixed point (a function-value
    restart), or by a fixed schedule; calls records each call in order,
    "m" for mapped and the beta for extrapolated."""

    A, B = np.array([0.99, 0.5]), np.array([1.0, -2.0])
    FIXED = B / (1.0 - A)

    def run(self, budget, keep=None, tol=1e-10):
        """(kept points, prevs yielded with them, calls); keep(x, nxt)
        decides an extrapolated map, by default on the distance to the
        fixed point."""
        if keep is None:
            def keep(x, nxt):
                return (np.linalg.norm(nxt - self.FIXED)
                        <= np.linalg.norm(x - self.FIXED))
        calls = []

        def mapped(x):
            calls.append("m")
            return self.A * x + self.B

        def extrapolated(x, prev, beta):
            calls.append(beta)
            nxt = self.A * (x + beta * (x - prev)) + self.B
            return nxt if keep(x, nxt) else None

        points, prevs = [], []
        for prev, x in _momentum(mapped, extrapolated, np.zeros(2), budget):
            prevs.append(prev)
            points.append(x)
            if np.max(np.abs(x - self.FIXED)) <= tol:
                break
        return points, prevs, calls

    def test_reaches_the_fixed_point_in_fewer_calls(self):
        points, _, calls = self.run(10_000)
        assert np.max(np.abs(points[-1] - self.FIXED)) <= 1e-10
        plain, x = 0, np.zeros(2)
        while np.max(np.abs(x - self.FIXED)) > 1e-10:
            plain, x = plain + 1, self.A * x + self.B
        assert len(calls) < plain / 10

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 8])
    def test_refused_calls_count_against_the_budget(self, budget):
        points, prevs, calls = self.run(budget, keep=lambda x, nxt: False,
                                        tol=0.0)
        assert len(calls) == budget
        # each refusal restarts: two plain maps before the next offer
        assert calls == (["m", "m", 0.25] * budget)[:budget]
        assert len(points) == calls.count("m")
        # prev is the last kept point, so every kept point is its map
        np.testing.assert_array_equal(prevs[0], np.zeros(2))
        for prev, x in zip(prevs, points):
            np.testing.assert_array_equal(x, self.A * prev + self.B)

    def test_no_extrapolation_before_the_third_call(self):
        # a kept run extrapolates from the third call on with beta_k =
        # (k-1)/(k+2); after a restart (the fourth call refused) the count
        # starts over
        points, _, calls = self.run(8, tol=0.0, keep=lambda x, nxt: True)
        assert calls == ["m", "m", 1 / 4, 2 / 5, 3 / 6, 4 / 7, 5 / 8, 6 / 9]
        assert len(points) == 8
        verdicts = iter([True, False, True, True, True])
        _, _, calls = self.run(9, tol=0.0,
                               keep=lambda x, nxt: next(verdicts))
        assert calls == ["m", "m", 1 / 4, 2 / 5, "m", "m", 1 / 4, 2 / 5,
                         3 / 6]

    @pytest.mark.parametrize("budget", [3, 6])
    def test_refusal_on_the_last_call_ends_the_run(self, budget):
        points, _, calls = self.run(budget, keep=lambda x, nxt: False,
                                    tol=0.0)
        assert calls[-1] == 0.25 and len(calls) == budget
        assert len(points) == budget - budget // 3

    def test_budget_zero_yields_nothing(self):
        points, _, calls = self.run(0)
        assert points == [] and calls == []


class TestHermitianSolve:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5):
            x = crandn(rng, n, n)
            a = x @ herm(x) + 0.1 * np.eye(n)
            b = crandn(rng, n, 3)
            got, ref = hermitian_solve(a, b), np.linalg.solve(a, b)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestInverseLogdet:
    def test_matches_dense_inverse_and_slogdet(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5):
            x = crandn(rng, n, n)
            a = x @ herm(x) + 0.1 * np.eye(n)
            inv, logdet = inverse_logdet_pd(a)
            assert np.allclose(inv @ a, np.eye(n), atol=1e-10)
            assert logdet == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-12)

    def test_ill_conditioned_raises(self):
        with pytest.raises(ConditioningError):
            inverse_logdet_pd(np.diag([1.0, 1e-14]).astype(complex))


class TestBatchedFactorization:
    def pd_stack(self, rng, count, n):
        x = crandn(rng, count, n, n)
        return x @ herm(x) + 0.1 * np.eye(n)

    def test_stack_matches_matrix_by_matrix(self):
        rng = np.random.default_rng(4)
        a = self.pd_stack(rng, 3, 4)
        b = crandn(rng, 3, 4, 2)
        x = hermitian_solve(a, b)
        inv, logdet = inverse_logdet_pd(a)
        assert inv.shape == a.shape and logdet.shape == (3,)
        for k in range(3):
            np.testing.assert_array_equal(x[k], hermitian_solve(a[k], b[k]))
            inv_k, logdet_k = inverse_logdet_pd(a[k])
            np.testing.assert_array_equal(inv[k], inv_k)
            assert logdet[k] == logdet_k

    def test_half_the_bound_passes(self):
        # condition MAX_CONDITION / 2: the check is no stricter than the bound
        a = np.stack((np.eye(2), np.diag([1.0, 2.0 / MAX_CONDITION])))
        a = a.astype(complex)
        b = np.ones((2, 2, 1), dtype=complex)
        np.testing.assert_allclose(hermitian_solve(a, b)[1, :, 0],
                                   [1.0, 0.5 * MAX_CONDITION], rtol=1e-12)
        inv, logdet = inverse_logdet_pd(a)
        np.testing.assert_allclose(np.diagonal(inv[1]).real,
                                   [1.0, 0.5 * MAX_CONDITION], rtol=1e-12)
        assert logdet[1] == pytest.approx(np.log(2.0 / MAX_CONDITION),
                                          rel=1e-12)

    @pytest.mark.parametrize("second", [
        np.diag([1.0, 0.5 / MAX_CONDITION]),    # twice the bound
        np.diag([1.0, 0.0]),                    # singular
        np.diag([1.0, -1e-3]),                  # indefinite
    ])
    def test_only_second_matrix_bad_raises(self, second):
        a = np.stack((np.eye(2), second)).astype(complex)
        b = np.ones((2, 2, 1), dtype=complex)
        with pytest.raises(ConditioningError):
            hermitian_solve(a, b)
        with pytest.raises(ConditioningError):
            inverse_logdet_pd(a)
