"""Shared instance builders and independent oracles for the test suite.

Everything here deliberately avoids the library's solver code paths: the
oracles recompute quantities from their definitions (explicit diagonal
matrices, eigen/SVD decompositions, exhaustive grids, projected gradient)
so that agreement with the production implementations is meaningful.
"""

from dataclasses import replace

import numpy as np

import irs_swipt.feasibility as feasibility
from irs_swipt import SystemConfig, effective_channels
from irs_swipt.bcd import mmse_refresh
from irs_swipt.linalg import (_momentum, herm, hermitian_solve,
                              hermitianize, inverse_logdet_pd)
from irs_swipt.metrics import EffectiveChannels
from irs_swipt.phase import (MmState, PhaseIterate, PhaseQcqpData,
                             assemble_phase_qcqp, mm_prepare, price_bisection)
from irs_swipt.scenario import (TWO_PI, ChannelSet, path_loss_linear,
                                steering_vector)


def crandn(rng, *shape, scale=1.0):
    """i.i.d. complex Gaussian entries with E|x|^2 = scale^2."""
    return scale * (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def unit_phases(rng, m):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))


def bench_config(n_bs=4, n_ir=2, n_er=2, k_i=2, k_e=2, d=2, m=6,
                 p_t=10.0, qbar=0.0, sigma2=1.0, eta=0.5,
                 rate_weights=(), eh_weights=()):
    """Unit-scale configuration for randomized algebraic tests."""
    return SystemConfig(
        n_bs_antennas=n_bs, n_ir_antennas=n_ir, n_er_antennas=n_er,
        n_irs=k_i, n_ers=k_e, n_streams=d, n_elements=m,
        power_budget=p_t, eh_threshold=qbar, eh_efficiency=eta,
        rate_weights=rate_weights, eh_weights=eh_weights,
        noise_power_ir=sigma2)


def random_channels(rng, config, scale=1.0):
    """Channel matrices with i.i.d. unit-power entries (no geometry)."""
    m, nb = config.n_elements, config.n_bs_antennas
    return ChannelSet(
        z=crandn(rng, m, nb, scale=scale),
        h_b=crandn(rng, config.n_irs, config.n_ir_antennas, nb, scale=scale),
        h_r=crandn(rng, config.n_irs, config.n_ir_antennas, m, scale=scale),
        g_b=crandn(rng, config.n_ers, config.n_er_antennas, nb, scale=scale),
        g_r=crandn(rng, config.n_ers, config.n_er_antennas, m, scale=scale))


def random_precoders(rng, config, power=None):
    """Random precoders scaled to total power (defaults to the budget)."""
    f = crandn(rng, config.n_irs, config.n_bs_antennas, config.n_streams)
    target = config.power_budget if power is None else power
    return f * np.sqrt(target / max(np.sum(np.abs(f) ** 2), 1e-300))


def count_calls(monkeypatch, module, name):
    """Replace module.name by a pass-through that records each call's
    positional arguments; returns the (live) list of recorded calls."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def wmmse_state(rng, config, channels=None, phi=None, f=None):
    """A consistent (channels, phi, F, U, W) tuple around a random point."""
    if channels is None:
        channels = random_channels(rng, config)
    if phi is None:
        phi = unit_phases(rng, config.n_elements)
    if f is None:
        f = random_precoders(rng, config)
    u, w, _ = mmse_refresh(f, effective_channels(channels, phi, config),
                           config)
    return channels, phi, f, u, w


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def effective_channel_direct(h_b, h_r, phi, z):
    """Composite channel via an explicit diagonal matrix product."""
    return h_b + h_r @ np.diag(phi) @ z


def wsr_direct(f, phi, channels, config):
    """Weighted sum rate in nats from determinant ratios, no library calls."""
    sigma2 = config.noise_power_ir
    total = 0.0
    for k in range(config.n_irs):
        hbar = effective_channel_direct(channels.h_b[k], channels.h_r[k],
                                        phi, channels.z)
        j = sigma2 * np.eye(config.n_ir_antennas, dtype=complex)
        for mth in range(config.n_irs):
            if mth != k:
                hf = hbar @ f[mth]
                j += hf @ herm(hf)
        hf = hbar @ f[k]
        sign, logdet_full = np.linalg.slogdet(j + hf @ herm(hf))
        sign2, logdet_j = np.linalg.slogdet(j)
        total += config.rate_weights[k] * float(np.real(logdet_full - logdet_j))
    return total


def wsr_gradient(f, phi, channels, config):
    """Analytic conjugate gradient of the weighted sum rate w.r.t. F.

    d WSR = 2 Re <grad_k, dF_k>; used to validate finite differences of the
    production rate evaluation.
    """
    sigma2 = config.noise_power_ir
    k_i = config.n_irs
    hbars = [effective_channel_direct(channels.h_b[k], channels.h_r[k],
                                      phi, channels.z) for k in range(k_i)]
    grad = np.zeros_like(f)
    for m in range(k_i):
        hbar = hbars[m]
        j = sigma2 * np.eye(config.n_ir_antennas, dtype=complex)
        for i in range(k_i):
            if i != m:
                hf = hbar @ f[i]
                j += hf @ herm(hf)
        hf_m = hbar @ f[m]
        omega = j + hf_m @ herm(hf_m)
        om = config.rate_weights[m]
        omega_inv_h = np.linalg.solve(omega, hbar)
        j_inv_h = np.linalg.solve(j, hbar)
        for k in range(k_i):
            grad[k] += om * herm(hbar) @ omega_inv_h @ f[k]
            if k != m:
                grad[k] -= om * herm(hbar) @ j_inv_h @ f[k]
    return grad


def mmse_refresh_loop(f, eff, config):
    """The MMSE refresh one user at a time: C_k summed over m, then one
    checked solve for U_k and one checked factor of E_k per user.  The
    reference for the batched bcd.mmse_refresh; returns (U, W, wsr_nats)."""
    sigma2 = config.noise_power_ir
    d = config.n_streams
    eye_d = np.eye(d, dtype=complex)
    u = np.empty((config.n_irs, config.n_ir_antennas, d), dtype=complex)
    w = np.empty((config.n_irs, d, d), dtype=complex)
    wsr_nats = 0.0
    for k in range(config.n_irs):
        hbar = eff.hbar[k]
        cov = sigma2 * np.eye(config.n_ir_antennas, dtype=complex)
        for m in range(config.n_irs):
            hf = hbar @ f[m]
            cov += hf @ herm(hf)
        hf_k = hbar @ f[k]
        u_k = hermitian_solve(cov, hf_k)
        u[k] = u_k
        e_star = hermitianize(eye_d - herm(hf_k) @ u_k)
        w[k], logdet_e = inverse_logdet_pd(e_star)
        wsr_nats -= config.rate_weights[k] * logdet_e
    return u, w, wsr_nats


def _project_one(factor, phi):
    """factor^H phi, without conjugating the (M, r) factor."""
    return (phi.conj() @ factor).conj()


def _form_value_one(proj, phi, lin):
    """phi^H F F^H phi + 2 Re{phi^H lin*} from the projection F^H phi."""
    return float(np.real(np.vdot(proj, proj))
                 + 2.0 * np.real(np.vdot(phi, lin.conj())))


def mm_prepare_two_projections(data, phi_anchor):
    """The MM anchor state with the anchor projected onto X and onto Y
    separately; the reference for phase.mm_prepare's stacked projection."""
    x_proj = _project_one(data.xi_factor, phi_anchor)
    y_proj = _project_one(data.upsilon_factor, phi_anchor)
    return MmState(
        anchor=phi_anchor,
        y_proj=y_proj,
        q=data.lam_max * phi_anchor - data.xi_factor @ x_proj - data.v.conj(),
        q_hat=data.q_resid + float(np.real(np.vdot(y_proj, y_proj))),
        w=data.g.conj() + data.upsilon_factor @ y_proj,
        objective=_form_value_one(x_proj, phi_anchor, data.v),
        reflected=_form_value_one(y_proj, phi_anchor, data.g))


def phase_data(x, y, v, g, q_resid=0.0, lam_max=0.0, direct_harvest=0.0):
    """PhaseQcqpData from separate Xi and Upsilon factors X and Y."""
    return PhaseQcqpData(factors=np.concatenate((x, y), axis=1),
                         r=x.shape[1], v=v, g=g, q_resid=q_resid,
                         lam_max=lam_max, direct_harvest=direct_harvest)


def phase_solve_plain(u, w, f, channels, phi_init, config, eps=1e-6,
                      n_max=200):
    """The phase block as plain MM: one map price_bisection(state) per
    step, stopped when f changes by at most eps relative or after n_max
    maps.  The reference for phase.phase_solve's momentum loop (it uses the
    library's map, so the two differ only in the anchors they map from);
    returns (phi, trajectory) as phase_solve does."""
    data = assemble_phase_qcqp(u, w, f, channels, config)
    state = mm_prepare(data, np.asarray(phi_init, dtype=complex))
    trajectory = [PhaseIterate(state.objective,
                               state.reflected + data.direct_harvest)]
    for _ in range(n_max):
        state, _ = price_bisection(state, data)
        trajectory.append(PhaseIterate(state.objective,
                                       state.reflected + data.direct_harvest))
        f_prev, f_new = trajectory[-2].objective, state.objective
        if abs(f_new - f_prev) <= eps * max(abs(f_new), 1e-30):
            break
    return state.anchor, trajectory


def waterfill_capacity(hbar, sigma2, p_total):
    """Single-user MIMO capacity (nats) by water-filling over the eigenmodes."""
    gains = np.linalg.svd(hbar, compute_uv=False) ** 2 / sigma2
    gains = np.sort(gains[gains > 1e-30])[::-1]
    for r in range(len(gains), 0, -1):
        g = gains[:r]
        level = (p_total + np.sum(1.0 / g)) / r
        powers = level - 1.0 / g
        if powers[-1] >= -1e-12:
            return float(np.sum(np.log1p(np.maximum(powers, 0.0) * g)))
    return 0.0


def precoder_terms_per_user(u, w, hbar, rate_weights):
    """A = sum_k omega_k Hbar_k^H U_k W_k U_k^H Hbar_k and
    L_k = omega_k Hbar_k^H U_k W_k, one user at a time."""
    a = np.zeros((hbar.shape[2], hbar.shape[2]), dtype=complex)
    lin = []
    for k, om in enumerate(rate_weights):
        hu = herm(hbar[k]) @ u[k]
        a += om * hu @ w[k] @ herm(hu)
        lin.append(om * hu @ w[k])
    return a, np.array(lin)


def sca_objective_per_user(f, a, lin):
    """z(F) = sum_k tr(F_k^H A F_k) - 2 Re sum_k tr(L_k^H F_k)."""
    return sum(float(np.real(np.trace(herm(f[k]) @ a @ f[k])))
               - 2.0 * float(np.real(np.trace(herm(lin[k]) @ f[k])))
               for k in range(len(f)))


def mu_per_user(lam, data, cutoff=1e-12):
    """Harvest multiplier from its per-user definition in A's eigenbasis.

    c0 = 2 sum_k Re<Gt_k, inv Lt_k> and den = 2 sum_k Re<Gt_k, inv Gt_k>,
    with inv the diagonal of (A + lambda I)^+ (eigen-directions below
    cutoff times the largest shifted eigenvalue map to zero); mu is 0 when
    c0 >= q_tilde and (q_tilde - c0) / den otherwise.
    """
    shifted = data.values + lam
    floor = cutoff * max(float(shifted.max()), 1e-300)
    inv = np.where(shifted > floor, 1.0 / np.maximum(shifted, floor), 0.0)
    c0 = 0.0
    den = 0.0
    for k in range(len(data.lin)):
        c0 += 2.0 * float(np.real(np.vdot(data.gfa_proj[k],
                                          inv[:, None] * data.lin_proj[k])))
        den += 2.0 * float(np.real(np.vdot(data.gfa_proj[k],
                                           inv[:, None] * data.gfa_proj[k])))
    if c0 >= data.q_tilde:
        return 0.0
    return (data.q_tilde - c0) / den


def bisection_root(excess, eps=1e-8, slack_tol=np.inf, max_doublings=60):
    """Smallest x >= 0 with excess(x) <= 0 by plain doubling and bisection.

    The reference for linalg._bracketed_root, with the same stop rule
    (bracket within eps * max(1, hi), excess at hi within slack_tol of
    zero, or float resolution exhausted).  Returns the feasible end of the
    final bracket.
    """
    hi, doublings = 1.0, 0
    e_hi = excess(hi)
    while e_hi > 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > max_doublings:
            raise ValueError("could not bracket the root")
        e_hi = excess(hi)
    lo = hi / 2.0 if doublings > 0 else 0.0

    for _ in range(256):
        bracket_done = hi - lo <= eps * max(1.0, hi)
        if bracket_done and -e_hi <= slack_tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:    # float resolution exhausted
            break
        e_mid = excess(mid)
        if e_mid > 0.0:
            lo = mid
        else:
            hi, e_hi = mid, e_mid
    return hi


def project_ball_halfspace(x, radius, a, c):
    """Euclidean projection onto {||y|| <= radius} cut by {Re<a, y> >= c}.

    Arrays are treated as vectors in the real inner product Re<u, v>.
    """
    def ip(u, v):
        return float(np.real(np.vdot(u, v)))

    na2 = ip(a, a)
    nx = np.sqrt(ip(x, x))
    if na2 <= 0.0:
        if c > 1e-12:
            raise ValueError("empty constraint set")
        return x if nx <= radius else x * (radius / nx)
    if ip(a, x) >= c and nx <= radius:
        return x
    y = x + max(0.0, (c - ip(a, x)) / na2) * a
    if np.sqrt(ip(y, y)) <= radius * (1.0 + 1e-12):
        return y
    y = x * (radius / max(nx, 1e-300))
    if ip(a, y) >= c - 1e-12 * max(1.0, abs(c)):
        return y
    # Both constraints active: project onto the rim where the plane
    # Re<a, y> = c cuts the sphere of the given radius.
    ahat = a / np.sqrt(na2)
    offset = c / np.sqrt(na2)
    if offset > radius * (1.0 + 1e-9):
        raise ValueError("ball and halfspace do not intersect")
    rim = np.sqrt(max(radius ** 2 - offset ** 2, 0.0))
    x_perp = x - ip(ahat, x) * ahat
    npx = np.sqrt(ip(x_perp, x_perp))
    if npx < 1e-300:
        return offset * ahat
    return offset * ahat + rim * x_perp / npx


def pg_quadratic_solver(a_mat, lin, gfa, q_tilde, p_t, f_start,
                        iters=20000):
    """Accelerated projected gradient for the convex precoder subproblem.

    minimize   sum_k tr(F_k^H A F_k) - 2 Re sum_k tr(L_k^H F_k)
    subject to sum_k ||F_k||^2 <= p_t,  2 Re sum_k <G F_anchor_k, F_k> >= q_tilde
    """
    lip = max(float(np.linalg.eigvalsh(a_mat)[-1]), 1e-9)
    step = 1.0 / lip
    radius = np.sqrt(p_t)

    def objective(f):
        val = 0.0
        for k in range(len(f)):
            val += float(np.real(np.vdot(f[k], a_mat @ f[k])))
            val -= 2.0 * float(np.real(np.vdot(lin[k], f[k])))
        return val

    f = project_ball_halfspace(f_start, radius, gfa, q_tilde / 2.0)
    y = f.copy()
    t = 1.0
    best = (objective(f), f)
    for _ in range(iters):
        grad = np.einsum("ij,kjd->kid", a_mat, y) - lin
        f_new = project_ball_halfspace(y - step * grad, radius, gfa,
                                       q_tilde / 2.0)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = f_new + ((t - 1.0) / t_new) * (f_new - f)
        f, t = f_new, t_new
        val = objective(f)
        if val < best[0]:
            best = (val, f)
    return best[1], best[0]


def phase_grid_best(q, w, q_hat, points=720):
    """Exhaustive search of the M = 2 priced subproblem on a phase grid.

    Returns the best feasible value of 2 Re{phi^H q} over the grid, or None
    if no grid point satisfies 2 Re{phi^H w} >= q_hat.
    """
    theta = np.arange(points) * 2.0 * np.pi / points
    e = np.exp(1j * theta)
    obj = 2.0 * np.real(np.conj(e)[:, None] * q[0] + np.conj(e)[None, :] * q[1])
    slack = 2.0 * np.real(np.conj(e)[:, None] * w[0] + np.conj(e)[None, :] * w[1])
    feasible = slack >= q_hat
    if not feasible.any():
        return None
    return float(obj[feasible].max())


def rician_channel(rows: int, cols: int, beta: float, aoa: float, aod: float,
                   rng: np.random.Generator,
                   spacing_ratio: float = 0.5) -> np.ndarray:
    """Unit-average-power Rician fading matrix.

    sqrt(beta/(beta+1)) * a_rows(aoa) a_cols(aod)^H + sqrt(1/(beta+1)) * N,
    with N i.i.d. standard complex Gaussian.  beta = 0 reduces to Rayleigh.
    """
    if beta < 0.0:
        raise ValueError("Rician factor must be non-negative")
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=complex)
    nlos = (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    if beta == 0.0:     # the line-of-sight term draws nothing from rng
        return nlos
    los = np.outer(steering_vector(rows, aoa, spacing_ratio),
                   steering_vector(cols, aod, spacing_ratio).conj())
    return np.sqrt(beta / (beta + 1.0)) * los + np.sqrt(1.0 / (beta + 1.0)) * nlos


def _disk_points(rng: np.random.Generator, center_x: float, radius: float,
                 count: int) -> np.ndarray:
    """Uniform points over a disk (sqrt-radius sampling), shape (count, 2)."""
    r = radius * np.sqrt(rng.random(count))
    theta = TWO_PI * rng.random(count)
    return np.column_stack((center_x + r * np.cos(theta), r * np.sin(theta)))


def rician_channel_both_terms(rows, cols, beta, aoa, aod, rng,
                              spacing_ratio=0.5):
    """The Rician draw with both terms always formed, the line-of-sight one
    scaled by sqrt(beta/(beta+1)) even when that weight is 0."""
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=complex)
    los = np.outer(steering_vector(rows, aoa, spacing_ratio),
                   steering_vector(cols, aod, spacing_ratio).conj())
    nlos = (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return np.sqrt(beta / (beta + 1.0)) * los + np.sqrt(1.0 / (beta + 1.0)) * nlos



def _rician_link(rng, rows, cols, beta, spacing) -> np.ndarray:
    aoa = rng.uniform(0.0, TWO_PI)
    aod = rng.uniform(0.0, TWO_PI)
    return rician_channel(rows, cols, beta, aoa, aod, rng, spacing)


def _rayleigh_link(rng, rows, cols) -> np.ndarray:
    return rician_channel(rows, cols, 0.0, 0.0, 0.0, rng)


def generate_scenario_loops(config, geometry, seed):
    """The scenario draw as two link wrappers and four preallocate-and-fill
    loops, one scalar angle draw at a time (without the final shape and
    finiteness check).  The reference the one-helper-per-link
    generate_scenario must equal bit for bit."""
    rng = np.random.default_rng(seed)
    m, nb = config.n_elements, config.n_bs_antennas
    ni, ne = config.n_ir_antennas, config.n_er_antennas
    beta, spacing = config.rician_factor, config.antenna_spacing_ratio

    bs = np.asarray(geometry.bs_position)
    irs = np.asarray(geometry.irs_position)
    er_pos = _disk_points(rng, geometry.er_center, geometry.er_radius, config.n_ers)
    ir_pos = _disk_points(rng, geometry.ir_center, geometry.ir_radius, config.n_irs)

    def gain(a, b, alpha):
        dist = float(np.hypot(*(a - b)))
        if dist <= 0.0:
            raise ValueError("node placement produced a zero-length link")
        return np.sqrt(path_loss_linear(dist, alpha, geometry.pl0_db, geometry.d0))

    z = gain(bs, irs, geometry.alpha_bs_irs) * _rician_link(rng, m, nb, beta, spacing)

    h_b = np.empty((config.n_irs, ni, nb), dtype=complex)
    h_r = np.empty((config.n_irs, ni, m), dtype=complex)
    for k in range(config.n_irs):
        h_b[k] = gain(bs, ir_pos[k], geometry.alpha_bs_ir) * _rayleigh_link(rng, ni, nb)
    for k in range(config.n_irs):
        h_r[k] = gain(irs, ir_pos[k], geometry.alpha_irs_ir) * _rayleigh_link(rng, ni, m)

    g_b = np.empty((config.n_ers, ne, nb), dtype=complex)
    g_r = np.empty((config.n_ers, ne, m), dtype=complex)
    for el in range(config.n_ers):
        g_b[el] = gain(bs, er_pos[el], geometry.alpha_bs_er) * _rician_link(
            rng, ne, nb, beta, spacing)
    for el in range(config.n_ers):
        g_r[el] = gain(irs, er_pos[el], geometry.alpha_irs_er) * _rician_link(
            rng, ne, m, beta, spacing)

    return ChannelSet(z=z, h_b=h_b, h_r=h_r, g_b=g_b, g_r=g_r)

def harvest_direct(f, phi, channels, config):
    """Weighted harvested power from the per-ER definition, no library calls."""
    total = 0.0
    for el in range(config.n_ers):
        gbar = effective_channel_direct(channels.g_b[el], channels.g_r[el],
                                        phi, channels.z)
        q_l = 0.0
        for k in range(config.n_irs):
            q_l += float(np.real(np.vdot(gbar @ f[k], gbar @ f[k])))
        total += config.eh_weights[el] * config.eh_efficiency * q_l
    return total


def effective_channels_loop(channels, phi, config):
    """The effective channels with G summed one ER at a time: the reference
    that the batched G build must equal to the bit."""
    phi = np.asarray(phi, dtype=complex)
    phi_z = phi[:, None] * channels.z                       # diag(phi) @ Z
    hbar = channels.h_b + channels.h_r @ phi_z
    gbar = channels.g_b + channels.g_r @ phi_z
    alphas = np.asarray(config.eh_weights)
    g = np.zeros((config.n_bs_antennas, config.n_bs_antennas), dtype=complex)
    for el in range(config.n_ers):
        g += alphas[el] * config.eh_efficiency * herm(gbar[el]) @ gbar[el]
    return EffectiveChannels(hbar=hbar, gbar=gbar, g=hermitianize(g))


def energy_precoder_loop(b, config):
    """The rank-one energy beamformer along the unit beam b, filled one IR
    at a time with an equal share of P_T on stream column 0."""
    f = np.zeros((config.n_irs, config.n_bs_antennas, config.n_streams),
                 dtype=complex)
    amp = np.sqrt(config.power_budget / config.n_irs)
    for k in range(config.n_irs):
        f[k, :, 0] = amp * b
    return f


def eh_steps_loop(channels, config):
    """The two steps of the feasibility alternation on full effective
    channels: (the energy beam b and Q = lambda_max(G) P_T from eff.g,
    written out from its definition; the phase step from b and eff.gbar,
    feasibility.max_eh_phase_step on feasibility.eh_phase_weights, whose
    formula TestMaxEhPhaseStep pins against an oracle)."""
    w_r = feasibility.eh_phase_weights(channels, config)

    def max_eh_beam(eff):
        w, v = np.linalg.eigh(hermitianize(eff.g))
        return v[:, -1], float(w[-1]) * config.power_budget

    def max_eh_phase_step(b, eff):
        return feasibility.max_eh_phase_step(b, eff.gbar, channels.z, w_r)

    return max_eh_beam, max_eh_phase_step


def feasibility_check_loop(channels, config, max_iter=200, stall_rtol=1e-8):
    """The momentum-accelerated feasibility alternation through the shared
    driver, with a full effective-channel build (effective_channels_loop)
    per step and the ER composites at an extrapolated point combined from
    the last two builds; returns (feasible, F, phi, Q) with F filled from
    the best beam.  The reference that feasibility_check must equal to the
    bit."""
    max_eh_beam, max_eh_phase_step = eh_steps_loop(channels, config)
    qbar = config.eh_threshold

    def at(phi):
        eff = effective_channels_loop(channels, phi, config)
        return (*max_eh_beam(eff), phi, eff)

    def mapped(x):
        return at(max_eh_phase_step(x[0], x[3]))

    def extrapolated(x, prev, beta):
        gbar = (1.0 + beta) * x[3].gbar - beta * prev[3].gbar
        nxt = at(max_eh_phase_step(x[0], replace(x[3], gbar=gbar)))
        return nxt if nxt[1] >= x[1] else None

    b, q, phi, _ = start = at(np.ones(config.n_elements, dtype=complex))
    best = (q >= qbar, b, phi, q)
    if not (q >= qbar or config.n_elements == 0):
        for prev, (b, q, phi, _) in _momentum(mapped, extrapolated, start,
                                              max_iter):
            if q > best[3]:
                best = (q >= qbar, b, phi, q)
            if q >= qbar or abs(q - prev[1]) <= stall_rtol * max(q, 1e-300):
                break
    feasible, b, phi, q = best
    return feasible, energy_precoder_loop(b, config), phi, q


def plain_driver(mapped, extrapolated, x, budget):
    """linalg._momentum with no extrapolation: one mapped(x) per budget
    step, each yielded as (prev, x)."""
    for _ in range(budget):
        prev, x = x, mapped(x)
        yield prev, x


def feasibility_check_plain(channels, config, max_iter=200, stall_rtol=1e-8):
    """The feasibility alternation as a plain fixed-point loop, with a full
    effective-channel build (effective_channels_loop) per step; returns
    (feasible, F, phi, Q) with F filled from the best beam.  The reference
    for the accelerated loop's quality, and its output to the bit where two
    steps decide."""
    max_eh_beam, max_eh_phase_step = eh_steps_loop(channels, config)

    qbar = config.eh_threshold
    phi = np.ones(config.n_elements, dtype=complex)
    eff = effective_channels_loop(channels, phi, config)
    b, q = max_eh_beam(eff)
    best = (q >= qbar, b, phi, q)
    for _ in range(0 if q >= qbar or config.n_elements == 0 else max_iter):
        phi = max_eh_phase_step(b, eff)
        eff = effective_channels_loop(channels, phi, config)
        b, q_new = max_eh_beam(eff)
        if q_new > best[3]:
            best = (q_new >= qbar, b, phi, q_new)
        if q_new >= qbar or abs(q_new - q) <= stall_rtol * max(q_new, 1e-300):
            break
        q = q_new
    feasible, b, phi, q = best
    return feasible, energy_precoder_loop(b, config), phi, q


def harvest_gradient_fd(f, phi, channels, config, step=1e-4):
    """Wirtinger gradient dQ/dphi* = (dQ/dRe phi_m + j dQ/dIm phi_m) / 2 of
    the harvest Q(phi) = eta sum_l alpha_l ||(G_b,l + G_r,l diag(phi) Z) F||^2,
    by central differences of harvest_direct off the unit circle (exact for
    a quadratic up to rounding)."""
    grad = np.zeros(len(phi), dtype=complex)
    for mth in range(len(phi)):
        partial = []
        for direction in (1.0, 1j):
            e = np.zeros(len(phi), dtype=complex)
            e[mth] = step * direction
            partial.append((harvest_direct(f, phi + e, channels, config)
                            - harvest_direct(f, phi - e, channels, config))
                           / (2.0 * step))
        grad[mth] = 0.5 * (partial[0] + 1j * partial[1])
    return grad


def dense_phase_forms(u, w, f, channels, config):
    """The phase quadratics as dense M x M Hadamard products.

    Returns (Xi, Upsilon, v, g, direct_harvest, obj_const) with
    Xi = B o C^T, Upsilon = G_r o C^T, v = diag(V) and g = diag(Z F~ G_br),
    built from their definitions.
    """
    m = config.n_elements
    eta = config.eh_efficiency
    alphas = config.eh_weights
    f_tilde = np.zeros((config.n_bs_antennas, config.n_bs_antennas), dtype=complex)
    for k in range(config.n_irs):
        f_tilde += f[k] @ herm(f[k])
    c = channels.z @ f_tilde @ herm(channels.z)             # (M, M)

    g_b = np.zeros((config.n_bs_antennas, config.n_bs_antennas), dtype=complex)
    upsilon = np.zeros((m, m), dtype=complex)               # G_r, then G_r o C^T
    cross = np.zeros((config.n_bs_antennas, m), dtype=complex)
    for el in range(config.n_ers):
        g_b += alphas[el] * eta * herm(channels.g_b[el]) @ channels.g_b[el]
        upsilon += alphas[el] * eta * herm(channels.g_r[el]) @ channels.g_r[el]
        cross += alphas[el] * eta * herm(channels.g_b[el]) @ channels.g_r[el]
    upsilon = hermitianize(hermitianize(upsilon) * c.T)
    g = np.diag(channels.z @ f_tilde @ cross).copy()
    direct = float(np.real(np.trace(g_b @ f_tilde)))

    b = np.zeros((m, m), dtype=complex)
    vmat = np.zeros((m, m), dtype=complex)
    obj_const = 0.0
    for k in range(config.n_irs):
        om = config.rate_weights[k]
        h_r, h_b = channels.h_r[k], channels.h_b[k]
        uwu = u[k] @ w[k] @ herm(u[k])                      # (N_I, N_I)
        b += om * herm(h_r) @ uwu @ h_r
        vmat += om * channels.z @ f_tilde @ herm(h_b) @ uwu @ h_r
        vmat -= om * channels.z @ f[k] @ w[k] @ herm(u[k]) @ h_r
        obj_const += om * float(np.real(np.trace(uwu @ h_b @ f_tilde @ herm(h_b))))
        obj_const -= 2.0 * om * float(
            np.real(np.trace(w[k] @ herm(u[k]) @ h_b @ f[k])))

    xi = hermitianize(hermitianize(b) * c.T)
    return xi, upsilon, np.diag(vmat).copy(), g, direct, obj_const


def dense_form(factor):
    """The dense quadratic F F^H of a phase factor (Xi from X, Upsilon from Y)."""
    return factor @ herm(factor)
