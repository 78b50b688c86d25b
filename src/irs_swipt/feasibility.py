"""Feasibility check: maximize harvested power over (F, phi) by alternation.

The harvest maximization splits cleanly: for fixed phases, the optimal
precoder is rank-one energy beamforming along the top eigenvector of the
harvest matrix G, giving Q = lambda_max(G) * P_T; for fixed precoders, one
SCA ascent step aligns the phases with the harvest gradient, read from the
ER composites the precoder step was built on, so no M x M form is
assembled.  Both steps can only increase Q.  A map is a phase step and the
precoder step at the new phases, building only gbar and G; FEAS_MAX_ITER
counts maps.  The maps run through the phase block's restarted momentum
(linalg._momentum): from the third map after the start or after a
restart, the phase step is taken from the current F and from the ER
composites at y_k = phi_k + beta_k (phi_k - phi_{k-1}), which are affine
in phi and so are (1 + beta_k) gbar_k - beta_k gbar_{k-1}, with no new
build.  That map is kept if its Q is no lower than Q_k; otherwise the loop
restarts with the plain map, and both count against FEAS_MAX_ITER.  The
alternation stops as soon as a kept map's Q clears the threshold (the
problem is then feasible and the point initializes the BCD solver),
changes by less than STALL_RTOL relative from the map before, or the maps
run out.  No extrapolation comes before two maps, so a check decided
within two steps is the plain alternation's.  The returned F is rank-one;
bcd_solve spreads it over the streams itself, so any feasible (F, phi) is
a start.
"""

from __future__ import annotations

import numpy as np

from .linalg import _momentum, _settled, frob_sq, unit_phase
from .metrics import harvest_channels, harvested_power_quadratic
from .scenario import ChannelSet, SystemConfig

FEAS_MAX_ITER = 200
STALL_RTOL = 1e-8


def max_eh_precoder(g: np.ndarray,
                    config: SystemConfig) -> tuple[np.ndarray, float]:
    """Energy beamforming: split P_T equally over IRs along the top
    eigenvector of the Hermitian harvest matrix g.

    Returns (F, Q) with Q = lambda_max(G) * P_T and sum_k ||F_k||^2 = P_T.
    eigh reads only the lower triangle of g, which harvest_channels makes
    exactly Hermitian, so g is not symmetrized again here.
    """
    w, v = np.linalg.eigh(g)
    f = np.zeros((config.n_irs, config.n_bs_antennas, config.n_streams),
                 dtype=complex)
    f[:, :, 0] = np.sqrt(config.power_budget / config.n_irs) * v[:, -1]
    return f, float(w[-1]) * config.power_budget


def max_eh_phase_step(f: np.ndarray, gbar: np.ndarray, z: np.ndarray,
                      g_r_conj: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """One SCA ascent step on the harvest objective with F fixed.

    gbar holds the ER composites at the anchor phases, z is Z, g_r_conj is
    conj(G_r) and scale the per-ER factors alpha_l * eta.  The step aligns
    with the Wirtinger gradient of Q(phi) = eta sum_l alpha_l ||Gbar_l F||^2,

        w = dQ/dphi* = eta sum_l alpha_l diag(G_r,l^H Gbar_l F~ Z^H),

    contracted from Gbar_l F~ Z^H = (Gbar_l [F_1 ... F_K]) (Z [F_1 ... F_K])^H
    in O(K_E N_E K_I d M) with no M x M array.  Maximizing the linearization
    of the convex Q keeps Q non-decreasing.  Zero gradient entries map to
    phase 1.
    """
    stacked = np.concatenate(f, axis=1)                 # [F_1 ... F_K]
    cross = (gbar @ stacked) @ (z @ stacked).conj().T
    grad = np.einsum("l,lnm,lnm->m", scale, g_r_conj, cross)
    return unit_phase(grad)


def spread_streams(f: np.ndarray, g: np.ndarray,
                   config: SystemConfig) -> np.ndarray:
    """Move power into the zero stream columns of precoder f, aiming for an
    equal split across streams; g is the harvest matrix at f's phases.

    The closed-form decoder/weight/precoder updates all preserve exactly-zero
    precoder columns, so bcd_solve runs this on its start: from the rank-one
    harvest maximizer every user would keep a single stream.  Mixing in
    orthogonal directions (backing off whenever the harvest constraint
    would break) unlocks the remaining streams without losing feasibility.
    The mix starts at full strength and backs off by quarters: a
    full-strength mix converges measurably faster than a faint
    perturbation, which leaves the solver crawling out of the
    near-rank-one saddle.  An f with no zero column comes back unchanged.
    """
    d = config.n_streams
    if d == 1 or not np.any(np.abs(f)):
        return f
    power = frob_sq(f)
    qbar = config.eh_threshold

    # orthonormal completion of the active column(s), per user
    bases = [np.linalg.qr(np.column_stack(
        [f_k, np.eye(config.n_bs_antennas, d, dtype=complex)]))[0] for f_k in f]

    def mixed(delta):
        out = np.array(f, copy=True)
        for k, q_basis in enumerate(bases):
            col_power = frob_sq(f[k]) / d
            for j in range(1, d):
                if np.linalg.norm(out[k, :, j]) == 0.0:
                    out[k, :, j] = np.sqrt(delta * col_power) * q_basis[:, j]
        return out * np.sqrt(power / frob_sq(out))

    delta = 1.0
    while delta > 1e-12:
        candidate = mixed(delta)
        if harvested_power_quadratic(candidate, g) >= qbar:
            return candidate
        delta /= 4.0
    return f


def feasibility_check(channels: ChannelSet, config: SystemConfig) -> tuple:
    """(feasible, F, phi, Q) at the best Q mapped; see the module notes."""
    qbar = config.eh_threshold
    scale = config.eh_efficiency * np.asarray(config.eh_weights)
    g_r_conj = channels.g_r.conj()

    def at(phi: np.ndarray) -> tuple:
        """(F, Q, phi, gbar) with F the energy beamformer at phi."""
        gbar, g = harvest_channels(channels, phi[:, None] * channels.z, scale)
        return (*max_eh_precoder(g, config), phi, gbar)

    def step(f: np.ndarray, gbar: np.ndarray) -> tuple:
        """One map: the phase step from F and the ER composites gbar."""
        return at(max_eh_phase_step(f, gbar, channels.z, g_r_conj, scale))

    def extrapolated(x: tuple, prev: tuple, beta: float) -> tuple | None:
        nxt = step(x[0], (1.0 + beta) * x[3] - beta * prev[3])
        return nxt if nxt[1] >= x[1] else None

    f, q, phi, _ = start = at(np.ones(config.n_elements, dtype=complex))
    best = (q >= qbar, f, phi, q)
    if q >= qbar or config.n_elements == 0:
        return best
    for prev, (f, q, phi, _) in _momentum(lambda x: step(x[0], x[3]),
                                          extrapolated, start, FEAS_MAX_ITER):
        if q > best[3]:
            best = (q >= qbar, f, phi, q)
        if q >= qbar or _settled(q, prev[1], STALL_RTOL):
            break
    return best
