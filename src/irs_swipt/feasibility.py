"""Feasibility check: maximize harvested power over (F, phi) by alternation.

The harvest maximization splits cleanly: for fixed phases, the optimal
precoder is rank-one energy beamforming along the top eigenvector b of the
harvest matrix G, giving Q = lambda_max(G) * P_T; for fixed precoders, one
SCA ascent step aligns the phases with the harvest gradient, read from the
ER composites the beamforming step was built on, so no M x M form is
assembled.  Both steps can only increase Q.  The loop carries the unit
beam b, not the precoder: a map is a phase step from b and the beam at the
new phases, building only gbar and G, and FEAS_MAX_ITER counts maps.  The
rank-one F is filled once per check, at the returned point.  The maps run
through the phase block's restarted momentum (linalg._momentum): from the
third map after the start or after a restart, the phase step is taken
from the current b and from the ER composites at y_k = phi_k + beta_k
(phi_k - phi_{k-1}), which are affine in phi and so are (1 + beta_k)
gbar_k - beta_k gbar_{k-1}, with no new build.  That map is kept if its Q
is no lower than Q_k; otherwise the loop restarts with the plain map, and
both count against FEAS_MAX_ITER.  The alternation stops as soon as a kept
map's Q clears the threshold (the problem is then feasible and the point
initializes the BCD solver), changes by less than STALL_RTOL relative from
the map before, or the maps run out.  No extrapolation comes before two
maps, so a check decided within two steps is the plain alternation's.
The returned F is rank-one; bcd_solve spreads it over the streams itself,
so any feasible (F, phi) is a start.
"""

from __future__ import annotations

import numpy as np

from .linalg import _momentum, _settled, frob_sq, unit_phase
from .metrics import harvest_channels, harvested_power_quadratic
from .scenario import ChannelSet, SystemConfig

FEAS_MAX_ITER = 200
STALL_RTOL = 1e-8


def max_eh_beam(g: np.ndarray,
                config: SystemConfig) -> tuple[np.ndarray, float]:
    """Energy beamforming direction: (b, Q) with b the unit top eigenvector
    of the Hermitian harvest matrix g and Q = lambda_max(G) * P_T.

    eigh reads only the lower triangle of g, which harvest_channels makes
    exactly Hermitian, so g is not symmetrized again here.
    """
    w, v = np.linalg.eigh(g)
    return v[:, -1], float(w[-1]) * config.power_budget


def energy_precoder(b: np.ndarray, config: SystemConfig) -> np.ndarray:
    """The rank-one energy beamformer along the unit beam b: P_T split
    equally over the IRs on stream column 0, so sum_k ||F_k||^2 = P_T."""
    f = np.zeros((config.n_irs, config.n_bs_antennas, config.n_streams),
                 dtype=complex)
    f[:, :, 0] = np.sqrt(config.power_budget / config.n_irs) * b
    return f


def eh_phase_weights(channels: ChannelSet,
                     config: SystemConfig) -> np.ndarray:
    """The weighted reflected ER links of max_eh_phase_step, w_r =
    diag(alpha_l eta) conj(G_r,l) stacked over the ERs (K_E N_E x M)."""
    scale = config.eh_efficiency * np.asarray(config.eh_weights)
    k_e, n_e, m = channels.g_r.shape
    return (scale[:, None, None] * channels.g_r.conj()).reshape(k_e * n_e, m)


def max_eh_phase_step(b: np.ndarray, gbar: np.ndarray, z: np.ndarray,
                      w_r: np.ndarray) -> np.ndarray:
    """One SCA ascent step on the harvest objective with the beam b fixed.

    gbar holds the ER composites at the anchor phases, z is Z and w_r the
    weighted reflected ER links (eh_phase_weights).  For F_k =
    sqrt(P_T / K_I) b on stream 0, the Wirtinger gradient of Q(phi) =
    eta sum_l alpha_l ||Gbar_l F||^2 is

        dQ/dphi* = P_T conj(Z b) o (vec(Gbar b)^T w_r),

    two matrix-vector products (Z b, Gbar b) and one (K_E N_E) x M
    contraction, in O(K_E N_E (N_B + M) + M N_B) with no M x M array.  The
    step drops the positive factor P_T, which the phase does not see.
    Maximizing the linearization of the convex Q keeps Q non-decreasing.
    Zero gradient entries map to phase 1.
    """
    return unit_phase((z @ b).conj() * ((gbar @ b).reshape(-1) @ w_r))


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
    w_r = eh_phase_weights(channels, config)

    def at(phi: np.ndarray) -> tuple:
        """(b, Q, phi, gbar) with b the energy beam at phi."""
        gbar, g = harvest_channels(channels, phi[:, None] * channels.z, scale)
        return (*max_eh_beam(g, config), phi, gbar)

    def step(b: np.ndarray, gbar: np.ndarray) -> tuple:
        """One map: the phase step from b and the ER composites gbar."""
        return at(max_eh_phase_step(b, gbar, channels.z, w_r))

    def extrapolated(x: tuple, prev: tuple, beta: float) -> tuple | None:
        nxt = step(x[0], (1.0 + beta) * x[3] - beta * prev[3])
        return nxt if nxt[1] >= x[1] else None

    best = start = at(np.ones(config.n_elements, dtype=complex))
    if not (start[1] >= qbar or config.n_elements == 0):
        for prev, x in _momentum(lambda x: step(x[0], x[3]), extrapolated,
                                 start, FEAS_MAX_ITER):
            if x[1] > best[1]:
                best = x
            if x[1] >= qbar or _settled(x[1], prev[1], STALL_RTOL):
                break
    b, q, phi, _ = best
    return q >= qbar, energy_precoder(b, config), phi, q
