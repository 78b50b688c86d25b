"""Phase block: unit-modulus QCQP solved by MM with a price mechanism.

With U, W, F fixed, the phase update minimizes

    f(phi) = phi^H Xi phi + 2 Re{phi^H v*},    Xi = B o C^T (Hadamard),

subject to |phi_m| = 1 and the harvest constraint

    phi^H Upsilon phi + 2 Re{phi^H g*} >= q_resid,

where q_resid is the harvest threshold minus the phase-independent direct
term.  Each MM step majorizes the quadratic with lambda_max(Xi) I and
linearizes the harvest quadratic at the anchor, leaving

    max 2 Re{phi^H q}   s.t.  |phi_m| = 1,  2 Re{phi^H w} >= q_hat,

whose global optimum is phi_m = exp(j arg(q_m + p w_m)) for a price p >= 0
chosen so the constraint slackness J(p) = 2 Re{phi(p)^H w} hits q_hat;
J is non-decreasing in p, so bisection applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleSubproblemError
from .linalg import herm, hermitianize, unit_phase
from .scenario import ChannelSet, SystemConfig


PRICE_EPS = 1e-8
MM_EPS = 1e-6
MM_MAX_ITER = 200
MAX_DOUBLINGS = 60


@dataclass
class PhaseQcqpData:
    """Quadratic forms of the phase subproblem (fixed while phi iterates)."""

    xi: np.ndarray          # (M, M) Hermitian PSD objective quadratic
    upsilon: np.ndarray     # (M, M) Hermitian PSD harvest quadratic
    v: np.ndarray           # (M,) objective linear term (diagonal of V)
    g: np.ndarray           # (M,) harvest linear term (diagonal of G_br)
    q_resid: float          # harvest threshold minus the direct-path term
    lam_max: float          # max eigenvalue of xi
    direct_harvest: float   # phase-independent harvested power
    obj_const: float        # phase-independent part of the rate objective


@dataclass
class MmState:
    """One majorization anchor: the linearized subproblem max 2Re{phi^H q}."""

    anchor: np.ndarray      # (M,) unit-modulus anchor phi^(n)
    q: np.ndarray           # (lam_max I - Xi) anchor - v*
    q_hat: float            # linearized harvest right-hand side
    w: np.ndarray           # g* + Upsilon anchor, the linearized harvest gradient


class PhaseIterate(NamedTuple):
    objective: float        # f(phi)
    harvest: float          # true weighted harvested power at phi


def assemble_phase_qcqp(u: np.ndarray, w: np.ndarray, f: np.ndarray,
                        channels: ChannelSet,
                        config: SystemConfig) -> PhaseQcqpData:
    """Reduce the rate objective and harvest constraint to forms in phi."""
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
    lam_max = float(np.linalg.eigvalsh(xi)[-1]) if m else 0.0
    return PhaseQcqpData(
        xi=xi, upsilon=upsilon, v=np.diag(vmat).copy(), g=g,
        q_resid=config.eh_threshold - direct, lam_max=lam_max,
        direct_harvest=direct, obj_const=obj_const)


def phase_objective(phi: np.ndarray, data: PhaseQcqpData) -> float:
    """f(phi) = phi^H Xi phi + 2 Re{phi^H v*}."""
    return float(np.real(np.vdot(phi, data.xi @ phi))
                 + 2.0 * np.real(np.vdot(phi, data.v.conj())))


def reflect_harvest(phi: np.ndarray, data: PhaseQcqpData) -> float:
    """Phase-dependent harvest term phi^H Upsilon phi + 2 Re{phi^H g*}."""
    return float(np.real(np.vdot(phi, data.upsilon @ phi))
                 + 2.0 * np.real(np.vdot(phi, data.g.conj())))


def true_harvest(phi: np.ndarray, data: PhaseQcqpData) -> float:
    """Total weighted harvested power at phi."""
    return reflect_harvest(phi, data) + data.direct_harvest


def _linearize_harvest(data: PhaseQcqpData,
                       phi_anchor: np.ndarray) -> tuple[float, np.ndarray]:
    """(q_hat, w) of the harvest bound 2 Re{phi^H w} >= q_hat at the anchor:
    q_hat = q_resid + anchor^H Upsilon anchor, w = g* + Upsilon anchor."""
    upsilon_anchor = data.upsilon @ phi_anchor
    q_hat = data.q_resid + float(np.real(np.vdot(phi_anchor, upsilon_anchor)))
    return q_hat, data.g.conj() + upsilon_anchor


def mm_prepare(data: PhaseQcqpData, phi_anchor: np.ndarray) -> MmState:
    """Majorize at the anchor: q = (lam_max I - Xi) anchor - v*; (q_hat, w)."""
    q = data.lam_max * phi_anchor - data.xi @ phi_anchor - data.v.conj()
    return MmState(phi_anchor, q, *_linearize_harvest(data, phi_anchor))


def phase_closed_form(p: float, state: MmState,
                      data: PhaseQcqpData) -> np.ndarray:
    """Global optimum of the priced subproblem: align with q + p w."""
    return unit_phase(state.q + p * state.w)


def eh_slack(p: float, state: MmState, data: PhaseQcqpData) -> float:
    """J(p) = 2 Re{phi(p)^H (g* + Upsilon anchor)}, non-decreasing in p."""
    phi = phase_closed_form(p, state, data)
    return 2.0 * float(np.real(np.vdot(phi, state.w)))


def price_bisection(state: MmState, data: PhaseQcqpData,
                    eps: float = PRICE_EPS) -> tuple[np.ndarray, float]:
    """Find the price making the linearized harvest constraint tight.

    Case I: the unpriced solution is kept at p = 0 when it satisfies the
    linearized constraint, or the true harvest constraint directly (the
    linearization is conservative, so this keeps the iterate feasible while
    never giving up objective; it is the usual exit when the direct path
    already covers the threshold and q_hat <= 0).  Case II: bisect on p
    using the monotonicity of J(p); the returned phi sits on the feasible
    side of the bracket.
    """
    q_hat = state.q_hat
    phi0 = phase_closed_form(0.0, state, data)
    if (eh_slack(0.0, state, data) >= q_hat
            or reflect_harvest(phi0, data) >= data.q_resid):
        return phi0, 0.0

    j_limit = 2.0 * float(np.sum(np.abs(state.w)))
    if j_limit < q_hat * (1.0 - 1e-9) - 1e-12:
        raise InfeasibleSubproblemError(
            f"harvest bound {q_hat:.6e} exceeds the reachable slack {j_limit:.6e}")
    if j_limit <= q_hat * (1.0 + 1e-9):
        # The bound saturates the reachable slack (the anchor itself is the
        # tight point, common once the iteration has aligned with the
        # harvest gradient).  J(p) only approaches the limit asymptotically,
        # so no bracket exists; the feasible set is a vanishing neighborhood
        # of the aligned point, which also contains the anchor.  Keeping the
        # better of the two preserves the descent argument.
        aligned = unit_phase(state.w)
        best = max((aligned, state.anchor),
                   key=lambda phi: float(np.real(np.vdot(phi, state.q))))
        return best, float(2 ** MAX_DOUBLINGS)

    p_u = 1.0
    doublings = 0
    while eh_slack(p_u, state, data) < q_hat:
        p_u *= 2.0
        doublings += 1
        if doublings > MAX_DOUBLINGS:
            raise InfeasibleSubproblemError(
                "price doubling exhausted without reaching the harvest bound")
    p_l = p_u / 2.0 if doublings > 0 else 0.0

    while p_u - p_l > eps * max(1.0, p_u):
        mid = 0.5 * (p_l + p_u)
        if eh_slack(mid, state, data) >= q_hat:
            p_u = mid
        else:
            p_l = mid
    return phase_closed_form(p_u, state, data), p_u


def phase_solve(u: np.ndarray, w: np.ndarray, f: np.ndarray,
                channels: ChannelSet, phi_init: np.ndarray,
                config: SystemConfig, eps: float = MM_EPS,
                n_max: int = MM_MAX_ITER
                ) -> tuple[np.ndarray, list[PhaseIterate]]:
    """MM iteration over priced subproblems.

    phi_init must be unit-modulus and satisfy the true harvest constraint;
    every iterate then remains feasible and f(phi) is non-increasing.
    """
    phi = np.asarray(phi_init, dtype=complex)
    data = assemble_phase_qcqp(u, w, f, channels, config)
    if phi.shape != (config.n_elements,):
        raise ValueError("phi_init has the wrong length")
    if config.n_elements == 0:
        return phi, [PhaseIterate(0.0, data.direct_harvest)]
    if np.max(np.abs(np.abs(phi) - 1.0)) > 1e-9:
        raise ValueError("phi_init is not unit-modulus")
    if true_harvest(phi, data) < config.eh_threshold * (1.0 - 1e-6):
        raise ValueError("phi_init violates the harvest constraint")

    trajectory = [PhaseIterate(phase_objective(phi, data),
                               true_harvest(phi, data))]
    for _ in range(n_max):
        state = mm_prepare(data, phi)
        phi_new, _ = price_bisection(state, data)
        f_new = phase_objective(phi_new, data)
        trajectory.append(PhaseIterate(f_new, true_harvest(phi_new, data)))
        f_prev = trajectory[-2].objective
        phi = phi_new
        if abs(f_new - f_prev) <= eps * max(abs(f_new), 1e-30):
            break
    return phi, trajectory
