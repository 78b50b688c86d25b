"""Phase block: unit-modulus QCQP solved by MM with a price mechanism.

With U, W, F fixed, the phase update minimizes

    f(phi) = phi^H Xi phi + 2 Re{phi^H v*},    Xi = B o C^T (Hadamard),

subject to |phi_m| = 1 and the harvest constraint

    phi^H Upsilon phi + 2 Re{phi^H g*} >= q_resid,

where q_resid is the harvest threshold minus the phase-independent direct
term.  Both quadratics are Hadamard products of low-rank PSD matrices, and
rank(A o B) <= rank A rank B, so they are carried as tall factors,

    Xi = X X^H,     X = [p_i o c_j],  B = P P^H,    C^T = c c^H,
    Upsilon = Y Y^H, Y = [r_i o c_j], G_r = R R^H,

with P = [sqrt(omega_k) H_r,k^H U_k L_k] (W_k = L_k L_k^H), R = [sqrt(alpha_l
eta) G_r,l^H] and c = conj(Z [F_1 ... F_K]).  X has (K_I d)^2 columns and Y
has K_E N_E K_I d, so no M x M matrix is formed: v and g are row-wise sums,
lambda_max(Xi) is the top eigenvalue of the small Gram X^H X, and every
product with Xi or Upsilon is X (X^H phi) or Y (Y^H phi), O(M r) per MM
step.  The assembly builds every user's columns of P and of the linear term
in one batched product and both factors in one Hadamard product of the
stacked [P R] with c, so X and Y are column blocks of one array, and each
MM anchor is projected once, onto its conjugate.  Each MM step majorizes
the quadratic with lambda_max(Xi) I and linearizes the harvest quadratic at
the anchor, leaving

    max 2 Re{phi^H q}   s.t.  |phi_m| = 1,  2 Re{phi^H w} >= q_hat,

whose global optimum is phi_m = exp(j arg(q_m + p w_m)) for a price p >= 0
chosen so the constraint slackness J(p) = 2 Re{phi(p)^H w} hits q_hat;
J is non-decreasing in p, so the shared bracketed root search applies.

One MM map T(phi), price_bisection, is that priced solve at the anchor
phi, prepared as the next anchor.  phase_solve runs T through the shared
restarted-momentum driver (linalg._momentum): from the third map after the
start or after a restart it maps from y_k = phi_k + beta_k (phi_k -
phi_{k-1}), beta_k = (k-1)/(k+2), which is not projected onto the unit
circle.  q, w and the projection Y^H phi are affine in the anchor, so the
state at y_k is the same combination of the last two states, with no
product with the factors.  The harvest form is convex, so its
linearization at any anchor is a global lower bound and the map from y_k
meets the true constraint like any other.  That map is kept when f there is
no higher than f(phi_k) and the true harvest constraint holds; otherwise,
or when its priced solve fails, the loop restarts (k = 0) with the plain
map T(phi_k).  Every priced solve counts against the map budget and only
kept maps add a trajectory entry, so each recorded iterate is a feasible,
unit-modulus MM output and f never rises along the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleSubproblemError, SolverError
from .linalg import (MAX_DOUBLINGS, _bracketed_root, _momentum, _settled,
                     frob_sq, herm, unit_phase)
from .scenario import ChannelSet, SystemConfig


MM_EPS = 1e-6
MM_MAX_ITER = 175


@dataclass
class PhaseQcqpData:
    """Factored forms of the phase subproblem (fixed while phi iterates)."""

    factors: np.ndarray         # (M, r + r') [X Y], Xi = X X^H, Upsilon = Y Y^H
    r: int                      # columns of X
    v: np.ndarray               # (M,) objective linear term (diagonal of V)
    g: np.ndarray               # (M,) harvest linear term (diagonal of G_br)
    q_resid: float              # harvest threshold minus the direct-path term
    lam_max: float              # max eigenvalue of Xi
    direct_harvest: float       # phase-independent harvested power
    xi_factor: np.ndarray = field(init=False)       # X, a view of factors
    upsilon_factor: np.ndarray = field(init=False)  # Y, a view of factors
    factors_conj: np.ndarray = field(init=False)    # conj([X Y])
    v_conj: np.ndarray = field(init=False)
    g_conj: np.ndarray = field(init=False)

    def __post_init__(self):
        self.xi_factor = self.factors[:, :self.r]
        self.upsilon_factor = self.factors[:, self.r:]
        self.factors_conj = self.factors.conj()
        self.v_conj, self.g_conj = self.v.conj(), self.g.conj()


@dataclass
class MmState:
    """One majorization anchor: the linearized subproblem max 2Re{phi^H q}.

    At an extrapolated anchor (mm_extrapolate) f and the reflected harvest
    are not evaluated and read nan; the priced map reads neither."""

    anchor: np.ndarray      # (M,) anchor phi^(n), unit-modulus unless extrapolated
    y_proj: np.ndarray      # Y^H anchor
    q: np.ndarray           # (lam_max I - Xi) anchor - v*
    q_hat: float            # linearized harvest right-hand side
    w: np.ndarray           # g* + Upsilon anchor, the linearized harvest gradient
    objective: float        # f(anchor)
    reflected: float        # anchor^H Upsilon anchor + 2 Re{anchor^H g*}

    @cached_property
    def affine(self) -> np.ndarray:
        """[anchor, q, w, Y^H anchor]: the fields affine in the anchor, in
        one array, so a combination of two states is one combination."""
        return np.concatenate((self.anchor, self.q, self.w, self.y_proj))


class PhaseIterate(NamedTuple):
    objective: float        # f(phi)
    harvest: float          # true weighted harvested power at phi


def _hadamard_factor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columns a_i o b_j, so (A A^H) o (B B^H) is this times its ^H."""
    m = a.shape[0]
    return (a[:, :, None] * b[:, None, :]).reshape(m, a.shape[1] * b.shape[1])


def assemble_phase_qcqp(u: np.ndarray, w: np.ndarray, f: np.ndarray,
                        channels: ChannelSet,
                        config: SystemConfig) -> PhaseQcqpData:
    """Reduce the rate objective and harvest constraint to factored forms."""
    m = config.n_elements
    omegas = np.asarray(config.rate_weights)
    alpha_eta = config.eh_efficiency * np.asarray(config.eh_weights)
    f_cat = np.concatenate(f, axis=1)                   # [F_1 ... F_K]
    f_tilde = f_cat @ herm(f_cat)
    c_bar = np.conj(channels.z @ f_cat)                 # C^T = c_bar c_bar^H

    scale = np.sqrt(alpha_eta)[:, None, None]
    g_b = (scale * channels.g_b).reshape(-1, config.n_bs_antennas)
    g_r = (scale * channels.g_r).reshape(g_b.shape[0], m)   # G_r = g_r^H g_r
    g = np.einsum("mn,nm->m", channels.z @ (f_tilde @ herm(g_b)), g_r)
    direct = frob_sq(g_b @ f_cat)

    chol = np.linalg.cholesky(w)                        # W_k = L_k L_k^H
    uh_b = herm(u) @ channels.h_b                       # (K_I, d, N_B)
    # P = [sqrt(omega_k) H_r,k^H U_k L_k], all users in one product
    p = np.sqrt(omegas)[:, None, None] * herm(channels.h_r) @ u @ chol
    t = omegas[:, None, None] * (f_tilde @ herm(uh_b) - f) @ w @ herm(u)
    h_r = channels.h_r.reshape(config.n_irs * config.n_ir_antennas, m)
    v = np.einsum("mn,nm->m", channels.z @ np.concatenate(t, axis=1), h_r)

    # [X Y] = [P R] o c_bar in one product, R = g_r^H
    p_cat = np.concatenate((*p, herm(g_r)), axis=1)
    factors = _hadamard_factor(p_cat, c_bar)
    r = p.shape[0] * p.shape[2] * c_bar.shape[1]
    x = factors[:, :r]
    lam_max = float(np.linalg.eigvalsh(herm(x) @ x)[-1])
    return PhaseQcqpData(factors=factors, r=r, v=v, g=g,
                         q_resid=config.eh_threshold - direct,
                         lam_max=lam_max, direct_harvest=direct)


def mm_prepare(data: PhaseQcqpData, phi_anchor: np.ndarray) -> MmState:
    """Majorize at the anchor: q = (lam_max I - Xi) anchor - v*, and the
    harvest bound 2 Re{phi^H w} >= q_hat with w = g* + Upsilon anchor and
    q_hat = q_resid + anchor^H Upsilon anchor.  One product with the stacked
    conj([X Y]) projects the anchor onto both factors, which also gives
    f(anchor) and the reflected harvest there."""
    proj = phi_anchor @ data.factors_conj      # [X Y]^H anchor
    x_proj, y_proj = proj[:data.r], proj[data.r:]
    upsilon_form = float(np.vdot(y_proj, y_proj).real)
    return MmState(
        anchor=phi_anchor,
        y_proj=y_proj,
        q=data.lam_max * phi_anchor - data.xi_factor @ x_proj - data.v_conj,
        q_hat=data.q_resid + upsilon_form,
        w=data.g_conj + data.upsilon_factor @ y_proj,
        objective=float(np.vdot(x_proj, x_proj).real
                        + 2.0 * np.vdot(phi_anchor, data.v_conj).real),
        reflected=upsilon_form
        + 2.0 * float(np.vdot(phi_anchor, data.g_conj).real))


def mm_extrapolate(cur: MmState, prev: MmState, beta: float,
                   data: PhaseQcqpData) -> MmState:
    """The state at y = cur + beta (cur - prev), off the unit circle.  The
    anchor, q, w and Y^H anchor are affine in the anchor, so each is the
    same combination of the two states' fields, and q_hat = q_resid +
    ||Y^H y||^2 follows with no product with the factors."""
    m = cur.anchor.shape[0]
    affine = (1.0 + beta) * cur.affine - beta * prev.affine
    y_proj = affine[3 * m:]
    return MmState(anchor=affine[:m], y_proj=y_proj, q=affine[m:2 * m],
                   q_hat=data.q_resid + float(np.vdot(y_proj, y_proj).real),
                   w=affine[2 * m:3 * m], objective=np.nan, reflected=np.nan)


def phase_closed_form(p: float, state: MmState) -> np.ndarray:
    """Global optimum of the priced subproblem: align with q + p w."""
    return unit_phase(state.q + p * state.w)


def eh_slack(p: float, state: MmState) -> float:
    """J(p) = 2 Re{phi(p)^H (g* + Upsilon anchor)}, the left side of the
    linearized harvest bound at the priced optimum; non-decreasing in p."""
    return 2.0 * float(np.vdot(phase_closed_form(p, state), state.w).real)


def price_bisection(state: MmState,
                    data: PhaseQcqpData) -> tuple[MmState, float]:
    """One MM map: the priced solve at the anchor, prepared as the next
    anchor, and the price that made the linearized harvest bound tight.

    Case I: the unpriced solution is kept at p = 0 when it satisfies the
    linearized constraint, or the true harvest constraint directly (the
    linearization is conservative, so this keeps the iterate feasible while
    never giving up objective; it is the usual exit when the direct path
    already covers the threshold and q_hat <= 0).  Case II: a bracketed
    search on p using the monotonicity of J(p); the returned phi sits on
    the feasible side of the bracket.
    """
    q_hat = state.q_hat
    nxt = mm_prepare(data, unit_phase(state.q))
    j0 = 2.0 * float(np.vdot(nxt.anchor, state.w).real)    # eh_slack(0)
    if j0 >= q_hat or nxt.reflected >= data.q_resid:
        return nxt, 0.0

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
        # better of the two preserves the descent argument.  An anchor off
        # the unit circle (an extrapolated one) is not a candidate.
        candidates = [unit_phase(state.w)]
        if np.max(np.abs(np.abs(state.anchor) - 1.0)) <= 1e-12:
            candidates.append(state.anchor)
        best = max(candidates,
                   key=lambda phi: float(np.real(np.vdot(phi, state.q))))
        return mm_prepare(data, best), float(2 ** MAX_DOUBLINGS)

    p = _bracketed_root(lambda x: q_hat - eh_slack(x, state), q_hat - j0)
    return mm_prepare(data, phase_closed_form(p, state)), p


def phase_solve(u: np.ndarray, w: np.ndarray, f: np.ndarray,
                channels: ChannelSet, phi_init: np.ndarray,
                config: SystemConfig) -> tuple[np.ndarray, list[PhaseIterate]]:
    """MM over priced subproblems with restarted momentum, up to MM_MAX_ITER
    priced solves.

    Needs M > 0 and a unit-modulus phi_init that meets the true harvest
    constraint with f (bcd_solve checks every sweep); every iterate then
    remains feasible and f(phi) is non-increasing.  The trajectory holds
    phi_init and one entry per kept map; the loop stops when f changes by
    less than MM_EPS relative over one kept map.
    """
    data = assemble_phase_qcqp(u, w, f, channels, config)
    state = mm_prepare(data, np.asarray(phi_init, dtype=complex))
    trajectory = [PhaseIterate(state.objective,
                               state.reflected + data.direct_harvest)]
    for prev, state in _momentum(
            lambda x: price_bisection(x, data)[0],
            lambda x, prev, beta: _momentum_map(x, prev, beta, data),
            state, MM_MAX_ITER):
        trajectory.append(PhaseIterate(state.objective,
                                       state.reflected + data.direct_harvest))
        if _settled(state.objective, prev.objective, MM_EPS):
            break
    return state.anchor, trajectory


def _momentum_map(cur: MmState, prev: MmState, beta: float,
                  data: PhaseQcqpData) -> MmState | None:
    """T(y) at y = cur + beta (cur - prev) if it meets the true harvest
    constraint with f no higher than f(cur); None, a restart, otherwise or
    when the priced solve at y fails."""
    try:
        nxt = price_bisection(mm_extrapolate(cur, prev, beta, data), data)[0]
    except SolverError:
        return None
    if nxt.objective <= cur.objective and nxt.reflected >= data.q_resid:
        return nxt
    return None
