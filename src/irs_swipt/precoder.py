"""Precoder block: SCA around a convex quadratic subproblem solved in
closed form through Lagrangian duality.

With the decoders U, weights W, and phases fixed, the precoder update
minimizes

    z(F) = sum_k tr(F_k^H A F_k) - 2 Re sum_k tr(L_k^H F_k),
    A = sum_m omega_m Hbar_m^H U_m W_m U_m^H Hbar_m,
    L_k = omega_k Hbar_k^H U_k W_k,

subject to the power budget and the harvest constraint.  The non-convex
harvest quadratic is replaced by its first-order lower bound at the anchor
F^(n), which turns each iteration into a convex problem whose solution is

    F_k(lambda, mu) = (A + lambda I)^+ (L_k + mu G F_k^(n)),

with mu set by the linearized-harvest slackness and lambda found by the
shared bracketed root search on the transmit power, non-increasing in
lambda.  With inv = diag (A + lambda I)^+ in the eigenbasis of A and the
per-eigenvalue sums s_LL = sum |L~|^2, s_LG = sum Re(G~F* L~), s_GG =
sum |G~F|^2 of the projected terms (over users and streams, once per
anchor), each probe is O(N_B): mu = max(0, q_tilde - 2 inv.s_LG) /
(2 inv.s_GG) and P = inv^2.(s_LL + 2 mu s_LG + mu^2 s_GG).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleDirectionError
from .linalg import (ROOT_EPS, _bracketed_root, _settled, frob_sq, herm,
                     hermitianize)
from .metrics import EffectiveChannels, harvested_power_quadratic
from .scenario import SystemConfig

log = logging.getLogger(__name__)

SCA_EPS = 1e-6
SCA_MAX_ITER = 100
EIG_CUTOFF = 1e-12  # relative threshold below which eigen-directions map to zero


def _anchor_fields(g: np.ndarray, basis: np.ndarray, lin_proj: np.ndarray,
                   f_anchor: np.ndarray, eh_threshold: float) -> dict:
    """The QuadraticData fields that depend on the harvest anchor."""
    gfa = np.einsum("ij,kjd->kid", g, f_anchor)
    gfa_proj = np.einsum("ij,kjd->kid", herm(basis), gfa)
    x = np.stack((lin_proj, gfa_proj))
    # per eigenvalue; copied so that each sum is a contiguous (N_B,) array
    gram = np.ascontiguousarray(np.einsum("xkid,ykid->xyi", x.conj(), x).real)
    scale = np.linalg.norm(g) * np.sqrt(max(frob_sq(f_anchor), 1e-300))
    return dict(f_anchor=f_anchor, gfa=gfa, gfa_proj=gfa_proj,
                q_tilde=eh_threshold + float(np.real(np.vdot(f_anchor, gfa))),
                s_ll=gram[0, 0], s_lg=gram[1, 0], s_gg=gram[1, 1],
                degenerate=np.sqrt(frob_sq(gfa)) <= 1e-13 * max(scale, 1e-300))


@dataclass
class QuadraticData:
    """Assembled subproblem: quadratic form, linear terms, and anchor."""

    a: np.ndarray           # (N_B, N_B) Hermitian PSD
    lin: np.ndarray         # (K_I, N_B, d), L_k
    g: np.ndarray           # (N_B, N_B) harvest quadratic
    basis: np.ndarray       # (N_B, N_B) eigenvectors of A
    values: np.ndarray      # (N_B,) eigenvalues of A, ascending, clipped at 0
    lin_proj: np.ndarray    # basis^H @ L_k
    f_anchor: np.ndarray    # (K_I, N_B, d)
    gfa: np.ndarray         # G @ F_anchor_k
    gfa_proj: np.ndarray    # basis^H @ (G F_anchor_k)
    q_tilde: float          # linearized harvest right-hand side
    s_ll: np.ndarray        # (N_B,) per-eigenvalue sums of |lin_proj|^2,
    s_lg: np.ndarray        #   Re(conj(gfa_proj) lin_proj)
    s_gg: np.ndarray        #   and |gfa_proj|^2
    degenerate: bool        # G F_anchor is numerically zero

    @classmethod
    def from_terms(cls, a: np.ndarray, lin: np.ndarray, g: np.ndarray,
                   f_anchor: np.ndarray, eh_threshold: float) -> QuadraticData:
        """Eigendecompose the Hermitian A, project L onto it, and anchor."""
        vals, basis = np.linalg.eigh(a)
        lin_proj = np.einsum("ij,kjd->kid", herm(basis), lin)
        return cls(a, lin, g, basis, np.maximum(vals, 0.0), lin_proj,
                   **_anchor_fields(g, basis, lin_proj, f_anchor, eh_threshold))

    def with_anchor(self, f_anchor: np.ndarray,
                    eh_threshold: float) -> QuadraticData:
        """Re-anchor the harvest linearization, reusing A and its eigenbasis."""
        return replace(self, **_anchor_fields(
            self.g, self.basis, self.lin_proj, f_anchor, eh_threshold))


class PrecoderIterate(NamedTuple):
    objective: float    # z(F)
    power: float        # sum_k ||F_k||_F^2
    harvest: float      # true weighted harvested power


def build_quadratic(u: np.ndarray, w: np.ndarray, eff: EffectiveChannels,
                    f_anchor: np.ndarray, config: SystemConfig,
                    eh_threshold: float) -> QuadraticData:
    """Assemble A, the linear terms and the harvest anchor data of the
    precoder subproblem, whose harvest bound is eh_threshold."""
    hu = np.einsum("kni,knd->kid", eff.hbar.conj(), u)      # Hbar_k^H U_k
    lin = np.asarray(config.rate_weights)[:, None, None] * hu @ w
    a = hermitianize(np.einsum("kid,kjd->ij", lin, hu.conj()))
    return QuadraticData.from_terms(a, lin, eff.g, f_anchor, eh_threshold)


def _shift_inverse(lam: float, data: QuadraticData) -> np.ndarray:
    """Diagonal of (A + lambda I)^+ in the cached eigenbasis."""
    den = data.values + lam                 # ascending
    cutoff = EIG_CUTOFF * max(float(den[-1]), 1e-300)
    if den[0] > cutoff:
        return 1.0 / den
    return np.where(den > cutoff, 1.0 / np.maximum(den, cutoff), 0.0)


def _probe(lam: float, data: QuadraticData) -> tuple[np.ndarray, float]:
    """(A + lambda I)^+ diagonal and the harvest multiplier at lambda: zero
    if the mu = 0 solution already meets the linearized constraint,
    otherwise the value that makes it tight."""
    inv = _shift_inverse(lam, data)
    c0 = 2.0 * float(inv @ data.s_lg)
    if c0 >= data.q_tilde:
        return inv, 0.0
    den = 2.0 * float(inv @ data.s_gg)
    if den <= 0.0 or data.degenerate:
        raise InfeasibleDirectionError(
            "harvest constraint binds but G F_anchor is numerically zero")
    return inv, (data.q_tilde - c0) / den


def precoder_closed_form(lam: float, mu: float,
                         data: QuadraticData) -> np.ndarray:
    """F_k = (A + lambda I)^+ (L_k + mu G F_anchor_k) via the eigenbasis."""
    inv = _shift_inverse(lam, data)
    rhs = data.lin_proj + mu * data.gfa_proj
    return np.einsum("ij,kjd->kid", data.basis, inv[None, :, None] * rhs)


def power_of_lambda(lam: float, data: QuadraticData) -> float:
    """Transmit power of the mu-adjusted closed-form solution at lambda."""
    inv, mu = _probe(lam, data)
    if mu == 0.0:
        return float(inv ** 2 @ data.s_ll)
    return float(inv ** 2 @ (data.s_ll + 2.0 * mu * data.s_lg
                             + mu ** 2 * data.s_gg))


def dual_bisection(data: QuadraticData, p_t: float
                   ) -> tuple[np.ndarray, float, float]:
    """Solve the convex subproblem by a bracketed search on lambda.

    Returns (F, lambda, mu).  If the unconstrained solution already fits the
    budget, lambda = 0; otherwise lambda is the low-power end of a bracket
    tighter than ROOT_EPS (relative) whose power is within ROOT_EPS of p_t,
    so the power constraint holds.
    """
    p0 = power_of_lambda(0.0, data)
    lam = 0.0 if p0 <= p_t else _bracketed_root(
        lambda x: power_of_lambda(x, data) - p_t, p0 - p_t,
        slack_tol=ROOT_EPS * p_t)
    mu = _probe(lam, data)[1]
    return precoder_closed_form(lam, mu, data), lam, mu


def sca_objective(f: np.ndarray, data: QuadraticData) -> float:
    """z(F) = sum_k tr(F_k^H A F_k) - 2 Re sum_k tr(L_k^H F_k)."""
    af = np.einsum("ij,kjd->kid", data.a, f)
    return float(np.real(np.vdot(f, af) - 2.0 * np.vdot(data.lin, f)))


def sca_precoder_solve(u: np.ndarray, w: np.ndarray, eff: EffectiveChannels,
                       f_init: np.ndarray, config: SystemConfig
                       ) -> tuple[np.ndarray, list[PrecoderIterate]]:
    """Iterate the harvest linearization to a KKT point of the precoder block.

    eff holds the effective channels at the current phases.  f_init must
    meet the power budget and the true harvest constraint (bcd_solve checks
    every sweep); every iterate then stays feasible and z is non-increasing.
    """
    p_t, qbar = config.power_budget, config.eh_threshold
    q0 = harvested_power_quadratic(f_init, eff.g)
    if qbar > 0.0 and q0 <= qbar * (1.0 + 1e-9):
        # Strict feasibility is needed for zero duality gap; back the
        # threshold off by a relative 1e-9 when the start meets it exactly.
        log.info("initial harvest meets the threshold with equality; "
                 "relaxing it by 1e-9 relative")
        qbar = qbar * (1.0 - 1e-9)

    f = f_init
    data = build_quadratic(u, w, eff, f, config, eh_threshold=qbar)
    trajectory = [PrecoderIterate(sca_objective(f, data), frob_sq(f), q0)]
    for it in range(SCA_MAX_ITER):
        if it:
            data = data.with_anchor(f, qbar)
        f, _, _ = dual_bisection(data, p_t)
        z = sca_objective(f, data)
        trajectory.append(PrecoderIterate(
            z, frob_sq(f), harvested_power_quadratic(f, eff.g)))
        if _settled(z, trajectory[-2].objective, SCA_EPS):
            break
    return f, trajectory
