"""Rates, MSE matrices, harvested power, and the weighted-MMSE surrogate.

Conventions:

    F      (K_I, N_B, d)   precoders, one per IR
    phi    (M,)            unit-modulus reflection coefficients
    U      (K_I, N_I, d)   linear decoders
    W      (K_I, d, d)     Hermitian PD weight matrices

Rates are computed in nats; the bit conversion happens only at reporting
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import herm, hermitianize, logdet_pd
from .scenario import ChannelSet, SystemConfig

LN2 = float(np.log(2.0))


@dataclass
class EffectiveChannels:
    """Direct-plus-reflected composites for the current phase vector."""

    hbar: np.ndarray    # (K_I, N_I, N_B), H_b[k] + H_r[k] diag(phi) Z
    gbar: np.ndarray    # (K_E, N_E, N_B)
    g: np.ndarray       # (N_B, N_B) Hermitian PSD harvest quadratic


def harvest_channels(channels: ChannelSet, phi_z: np.ndarray,
                     scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ER composites and the harvest matrix: (gbar, G).

    phi_z is diag(phi) Z and scale the per-ER factors alpha_l * eta.  G =
    sum_l scale_l gbar_l^H gbar_l is summed over the ERs in order, so it is
    the same to the bit as adding one ER at a time.
    """
    gbar = channels.g_b + channels.g_r @ phi_z
    g = (scale[:, None, None] * herm(gbar) @ gbar).sum(axis=0)
    return gbar, hermitianize(g)


def effective_channels(channels: ChannelSet, phi: np.ndarray,
                       config: SystemConfig) -> EffectiveChannels:
    """Compose the effective IR/ER channels and the harvest matrix G.

    G = sum_l alpha_l * eta * gbar_l^H gbar_l, so the weighted harvested
    power is tr(sum_k F_k^H G F_k).  The ER part is harvest_channels; this
    adds the IR composites hbar.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (config.n_elements,):
        raise ValueError(f"phi has shape {phi.shape}, expected ({config.n_elements},)")
    phi_z = phi[:, None] * channels.z                       # diag(phi) @ Z
    scale = config.eh_efficiency * np.asarray(config.eh_weights)
    gbar, g = harvest_channels(channels, phi_z, scale)
    hbar = channels.h_b + channels.h_r @ phi_z
    return EffectiveChannels(hbar=hbar, gbar=gbar, g=g)


def surface_free(channels: ChannelSet, config: SystemConfig,
                 phi: np.ndarray | None = None
                 ) -> tuple[ChannelSet, SystemConfig]:
    """The same draw as a system with no elements (M = 0): the direct links
    alone, or with phi the composites hbar(phi), gbar(phi) as the direct
    links.  The IRS links become zero-width slices; nothing is copied."""
    if phi is not None:
        eff = effective_channels(channels, phi, config)
        channels = replace(channels, h_b=eff.hbar, g_b=eff.gbar)
    bare = replace(channels, z=channels.z[:0], h_r=channels.h_r[..., :0],
                   g_r=channels.g_r[..., :0])
    return bare, replace(config, n_elements=0)


def _interference_cov(k: int, f: np.ndarray, hbar_k: np.ndarray,
                      sigma2: float) -> np.ndarray:
    """J_k = sum_{m != k} Hbar_k F_m F_m^H Hbar_k^H + sigma2 I."""
    n_i = hbar_k.shape[0]
    j = sigma2 * np.eye(n_i, dtype=complex)
    for m in range(f.shape[0]):
        if m == k:
            continue
        hf = hbar_k @ f[m]
        j += hf @ herm(hf)
    return j


def user_rate(k: int, f: np.ndarray, eff: EffectiveChannels,
              sigma2_ir: float) -> float:
    """Achievable rate of IR k in nats: log|I + Hbar F_k F_k^H Hbar^H J_k^-1|.

    Evaluated as logdet(J_k + S_k) - logdet(J_k) with both factors Hermitian
    PD (sigma2_ir > 0), so no explicit inverse is formed.
    """
    if sigma2_ir <= 0.0:
        raise ValueError("noise power must be strictly positive")
    hbar_k = eff.hbar[k]
    j = _interference_cov(k, f, hbar_k, sigma2_ir)
    hf = hbar_k @ f[k]
    total = j + hf @ herm(hf)
    return max(0.0, logdet_pd(total) - logdet_pd(j))


def weighted_sum_rate(f: np.ndarray, phi: np.ndarray, channels: ChannelSet,
                      config: SystemConfig) -> tuple[float, float]:
    """Weighted sum rate over all IRs, returned as (nats, bits)."""
    eff = effective_channels(channels, phi, config)
    nats = 0.0
    for k in range(config.n_irs):
        nats += config.rate_weights[k] * user_rate(k, f, eff, config.noise_power_ir)
    return nats, nats / LN2


def harvested_power(f: np.ndarray, eff: EffectiveChannels,
                    config: SystemConfig) -> tuple[np.ndarray, float]:
    """Per-ER harvested powers Q_l and their weighted sum Q.

    Q_l = eta * tr(sum_k Gbar_l F_k F_k^H Gbar_l^H); the weighted sum equals
    tr(sum_k F_k^H G F_k), and both forms agree to rounding.
    """
    received = np.einsum("lnb,kbd->lknd", eff.gbar, f)    # Gbar_l F_k
    per_er = config.eh_efficiency * np.sum(np.abs(received) ** 2,
                                           axis=(1, 2, 3))
    weighted = float(np.dot(config.eh_weights, per_er))
    return per_er, weighted


def harvested_power_quadratic(f: np.ndarray, g: np.ndarray) -> float:
    """Weighted harvested power in the quadratic form tr(sum_k F_k^H G F_k)."""
    return float(np.real(np.vdot(f, g @ f)))


def mse_matrix(k: int, f: np.ndarray, u: np.ndarray, eff: EffectiveChannels,
               sigma2_ir: float) -> np.ndarray:
    """Symbol-estimation error covariance of IR k for decoder U_k.

    E_k = (U^H Hbar F_k - I)(.)^H + sum_{m != k} U^H Hbar F_m F_m^H Hbar^H U
          + sigma2 U^H U.
    """
    hbar_k = eff.hbar[k]
    uh = herm(u[k])
    d = f.shape[2]
    delta = uh @ hbar_k @ f[k] - np.eye(d, dtype=complex)
    e = delta @ herm(delta) + sigma2_ir * (uh @ u[k])
    for m in range(f.shape[0]):
        if m == k:
            continue
        x = uh @ hbar_k @ f[m]
        e += x @ herm(x)
    return hermitianize(e)


def wmmse_objective(w: np.ndarray, u: np.ndarray, f: np.ndarray,
                    phi: np.ndarray, channels: ChannelSet,
                    config: SystemConfig) -> float:
    """Weighted-MMSE surrogate sum_k omega_k (log|W_k| - tr(W_k E_k) + d).

    Equals the weighted sum rate in nats once U and W are set to their
    closed-form optima.  Raises on singular (non-PD) W_k.
    """
    eff = effective_channels(channels, phi, config)
    d = config.n_streams
    total = 0.0
    for k in range(config.n_irs):
        try:
            logdet_w = logdet_pd(w[k])
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"W[{k}] is not positive definite") from exc
        e_k = mse_matrix(k, f, u, eff, config.noise_power_ir)
        total += config.rate_weights[k] * (
            logdet_w - float(np.real(np.trace(w[k] @ e_k))) + d)
    return total
