"""Outer block-coordinate descent: precoders, phases, decoders, weights.

A run starts from any feasible (F, phi) and repeats one map, bcd_sweep:
F by the SCA precoder solver, phi by the MM phase solver (none at M = 0),
then U and W in closed form.  Every block keeps a feasible input feasible
(bcd_solve checks every sweep record) and can only improve the weighted-MMSE
surrogate, which equals the true weighted sum rate after the U/W refresh,
so the rate trajectory is non-decreasing.

The refresh builds the effective channels once per sweep; the same build
gives the decoders, the weights, the sweep's rate (log det W_k at the MMSE
optimum), its harvested power, and the next sweep's precoder block.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .feasibility import spread_streams
from .linalg import _settled, frob_sq, herm, hermitian_solve, inverse_logdet_pd
from .metrics import (LN2, EffectiveChannels, effective_channels,
                      harvested_power_quadratic)
from .phase import phase_solve
from .precoder import sca_precoder_solve
from .scenario import ChannelSet, SystemConfig

log = logging.getLogger(__name__)

BCD_EPS = 1e-4
BCD_MAX_ITER = 50
MAX_CONSECUTIVE_FAILURES = 3


@dataclass(frozen=True)
class Sweep:
    """One refreshed BCD iterate and its figures; sweep 0 is the start."""

    f: np.ndarray
    phi: np.ndarray
    eff: EffectiveChannels                  # effective channels at phi
    u: np.ndarray                           # MMSE decoders at (f, phi)
    w: np.ndarray                           # MMSE weights at (f, phi)
    wsr_bits: float
    power: float
    harvest: float
    precoder_iters: int = 0                 # 0 when the block raised
    phase_iters: int = 0                    # 0 when it raised or M = 0
    errors: tuple[tuple[str, str], ...] = ()    # (block, message) per raise


@dataclass
class SolveReport:
    """One BCD run: its sweeps (none if infeasible), end point, stop reason."""

    sweeps: list[Sweep]
    f: np.ndarray                               # final precoders
    phi: np.ndarray                             # final phases
    stop_reason: str            # "converged", "sweep cap" or "infeasible"
    wall_time_s: float = 0.0

    @property
    def feasible(self) -> bool:
        return bool(self.sweeps)

    @property
    def wsr_trajectory(self) -> list[tuple[int, float]]:
        return [(i, s.wsr_bits) for i, s in enumerate(self.sweeps)]

    @property
    def iterations_used(self) -> int:
        return max(len(self.sweeps) - 1, 0)

    @property
    def wsr_bits(self) -> float:
        return self.sweeps[-1].wsr_bits if self.sweeps else 0.0

    def to_dict(self) -> dict:
        done = self.sweeps[1:]
        return {
            "wsr_trajectory": [[i, float(r)] for i, r in self.wsr_trajectory],
            "wsr_bits": self.wsr_bits,
            "precoders_real": np.real(self.f).tolist(),
            "precoders_imag": np.imag(self.f).tolist(),
            "phases_real": np.real(self.phi).tolist(),
            "phases_imag": np.imag(self.phi).tolist(),
            "feasible": self.feasible,
            "iterations_used": self.iterations_used,
            "stop_reason": self.stop_reason,
            "precoder_inner_iters": [s.precoder_iters for s in done],
            "phase_inner_iters": [s.phase_iters for s in done],
            "power_trajectory": [s.power for s in self.sweeps],
            "harvest_trajectory": [s.harvest for s in self.sweeps],
            "wall_time_s": float(self.wall_time_s),
        }


def mmse_refresh(f: np.ndarray, eff: EffectiveChannels,
                 config: SystemConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form decoders, weights and the weighted sum rate they imply.

    With C_k = sum_m Hbar_k F_m F_m^H Hbar_k^H + sigma2 I, the MMSE decoder is
    U_k = C_k^-1 Hbar_k F_k, its error covariance E_k = I - (Hbar_k F_k)^H U_k
    and the weight W_k = E_k^-1.  At these optima the rate of IR k equals
    -log det E_k, so the returned weighted sum rate (nats) needs no extra
    solve.  One product gives every Hbar_k F_m; one batched solve over the
    stacked C_k and one batched factorization of the stacked E_k give U, W
    and every log det E_k.  Returns (U, W, wsr_nats).
    """
    hf = eff.hbar[:, None] @ f                          # [k, m] = Hbar_k F_m
    terms = hf @ herm(hf)
    # sigma2 I joins the m = 1 term, then the terms add up in user order
    terms[:, 0] += config.noise_power_ir * np.eye(config.n_ir_antennas)
    cov = terms.sum(axis=1)
    hf_own = np.einsum("kkid->kid", hf)                 # Hbar_k F_k
    u = hermitian_solve(cov, hf_own)
    w, logdet_e = inverse_logdet_pd(np.eye(config.n_streams)
                                    - herm(hf_own) @ u)
    return u, w, -float(np.sum(np.multiply(config.rate_weights, logdet_e)))


def _check_point(power, harvest, config, what):
    """The invariant every block assumes of its input, to 1e-6 relative."""
    if power > config.power_budget * (1.0 + 1e-6):
        raise ValueError(f"{what} exceeds the power budget")
    if harvest < config.eh_threshold * (1.0 - 1e-6):
        raise ValueError(f"{what} violates the harvest constraint")


def _check_init(f, phi, eff, config):
    _check_point(frob_sq(f), harvested_power_quadratic(f, eff.g), config,
                 "initial point")
    if config.n_elements and np.max(np.abs(np.abs(phi) - 1.0)) > 1e-9:
        raise ValueError("initial phases are not unit-modulus")


def _refreshed(f, phi, eff, config, *iters_and_errors) -> Sweep:
    u, w, wsr_nats = mmse_refresh(f, eff, config)
    sweep = Sweep(f, phi, eff, u, w, wsr_nats / LN2, frob_sq(f),
                  harvested_power_quadratic(f, eff.g), *iters_and_errors)
    _check_point(sweep.power, sweep.harvest, config, "BCD iterate")
    return sweep


def bcd_sweep(prev: Sweep, channels: ChannelSet, config: SystemConfig) -> Sweep:
    """The sweep after prev: precoder block, phase block iff n_elements > 0,
    then the U/W refresh at one channel build.  A block that raises
    SolverError keeps its value, counts 0 iterations and records the error."""
    f, phi, errors = prev.f, prev.phi, []
    prec_iters = phase_iters = 0
    try:
        f, traj = sca_precoder_solve(prev.u, prev.w, prev.eff, f, config)
        prec_iters = len(traj) - 1
    except SolverError as exc:
        errors.append(("precoder", str(exc)))
    if config.n_elements:
        try:
            phi, traj = phase_solve(prev.u, prev.w, f, channels, phi, config)
            phase_iters = len(traj) - 1
        except SolverError as exc:
            errors.append(("phase", str(exc)))
    return _refreshed(f, phi, effective_channels(channels, phi, config),
                      config, prec_iters, phase_iters, tuple(errors))


def bcd_solve(channels: ChannelSet, config: SystemConfig,
              init: tuple[np.ndarray, np.ndarray], eps: float = BCD_EPS,
              n_max: int = BCD_MAX_ITER) -> SolveReport:
    """Run block coordinate descent from any feasible (F, phi) pair.

    No block moves a precoder column off zero, so the checked start's zero
    stream columns are filled first (spread_streams).  bcd_sweep then runs
    until the relative WSR change is under eps ("converged") or n_max sweeps
    are done ("sweep cap"); MAX_CONSECUTIVE_FAILURES failures in a row abort.
    """
    t0 = time.perf_counter()
    f, phi = (np.asarray(x, dtype=complex) for x in init)
    eff = effective_channels(channels, phi, config)
    _check_init(f, phi, eff, config)
    sweeps = [_refreshed(spread_streams(f, eff.g, config), phi, eff, config)]

    failures, stop_reason = 0, "sweep cap"
    for n in range(1, n_max + 1):
        sweep = bcd_sweep(sweeps[-1], channels, config)
        for block, message in sweep.errors:
            log.warning("%s block failed at sweep %d: %s", block, n, message)
        failures = failures + 1 if sweep.errors else 0
        if failures >= MAX_CONSECUTIVE_FAILURES:
            raise SolverError(f"{failures} consecutive failed BCD sweeps; "
                              f"last WSR {sweeps[-1].wsr_bits:.6f} bit/s/Hz")
        sweeps.append(sweep)
        if _settled(sweep.wsr_bits, sweeps[-2].wsr_bits, eps):
            stop_reason = "converged"
            break

    return SolveReport(sweeps, sweeps[-1].f, sweeps[-1].phi, stop_reason,
                       time.perf_counter() - t0)
