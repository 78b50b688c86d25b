"""Outer block-coordinate descent: precoders, phases, decoders, weights.

A run starts from any feasible (F, phi).  Each full sweep updates F by the
SCA precoder solver, phi by the MM phase solver, then refreshes U and W in
closed form.  Every block can only improve the weighted-MMSE surrogate,
and after the U/W refresh the surrogate equals the true weighted sum rate,
so the rate trajectory is non-decreasing and every iterate stays feasible;
with M = 0 there is no phase block.

The refresh builds the effective channels once per sweep; the same build
gives the decoders, the weights, the sweep's rate (log det W_k at the MMSE
optimum), its harvested power, and the next sweep's precoder block.  The
refresh is batched over receivers: one solve and one factorization call on
the stacked per-receiver matrices, with no loop over users.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .feasibility import spread_streams
from .linalg import frob_sq, herm, hermitian_solve, inverse_logdet_pd
from .metrics import (LN2, EffectiveChannels, effective_channels,
                      harvested_power_quadratic)
from .phase import phase_solve
from .precoder import sca_precoder_solve
from .scenario import ChannelSet, SystemConfig

log = logging.getLogger(__name__)

BCD_EPS = 1e-4
BCD_MAX_ITER = 50
MAX_CONSECUTIVE_FAILURES = 3


@dataclass
class SolveReport:
    """Outcome of one BCD run."""

    wsr_trajectory: list[tuple[int, float]]     # (outer iteration, WSR bits)
    f: np.ndarray                               # final precoders
    phi: np.ndarray                             # final phases
    feasible: bool
    precoder_inner_iters: list[int] = field(default_factory=list)
    phase_inner_iters: list[int] = field(default_factory=list)
    power_trajectory: list[float] = field(default_factory=list)
    harvest_trajectory: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def iterations_used(self) -> int:
        return len(self.wsr_trajectory) - 1

    @property
    def wsr_bits(self) -> float:
        return self.wsr_trajectory[-1][1] if self.wsr_trajectory else 0.0

    def to_dict(self) -> dict:
        return {
            "wsr_trajectory": [[int(i), float(r)] for i, r in self.wsr_trajectory],
            "wsr_bits": self.wsr_bits,
            "precoders_real": np.real(self.f).tolist(),
            "precoders_imag": np.imag(self.f).tolist(),
            "phases_real": np.real(self.phi).tolist(),
            "phases_imag": np.imag(self.phi).tolist(),
            "feasible": bool(self.feasible),
            "iterations_used": int(self.iterations_used),
            "precoder_inner_iters": [int(n) for n in self.precoder_inner_iters],
            "phase_inner_iters": [int(n) for n in self.phase_inner_iters],
            "power_trajectory": [float(p) for p in self.power_trajectory],
            "harvest_trajectory": [float(q) for q in self.harvest_trajectory],
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


def _check_init(f, phi, eff, config):
    power = frob_sq(f)
    harvest = harvested_power_quadratic(f, eff.g)
    if power > config.power_budget * (1.0 + 1e-6):
        raise ValueError("initial precoders exceed the power budget")
    if harvest < config.eh_threshold * (1.0 - 1e-6):
        raise ValueError("initial point violates the harvest constraint")
    if config.n_elements and np.max(np.abs(np.abs(phi) - 1.0)) > 1e-9:
        raise ValueError("initial phases are not unit-modulus")


def _track(report: SolveReport, iteration: int, f: np.ndarray,
           eff: EffectiveChannels, wsr_nats: float) -> float:
    """Append one sweep's rate, power and harvest to the report; returns
    the rate in bits."""
    wsr_bits = wsr_nats / LN2
    report.wsr_trajectory.append((iteration, wsr_bits))
    report.power_trajectory.append(frob_sq(f))
    report.harvest_trajectory.append(harvested_power_quadratic(f, eff.g))
    return wsr_bits


def bcd_solve(channels: ChannelSet, config: SystemConfig,
              init: tuple[np.ndarray, np.ndarray], eps: float = BCD_EPS,
              n_max: int = BCD_MAX_ITER) -> SolveReport:
    """Run block coordinate descent from any feasible (F, phi) pair.

    No block moves a precoder column off zero, so the checked start's zero
    stream columns are filled first (spread_streams): feasibility_check's
    rank-one F is spread over the streams, a start with no zero column is
    kept as given.  The phase block runs iff config.n_elements > 0 (the
    baselines run on a surface-free channel set).  A failed inner solve
    keeps the previous block value, records 0 inner iterations and
    continues; after MAX_CONSECUTIVE_FAILURES failed sweeps in a row the
    run aborts.
    """
    t0 = time.perf_counter()
    f, phi = init
    f = np.asarray(f, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    eff = effective_channels(channels, phi, config)
    _check_init(f, phi, eff, config)
    f = spread_streams(f, eff.g, config)

    report = SolveReport(wsr_trajectory=[], f=f, phi=phi, feasible=True)
    u, w, wsr_nats = mmse_refresh(f, eff, config)
    _track(report, 0, f, eff, wsr_nats)

    failures = 0
    for n in range(1, n_max + 1):
        failed = False
        prec_iters = phase_iters = 0
        try:
            f, prec_traj = sca_precoder_solve(u, w, eff, f, config)
            prec_iters = len(prec_traj) - 1
        except SolverError as exc:
            log.warning("precoder block failed at sweep %d: %s", n, exc)
            failed = True

        if config.n_elements:
            try:
                phi, phase_traj = phase_solve(u, w, f, channels, phi, config)
                phase_iters = len(phase_traj) - 1
            except SolverError as exc:
                log.warning("phase block failed at sweep %d: %s", n, exc)
                failed = True
        report.precoder_inner_iters.append(prec_iters)
        report.phase_inner_iters.append(phase_iters)

        eff = effective_channels(channels, phi, config)
        u, w, wsr_nats = mmse_refresh(f, eff, config)

        failures = failures + 1 if failed else 0
        if failures >= MAX_CONSECUTIVE_FAILURES:
            raise SolverError(
                f"{failures} consecutive failed BCD sweeps; last WSR "
                f"{report.wsr_bits:.6f} bit/s/Hz")

        wsr_bits = _track(report, n, f, eff, wsr_nats)
        prev = report.wsr_trajectory[-2][1]
        if abs(wsr_bits - prev) < eps * max(abs(wsr_bits), 1e-30):
            break

    report.f, report.phi = f, phi
    report.wall_time_s = time.perf_counter() - t0
    return report
