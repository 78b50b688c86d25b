"""Solve one scenario end to end: feasibility check, then the joint
precoder/phase optimization, printing the rate trajectory and constraints.
"""

import numpy as np

from irs_swipt import (Geometry, SystemConfig, bcd_solve, effective_channels,
                       feasibility_check, generate_scenario,
                       harvested_power_quadratic)
from irs_swipt.linalg import frob_sq

config = SystemConfig(n_elements=40)
geometry = Geometry(er_center=5.0, ir_center=100.0)
channels = generate_scenario(config, geometry, seed=3)

feasible, f0, phi0, q0 = feasibility_check(channels, config)
print(f"feasibility check: feasible={feasible}, best harvest {q0:.3e} W "
      f"(threshold {config.eh_threshold:.1e} W)")
if not feasible:
    raise SystemExit("threshold unreachable for this draw; try another seed")

# bcd_solve spreads the rank-one start over the data streams itself
report = bcd_solve(channels, config, (f0, phi0))
print(f"\nstopped ({report.stop_reason}) after {report.iterations_used} "
      f"sweeps, {report.wall_time_s:.2f} s")
print("sweep   WSR (bit/s/Hz)   power (W)   harvest (W)")
for it, sweep in enumerate(report.sweeps):
    print(f"{it:5d}   {sweep.wsr_bits:14.4f}   {sweep.power:9.4f}   "
          f"{sweep.harvest:.4e}")

eff = effective_channels(channels, report.phi, config)
print(f"\nfinal transmit power {frob_sq(report.f):.4f} of "
      f"{config.power_budget} W")
print(f"final harvest {harvested_power_quadratic(report.f, eff.g):.4e} W")
print(f"phase vector magnitudes all 1: "
      f"{bool(np.all(np.abs(np.abs(report.phi) - 1) < 1e-12))}")
