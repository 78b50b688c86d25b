"""Walk through the scenario model: geometry, path loss, channels, metrics.

Draws one channel realization for the default layout, then evaluates the
rate and harvested-power metrics for a naive equal-power precoder.
"""

import numpy as np

from irs_swipt import (Geometry, SystemConfig, effective_channels,
                       generate_scenario, harvested_power, path_loss_linear,
                       user_rate, weighted_sum_rate)
from irs_swipt.linalg import frob_sq

config = SystemConfig(n_elements=32)
geometry = Geometry(er_center=5.0, ir_center=100.0)
print("=== layout ===")
print(f"BS at {geometry.bs_position}, IRS at {geometry.irs_position}")
print(f"ER cluster at x = {geometry.er_center} m, IR cluster at "
      f"x = {geometry.ir_center} m")

print("\n=== large-scale losses (linear power gain) ===")
for name, dist, alpha in [
        ("BS -> ER ", geometry.er_center, geometry.alpha_bs_er),
        ("BS -> IRS", np.hypot(*geometry.irs_position), geometry.alpha_bs_irs),
        ("IRS -> ER", 2.0, geometry.alpha_irs_er),
        ("BS -> IR ", geometry.ir_center, geometry.alpha_bs_ir)]:
    gain = path_loss_linear(dist, alpha, geometry.pl0_db, geometry.d0)
    print(f"  {name}: D = {dist:7.2f} m, alpha = {alpha}, gain = {gain:.3e}")

channels = generate_scenario(config, geometry, seed=7)
print("\n=== one channel realization ===")
for name in ("z", "h_b", "h_r", "g_b", "g_r"):
    arr = getattr(channels, name)
    print(f"  {name:3s}: shape {str(arr.shape):14s} "
          f"||.||_F^2 = {np.linalg.norm(arr)**2:.3e}")

# naive transmission: equal power, random directions, neutral phases
rng = np.random.default_rng(0)
f = (rng.standard_normal((config.n_irs, config.n_bs_antennas, config.n_streams))
     + 1j * rng.standard_normal((config.n_irs, config.n_bs_antennas,
                                 config.n_streams)))
f *= np.sqrt(config.power_budget / frob_sq(f))
phi = np.ones(config.n_elements, dtype=complex)

eff = effective_channels(channels, phi, config)
nats, bits = weighted_sum_rate(f, phi, channels, config)
per_er, q = harvested_power(f, eff, config)

print("\n=== naive equal-power transmission ===")
for k in range(config.n_irs):
    print(f"  IR {k}: rate {user_rate(k, f, eff, config.noise_power_ir):.3f} "
          f"nat/s/Hz")
print(f"  weighted sum rate: {bits:.3f} bit/s/Hz")
print(f"  harvested power per ER: {np.array2string(per_er, precision=3)}")
print(f"  weighted harvest {q:.3e} W vs threshold {config.eh_threshold:.1e} W")
