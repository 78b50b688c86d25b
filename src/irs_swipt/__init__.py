"""Weighted-sum-rate maximization for an IRS-assisted SWIPT MIMO downlink.

The library splits into:

    scenario     configs, geometry, path loss, Rician/Rayleigh channels
    metrics      effective channels, rates, MSE, harvested power, surrogate
    precoder     SCA + a bracketed dual search for the transmit precoders
    phase        MM + a bracketed price search for the unit-modulus phases
    bcd          the outer block-coordinate-descent loop
    feasibility  harvest maximization and the feasible initializer
    harness      Monte-Carlo sweeps over the joint solve and its baselines,
                 CSV/JSON output

The package namespace holds what a script needs to build a scenario, solve
it, score it and run a sweep.  The blocks' internals (the precoder dual,
the phase MM, the MMSE refresh, the exception subclasses) are imported from
their own modules.
"""

from .bcd import SolveReport, bcd_solve
from .errors import SolverError
from .feasibility import feasibility_check
from .harness import (ExperimentSpec, TrialResult, emit_results,
                      load_experiment_spec, run_experiment, solve_with_init,
                      summarize)
from .metrics import (effective_channels, harvested_power,
                      harvested_power_quadratic, user_rate, weighted_sum_rate)
from .scenario import (Geometry, SystemConfig, generate_scenario,
                       load_scenario, path_loss_linear)

__version__ = "0.1.0"

__all__ = [
    "SystemConfig", "Geometry", "generate_scenario", "load_scenario",
    "path_loss_linear",
    "effective_channels", "weighted_sum_rate", "user_rate", "harvested_power",
    "harvested_power_quadratic",
    "feasibility_check", "bcd_solve", "solve_with_init", "SolveReport",
    "SolverError",
    "ExperimentSpec", "TrialResult", "run_experiment", "summarize",
    "emit_results", "load_experiment_spec",
]
