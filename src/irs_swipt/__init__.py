"""Weighted-sum-rate maximization for an IRS-assisted SWIPT MIMO downlink.

The library splits into:

    scenario     configs, geometry, path loss, Rician/Rayleigh channels
    metrics      effective channels, rates, MSE, harvested power, surrogate
    precoder     SCA + a bracketed dual search for the transmit precoders
    phase        MM + a bracketed price search for the unit-modulus phases
    bcd          the outer block-coordinate-descent loop
    feasibility  harvest maximization and the feasible initializer
    harness      Monte-Carlo sweeps, baselines, CSV/JSON output
"""

from .bcd import SolveReport, bcd_solve, mmse_refresh
from .errors import (BracketError, ConditioningError, InfeasibleDirectionError,
                     InfeasibleSubproblemError, SolverError)
from .feasibility import feasibility_check, max_eh_phase_step, max_eh_precoder
from .harness import (ExperimentSpec, TrialResult, emit_results,
                      load_experiment_spec, run_experiment, run_no_irs,
                      solve_with_init, summarize)
from .metrics import (EffectiveChannels, effective_channels, harvested_power,
                      harvested_power_quadratic, mse_matrix, total_power,
                      user_rate, weighted_sum_rate, wmmse_objective)
from .phase import (MmState, PhaseQcqpData, assemble_phase_qcqp, eh_slack,
                    mm_prepare, phase_closed_form, phase_solve,
                    price_bisection)
from .precoder import (QuadraticData, build_quadratic, compute_mu,
                       dual_bisection, power_of_lambda, precoder_closed_form,
                       sca_precoder_solve)
from .scenario import (ChannelSet, Geometry, SystemConfig, generate_scenario,
                       load_scenario, path_loss_linear, rician_channel,
                       steering_vector)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
