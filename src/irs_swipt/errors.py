"""Exception types raised by the solvers."""


class SolverError(RuntimeError):
    """Base class for numerical failures inside a subproblem solver."""


class InfeasibleSubproblemError(SolverError):
    """An inner subproblem has no feasible point (or none reachable numerically)."""


class InfeasibleDirectionError(SolverError):
    """The energy-harvesting linearization direction vanished (G F_anchor ~ 0)
    while the harvest constraint is binding, so the price update is undefined."""


class BracketError(SolverError):
    """The search for a multiplier (the precoder's power multiplier or the
    phase block's harvest price) found no bracket within MAX_DOUBLINGS."""


class ConditioningError(SolverError):
    """A linear system exceeded the allowed condition number; with positive
    noise power this indicates a bug upstream rather than bad data."""
