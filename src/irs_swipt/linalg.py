"""Small complex linear-algebra helpers shared by the metrics and solvers.

The solver's Hermitian solves, inverses and log-dets come from one
condition-checked eigendecomposition per system, _checked_eigh; the
metrics' reference log-dets keep their own Cholesky factor.  herm,
hermitianize and the checked kernels act on the last two axes, so a
(..., n, n) stack (one matrix per user) is decomposed in one call.
Both multiplier searches share one bracketed root search, and both
fixed-point loops, the phase MM and the feasibility alternation, share one
accelerator, the restarted momentum driver _momentum; every solver loop
stops on one relative-change rule, _settled.
"""

import numpy as np

from .errors import BracketError, ConditioningError

MAX_CONDITION = 1e12
MAX_DOUBLINGS = 60
ROOT_EPS = 1e-8


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Symmetrize away floating-point drift in a nominally Hermitian matrix."""
    return 0.5 * (a + herm(a))


def _checked_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w (ascending) and eigenvectors v of each matrix of the
    Hermitian positive-definite a; raises ConditioningError if any is past
    MAX_CONDITION (noise power > 0 keeps every system checked here well
    away from that)."""
    w, v = np.linalg.eigh(hermitianize(a))
    lo, hi = w[..., 0], w[..., -1]
    if not np.all(lo > 0.0) or np.any(hi / lo > MAX_CONDITION):
        cond = np.max(hi / np.maximum(lo, 1e-300))
        raise ConditioningError(f"condition {cond:.3e} > {MAX_CONDITION:.0e}")
    return w, v


def hermitian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for Hermitian positive-definite a (condition-checked)."""
    w, v = _checked_eigh(a)
    return v @ ((herm(v) @ b) / w[..., :, None])


def inverse_logdet_pd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitianized a^-1 and log det a from one condition-checked
    eigendecomposition of each Hermitian positive-definite matrix of a."""
    w, v = _checked_eigh(a)
    return (hermitianize((v / w[..., None, :]) @ herm(v)),
            np.sum(np.log(w), axis=-1))


def logdet_pd(a: np.ndarray) -> float:
    """log-determinant of a Hermitian positive-definite matrix via Cholesky."""
    c = np.linalg.cholesky(hermitianize(a))
    return float(2.0 * np.sum(np.log(np.real(np.diag(c)))))


def frob_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.real(np.vdot(a, a)))


def unit_phase(z: np.ndarray) -> np.ndarray:
    """exp(j arg(z)) entrywise, with arg(0) := 0 so zero entries map to 1
    whatever the signs of their zero parts (adding 0.0 turns a real part
    of -0.0 into +0.0 and leaves every other one as it is)."""
    return np.exp(1j * np.arctan2(z.imag, z.real + 0.0))


def _settled(new: float, old: float, rtol: float) -> bool:
    """The shared stop rule: new moved from old by less than rtol relative
    to |new| (floored at 1e-30).  With rtol = 0 it never fires."""
    return abs(new - old) < rtol * max(abs(new), 1e-30)


def _bracketed_root(excess, at_zero: float, slack_tol: float = np.inf) -> float:
    """Smallest x >= 0 with excess(x) <= 0, for a non-increasing excess with
    excess(0) = at_zero > 0.  Doubles from 1 to a bracket, then takes
    Illinois steps (regula falsi halving the weight of an end kept twice in
    a row), or the midpoint when a step leaves the open bracket, until the
    bracket is within ROOT_EPS of its upper end and the excess there within
    slack_tol of zero, or float resolution runs out.  Returns that feasible
    upper end."""
    lo, s_lo, hi, e_hi = 0.0, at_zero, 1.0, excess(1.0)
    while e_hi > 0.0:
        if hi >= 2.0 ** MAX_DOUBLINGS:
            raise BracketError(f"no root of the excess below {hi:.3e}")
        lo, s_lo, hi = hi, e_hi, 2.0 * hi
        e_hi = excess(hi)
    s_hi, kept = e_hi, 0    # secant weights; kept: -1 lo, +1 hi, last step
    while hi - lo > ROOT_EPS * max(1.0, hi) or -e_hi > slack_tol:
        x = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:     # float resolution exhausted
                break
        e_x = excess(x)
        if e_x <= 0.0:
            hi, e_hi, s_hi = x, e_x, e_x
            s_lo *= 0.5 if kept < 0 else 1.0
            kept = -1
        else:
            lo, s_lo = x, e_x
            s_hi *= 0.5 if kept > 0 else 1.0
            kept = 1
    return hi


def _momentum(mapped, extrapolated, x, budget: int):
    """Restarted Nesterov momentum (O'Donoghue & Candes 2015) over the map
    mapped(x), for both fixed-point loops.  Yields (prev, x) after each
    kept map; the caller stops by leaving the loop.  From the third map
    after the start or after a restart, extrapolated(x, prev, beta), beta_k
    = (k-1)/(k+2), is the caller's map from y = x + beta (x - prev) if it
    keeps it, else None, which restarts (k = 0) with mapped(x).  Every call
    of either counts against the budget, and a refusal on its last call
    ends the run."""
    prev, k, calls = x, 0, 0    # k: maps since the start or a restart
    while calls < budget:
        nxt = None
        if k >= 2:
            calls += 1
            nxt = extrapolated(x, prev, (k - 1) / (k + 2))
            if nxt is None:
                k = 0
                if calls == budget:
                    return
        if nxt is None:
            calls += 1
            nxt = mapped(x)
        prev, x, k = x, nxt, k + 1
        yield prev, x
