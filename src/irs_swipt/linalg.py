"""Small complex linear-algebra helpers shared by the metrics and solvers.

All rate/MSE computations go through Hermitian solves or Cholesky factors;
explicit inverses are avoided except for the tiny d-by-d weight matrices.
"""

import numpy as np

from .errors import ConditioningError

MAX_CONDITION = 1e12


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Symmetrize away floating-point drift in a nominally Hermitian matrix."""
    return 0.5 * (a + herm(a))


def hermitian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for Hermitian positive-definite a.

    Raises ConditioningError if the condition number exceeds MAX_CONDITION;
    noise power > 0 keeps every system solved here well away from that.
    """
    a = hermitianize(a)
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0.0 or w[-1] / w[0] > MAX_CONDITION:
        raise ConditioningError(
            f"Hermitian system condition {w[-1] / max(w[0], 1e-300):.3e} exceeds "
            f"{MAX_CONDITION:.0e}"
        )
    c = np.linalg.cholesky(a)
    y = np.linalg.solve(c, b)
    return np.linalg.solve(herm(c), y)


def logdet_pd(a: np.ndarray) -> float:
    """log-determinant of a Hermitian positive-definite matrix via Cholesky."""
    c = np.linalg.cholesky(hermitianize(a))
    return float(2.0 * np.sum(np.log(np.real(np.diag(c)))))


def max_eigpair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a Hermitian matrix."""
    w, v = np.linalg.eigh(hermitianize(a))
    return float(w[-1]), v[:, -1]


def frob_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.real(np.vdot(a, a)))


def unit_phase(z: np.ndarray) -> np.ndarray:
    """exp(j arg(z)) entrywise, with arg(0) := 0 so zero entries map to 1."""
    return np.exp(1j * np.angle(z))
