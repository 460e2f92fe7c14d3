"""Dense linear-algebra kernel: the one SPD solve, spectral radius, Lyapunov.

All routines operate on plain float64 ndarrays and are pure functions of their
inputs, so they are safe to call from parallel workers.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NonConvergence, NotPositiveDefinite, NotStationary

__all__ = [
    "cholesky_solve",
    "spectral_radius",
    "lyapunov_doubling",
]


# Tolerances and iteration budgets, read at call time; the docstrings say how each is used.
SYM_TOL = 1e-10
PIVOT_TOL = 1e-12
LYAPUNOV_TOL = 1e-12
LYAPUNOV_MAX_ITER = 200


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def cholesky_solve(A, B):
    """Solve A X = B for symmetric positive-definite A with one LAPACK ``dposv``
    call, which factors A = L L' and solves at once.  It is the package's one
    least-squares solve: OLS refits solve the normal equations on a Gram block.

    Raises NotPositiveDefinite when A is asymmetric beyond ``SYM_TOL`` (relative)
    or, the pivot rule, when the factorization fails or a squared pivot of L
    falls at or below ``PIVOT_TOL`` times the largest diagonal entry of A.
    """
    A = _as_matrix(A)
    B = np.asarray(B, dtype=np.float64)
    scale = np.abs(A).max() if A.size else 0.0
    if scale > 0 and np.abs(A - A.T).max() > SYM_TOL * scale:
        raise NotPositiveDefinite("matrix is not symmetric within tolerance")
    L, X, info = lapack.dposv(A, B, lower=1)
    if info != 0 or np.min(np.diag(L)) ** 2 <= PIVOT_TOL * np.max(np.diag(A)):
        raise NotPositiveDefinite("pivot below positive-definiteness threshold")
    return X


def spectral_radius(F) -> float:
    """Largest eigenvalue modulus of the square matrix F (QR algorithm)."""
    F = _as_matrix(F)
    if F.shape[0] != F.shape[1]:
        raise ValueError("matrix must be square")
    return float(np.abs(np.linalg.eigvals(F)).max(initial=0.0))


def lyapunov_doubling(F, Omega) -> np.ndarray:
    """Solve the discrete Lyapunov equation G = F G F' + Omega.

    Uses the doubling iteration G_{m+1} = G_m + A_m G_m A_m', A_{m+1} = A_m^2
    started from G_0 = Omega, A_0 = F, stopping once the increment max-norm
    drops below ``LYAPUNOV_TOL``, and raising NonConvergence after ``LYAPUNOV_MAX_ITER``
    doublings.  Requires spectral_radius(F) < 1 - 1e-8.
    """
    F = _as_matrix(F)
    Omega = _as_matrix(Omega)
    rho = spectral_radius(F)
    if rho >= 1.0 - 1e-8:
        raise NotStationary(f"spectral radius {rho:.6f} too close to one")
    G = Omega.copy()
    A = F.copy()
    for _ in range(LYAPUNOV_MAX_ITER):
        inc = A @ G @ A.T
        G = G + inc
        if np.abs(inc).max() < LYAPUNOV_TOL:
            return (G + G.T) / 2.0
        A = A @ A
    raise NonConvergence("Lyapunov doubling did not converge")
