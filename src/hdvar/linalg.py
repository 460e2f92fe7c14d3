"""Dense linear-algebra kernel: SPD solves, least squares, spectral radius, Lyapunov.

All routines operate on plain float64 ndarrays and are pure functions of their
inputs, so they are safe to call from parallel workers.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NonConvergence, NotPositiveDefinite, NotStationary, SingularDesign

__all__ = [
    "cholesky_solve",
    "least_squares",
    "spectral_radius",
    "lyapunov_doubling",
]


# Tolerances and iteration budgets, read at call time; the docstrings say how each is used.
SYM_TOL = 1e-10
PIVOT_TOL = 1e-12
RANK_TOL = 1e-10
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
    """Solve A X = B for symmetric positive-definite A via Cholesky.

    Raises NotPositiveDefinite when A is asymmetric beyond ``SYM_TOL`` (relative)
    or a squared pivot falls at or below ``PIVOT_TOL`` times the largest diagonal
    entry.
    """
    A = _as_matrix(A)
    B = np.asarray(B, dtype=np.float64)
    scale = np.abs(A).max() if A.size else 0.0
    if scale > 0 and np.abs(A - A.T).max() > SYM_TOL * scale:
        raise NotPositiveDefinite("matrix is not symmetric within tolerance")
    try:
        L = scipy.linalg.cholesky(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    max_diag = np.max(np.diag(A)) if A.size else 0.0
    if np.min(np.diag(L)) ** 2 <= PIVOT_TOL * max_diag:
        raise NotPositiveDefinite("pivot below positive-definiteness threshold")
    Z = scipy.linalg.solve_triangular(L, B, lower=True, check_finite=False)
    return scipy.linalg.solve_triangular(L.T, Z, lower=False, check_finite=False)


def least_squares(X, y) -> np.ndarray:
    """Minimize ||y - X b||^2 through a QR factorization.

    Raises SingularDesign when the smallest pivot of X'X is at or below
    ``RANK_TOL`` times the largest (the caller should fall back to a
    penalized estimator).
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < X.shape[1]:
        raise SingularDesign("fewer rows than columns")
    Q, R = np.linalg.qr(X)
    d = np.abs(np.diag(R))
    if d.size and d.min() ** 2 <= RANK_TOL * d.max() ** 2:
        raise SingularDesign("rank-deficient design")
    return scipy.linalg.solve_triangular(R, Q.T @ y, lower=False, check_finite=False)


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
