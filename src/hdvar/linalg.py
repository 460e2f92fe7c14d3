"""Dense linear-algebra kernel: the one SPD solve and the spectral radius.

All routines operate on plain float64 ndarrays and are pure functions of their
inputs, so they are safe to call from parallel workers.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefinite

__all__ = [
    "cholesky_solve",
    "spectral_radius",
]


# Tolerances, read at call time; the docstrings say how each is used.
SYM_TOL = 1e-10
PIVOT_TOL = 1e-12


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

