"""Weighted L1 penalized least squares by cyclic coordinate descent, plus ridge paths.

Objective convention: L(b) = (1/T)||y - X b||^2 + 2*lam*sum_j w_j |b_j|.
Convergence is declared on the KKT residual, not on coefficient change, since
the stationarity conditions are what the theory diagnostics consume.

Coordinate descent runs in covariance-update form (Friedman, Hastie and
Tibshirani 2010, JSS 33(1), section 2.2): it works on Psi = X'X/T and
c = X'y/T and never touches X inside a sweep, so a coordinate update costs
O(m) instead of O(T).

Every EXACT_EVERY sweeps, while the KKT residual is still above ``tol``,
coordinate descent tries an exact sign-fixed step.  Given the active set A
and signs s of the current iterate, the minimiser with that support and
those signs solves Psi_AA beta_A = c_A - lam w_A s, the step the homotopy
algorithm takes between kinks (Osborne, Presnell and Turlach 2000, IMA J.
Numer. Anal. 20(3)).  The candidate is accepted only if its signs equal s
and its full KKT residual is within ``tol``; otherwise it is discarded and
the sweeps go on from the coordinate-descent iterate.  A fit that converges
within EXACT_EVERY sweeps never reaches the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy

from .errors import AllWeightsInfinite

# sweeps between attempts of the exact sign-fixed step in lasso_cd
EXACT_EVERY = 5

__all__ = [
    "PenaltySpec",
    "SolverResult",
    "objective",
    "lasso_cd",
    "kkt_check",
    "lambda_max",
    "lasso_path",
    "ridge_path",
]


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty level and per-coordinate weights; an infinite weight excludes the coordinate."""

    lam: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if np.any(w < 0) or np.any(np.isnan(w)):
                raise ValueError("weights must be nonnegative")
            object.__setattr__(self, "weights", w)

    def lam_w(self, m: int) -> np.ndarray:
        """Per-coordinate thresholds lam*w_j with 0*inf resolved to exclusion."""
        if self.weights is None:
            return np.full(m, float(self.lam))
        if len(self.weights) != m:
            raise ValueError("weight length does not match design")
        out = np.where(np.isinf(self.weights), np.inf, self.lam * self.weights)
        return out.astype(np.float64)


@dataclass
class SolverResult:
    beta: np.ndarray
    iterations: int
    max_kkt_violation: float
    converged: bool
    objective_history: list | None = None


def objective(X, y, beta, pen: PenaltySpec) -> float:
    """Value of (1/T)||y - X beta||^2 + 2*lam*sum w_j |beta_j|."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    T = X.shape[0]
    r = y - X @ beta
    lam_w = pen.lam_w(X.shape[1])
    pterm = np.where(beta != 0.0, lam_w * np.abs(beta), 0.0)
    if np.any(np.isnan(pterm)):
        return np.inf
    return float(r @ r / T + 2.0 * pterm.sum())


def _kkt_residual(g: np.ndarray, beta: np.ndarray, lam_w: np.ndarray) -> float:
    """Largest stationarity violation given the gradient g = X'(y - X beta)/T.

    Active coordinates contribute |g_j - lam_w_j sign(beta_j)|, idle ones
    max(0, |g_j| - lam_w_j), which is 0 where lam_w_j is infinite.
    """
    if not g.size:
        return 0.0
    sign = np.sign(beta)
    idle = sign == 0.0
    # lam_w_j sign(beta_j) on the active set only: an idle coordinate's 0 * inf stays out
    subgradient = np.multiply(lam_w, sign, out=np.zeros_like(g), where=~idle)
    return max(0.0, float((np.abs(g - subgradient) - lam_w * idle).max()))


def _gram(X, y) -> tuple:
    """The sufficient statistics of the L1 objective: Psi = X'X/T and c = X'y/T."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    T = X.shape[0]
    return (X.T @ X) / T, (X.T @ y) / T


def _sign_fixed_step(psi, c, beta, lam_w, tol) -> tuple | None:
    """(candidate, KKT residual) of the exact minimiser with beta's support and signs,
    or None when the system is singular, a sign flips or the residual exceeds ``tol``."""
    active = np.flatnonzero(beta)
    sign = np.sign(beta[active])
    try:
        beta_a = np.linalg.solve(psi[np.ix_(active, active)], c[active] - lam_w[active] * sign)
    except np.linalg.LinAlgError:
        return None
    if not np.array_equal(np.sign(beta_a), sign):
        return None
    cand = np.zeros_like(beta)
    cand[active] = beta_a
    viol = _kkt_residual(c - psi @ cand, cand, lam_w)
    return (cand, viol) if viol <= tol else None


def lasso_cd(
    X,
    y,
    pen: PenaltySpec,
    tol: float = 1e-7,
    max_iter: int = 1000,
    warm_start: np.ndarray | None = None,
    track_objective: bool = False,
    gram: tuple | None = None,
) -> SolverResult:
    """Minimize the weighted L1 objective by cyclic coordinate descent.

    With the gradient g = c - Psi beta kept up to date, the coordinate update
    is beta_j <- S(g_j + Psi_jj beta_j, lam*w_j) / Psi_jj; zero columns and
    infinitely weighted coordinates are pinned to zero.  ``gram`` passes
    a precomputed ``(Psi, c)``.  After every sweep g is recomputed exactly,
    and every EXACT_EVERY sweeps the exact sign-fixed step is tried (see the
    module docstring); converged means the KKT residual of the returned beta
    is at most ``tol`` within ``max_iter`` full sweeps (otherwise
    ``converged`` is False).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    T, m = X.shape
    if T < 1:
        raise ValueError("need at least one observation")
    psi, c = _gram(X, y) if gram is None else gram
    lam_w = pen.lam_w(m)
    if warm_start is not None:
        beta = np.array(warm_start, dtype=np.float64, copy=True)
        if beta.shape != (m,):
            raise ValueError("warm start has wrong length")
    else:
        beta = np.zeros(m)
    pinned = (psi.diagonal() == 0.0) | np.isinf(lam_w)
    beta[pinned] = 0.0
    free = np.flatnonzero(~pinned).tolist()
    # the scalar work runs on Python floats, which index faster than arrays
    diag = psi.diagonal().tolist()
    thresholds = lam_w.tolist()
    # Psi is symmetric, so row j (contiguous) is the column a move of beta_j scales
    rows = list(psi)
    b = beta.tolist()
    g = c - psi @ beta
    history = [] if track_objective else None
    sweeps = 0
    viol = np.inf
    for sweeps in range(1, max_iter + 1):
        for j in free:
            bj = b[j]
            d = diag[j]
            gamma = thresholds[j]
            z = g.item(j) + d * bj
            if z > gamma:
                new = (z - gamma) / d
            elif z < -gamma:
                new = (z + gamma) / d
            else:
                new = 0.0
            if new != bj:
                # g -= Psi[:, j] * (new - bj), in place; an O(m) update
                g = daxpy(rows[j], g, a=bj - new)
                b[j] = new
        beta = np.array(b)
        if track_objective:
            history.append(objective(X, y, beta, pen))
        g = c - psi @ beta
        viol = _kkt_residual(g, beta, lam_w)
        if viol <= tol:
            break
        if sweeps % EXACT_EVERY == 0:
            cand = _sign_fixed_step(psi, c, beta, lam_w, tol)
            if cand is not None:
                beta, viol = cand
                if track_objective:
                    history.append(objective(X, y, beta, pen))
                break
    return SolverResult(
        beta=beta,
        iterations=sweeps,
        max_kkt_violation=viol,
        converged=viol <= tol,
        objective_history=history,
    )


def kkt_check(X, y, beta, pen: PenaltySpec) -> float:
    """Largest stationarity violation of the weighted L1 objective at ``beta``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    T, m = X.shape
    g = X.T @ (y - X @ beta) / T
    return _kkt_residual(g, beta, pen.lam_w(m))


def lambda_max(X, y, weights: np.ndarray | None = None) -> float:
    """Smallest penalty level with an all-zero solution: max_j |(1/T)X_j'y| / w_j."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    T = X.shape[0]
    g = np.abs(X.T @ y) / T
    if weights is None:
        return float(g.max()) if g.size else 0.0
    w = np.asarray(weights, dtype=np.float64)
    finite = np.isfinite(w)
    if not finite.any():
        raise AllWeightsInfinite("no coordinate carries a finite weight")
    if np.any(w[finite] <= 0):
        raise ValueError("weights must be positive where finite")
    return float((g[finite] / w[finite]).max())


def lasso_path(
    X,
    y,
    weights: np.ndarray | None = None,
    n_lambda: int = 100,
    ratio: float = 1e-4,
    tol: float = 1e-7,
    max_iter: int = 1000,
) -> list:
    """Warm-started fits on a log-spaced grid from lambda_max down to ratio*lambda_max.

    X'X/T and X'y/T are formed once and shared by every grid point.  Returns
    [(lambda, SolverResult), ...] ordered by decreasing lambda.
    """
    if n_lambda < 2:
        raise ValueError("need at least two grid points")
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    X_f = np.asfortranarray(X, dtype=np.float64)
    lmax = lambda_max(X_f, y, weights)
    stats = _gram(X_f, y)
    if lmax == 0.0:
        grid = np.zeros(n_lambda)
    else:
        # the 1e-10 margin keeps the top-of-path solution exactly zero even when
        # the solver's gradient differs from lambda_max's by rounding
        grid = lmax * (1.0 + 1e-10) * np.logspace(0.0, np.log10(ratio), n_lambda)
    out = []
    warm = None
    for lam in grid:
        res = lasso_cd(
            X_f,
            y,
            PenaltySpec(lam=float(lam), weights=weights),
            tol=tol,
            max_iter=max_iter,
            warm_start=warm,
            gram=stats,
        )
        out.append((float(lam), res))
        warm = res.beta
    return out


def ridge_path(X, y, grid, eig: tuple | None = None) -> tuple:
    """Ridge solutions (X'X + lam I)^{-1} X'y and their exact degrees of freedom
    for every lam in ``grid``, in closed form.

    With X'X = V diag(d) V', beta(lam) = V diag(1/(d + lam)) V'X'y and
    df(lam) = trace(X (X'X + lam I)^{-1} X') = sum_j d_j / (d_j + lam)
    (Hastie, Tibshirani and Friedman, ESL 2nd ed., section 3.4.1), so one
    eigendecomposition serves the whole grid; responses that share X share it
    through ``eig = (d, V)``.  The penalty is unscaled, matching the
    degrees-of-freedom formula.  Returns (B, df): column l of the m x n matrix
    B is the solution at grid[l].
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(grid <= 0):
        raise ValueError("ridge penalty must be positive")
    d, V = np.linalg.eigh(X.T @ X) if eig is None else eig
    # X'X is positive semidefinite; rounding can leave tiny negative eigenvalues
    d = np.clip(d, 0.0, None)
    shrink = 1.0 / (d[:, None] + grid[None, :])
    B = V @ (shrink * (V.T @ (X.T @ y))[:, None])
    return B, d @ shrink
