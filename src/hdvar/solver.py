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

The lambda path is the unit of work: ``lasso_path`` checks its weights and
forms Psi, c and the pinned coordinates once, then runs one coordinate-descent
kernel per grid point, carrying beta and the exact gradient g = c - Psi beta
from one point to the next.  ``lasso_cd`` is the same kernel at one lambda.
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
    "adaptive_weights",
    "lasso_path",
    "ridge_path",
]


def _lam_w(lam: float, weights: np.ndarray | None, m: int) -> np.ndarray:
    """Per-coordinate thresholds lam*w_j with 0*inf resolved to exclusion."""
    if weights is None:
        return np.full(m, float(lam))
    return np.where(np.isinf(weights), np.inf, lam * weights).astype(np.float64)


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
        if self.weights is not None and len(self.weights) != m:
            raise ValueError("weight length does not match design")
        return _lam_w(self.lam, self.weights, m)


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
    # lam_w_j sign(beta_j) on the active set only and lam_w_j on the idle set only,
    # so an infinite lam_w_j never meets a 0 (an active one reports inf)
    subgradient = np.multiply(lam_w, sign, out=np.zeros_like(g), where=~idle)
    return max(0.0, float((np.abs(g - subgradient) - np.where(idle, lam_w, 0.0)).max()))


def _gram(X, y) -> tuple:
    """The sufficient statistics of the L1 objective: Psi = X'X/T and c = X'y/T."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    T = X.shape[0]
    if T < 1:
        raise ValueError("need at least one observation")
    return (X.T @ X) / T, (X.T @ y) / T


def _free_residual(g: list, b: list, thresholds: list, free: list) -> float:
    """_kkt_residual on Python floats over the free coordinates, by the same IEEE
    operations: |g_j -+ lam_w_j| on the active set, |g_j| - lam_w_j on idle ones.
    A pinned coordinate (zero, with g_j = 0 or lam_w_j infinite) adds at most 0."""
    viol = 0.0
    for j in free:
        bj = b[j]
        if bj > 0.0:
            r = abs(g[j] - thresholds[j])
        elif bj < 0.0:
            r = abs(g[j] + thresholds[j])
        else:
            r = abs(g[j]) - thresholds[j]
        if r > viol:
            viol = r
    return viol


def _sign_fixed_step(psi, c, beta, lam_w, tol) -> tuple | None:
    """(candidate, its gradient c - Psi candidate, KKT residual) of the exact minimiser
    with beta's support and signs, or None when the system is singular, a sign
    flips or the residual exceeds ``tol``."""
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
    g = c - psi @ cand
    viol = _kkt_residual(g, cand, lam_w)
    return (cand, g, viol) if viol <= tol else None


def _sweep_state(psi, pinned) -> tuple:
    """Psi's rows, its diagonal as floats and the free (unpinned) coordinates."""
    # Psi is symmetric, so row j (contiguous) is the column a move of beta_j scales
    return list(psi), psi.diagonal().tolist(), np.flatnonzero(~pinned).tolist()


def _descend(psi, c, rows, diag, free, lam_w, beta, g, tol, max_iter, on_iterate=None) -> tuple:
    """Coordinate descent at one penalty from ``beta`` and its exact gradient
    ``g = c - Psi beta`` over the ``free`` coordinates (see ``_sweep_state``);
    returns (beta, g, sweeps, KKT residual).  After every sweep g is
    recomputed exactly, and every EXACT_EVERY sweeps the sign-fixed step is
    tried; ``on_iterate`` sees each iterate.
    """
    # the scalar work runs on Python floats, which index faster than arrays
    thresholds = lam_w.tolist()
    b = beta.tolist()
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
        if on_iterate is not None:
            on_iterate(beta)
        g = c - psi @ beta
        viol = _free_residual(g.tolist(), b, thresholds, free)
        if viol <= tol:
            break
        if sweeps % EXACT_EVERY == 0:
            step = _sign_fixed_step(psi, c, beta, lam_w, tol)
            if step is not None:
                beta, g, viol = step
                if on_iterate is not None:
                    on_iterate(beta)
                break
    return beta, g, sweeps, viol


def lasso_cd(
    X, y, pen: PenaltySpec, tol=1e-7, max_iter=1000, warm_start: np.ndarray | None = None, track_objective=False
) -> SolverResult:
    """Minimize the weighted L1 objective by cyclic coordinate descent at one penalty.

    With the gradient g = c - Psi beta kept up to date, the coordinate update
    is beta_j <- S(g_j + Psi_jj beta_j, lam*w_j) / Psi_jj; zero columns and
    infinitely weighted coordinates are pinned to zero.  This is one call of
    the kernel ``lasso_path`` runs at each grid point (see the module
    docstring); converged means the KKT residual of the returned beta is at
    most ``tol`` within ``max_iter`` full sweeps (otherwise ``converged`` is
    False).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = X.shape[1]
    psi, c = _gram(X, y)
    lam_w = pen.lam_w(m)
    if warm_start is not None:
        beta = np.array(warm_start, dtype=np.float64, copy=True)
        if beta.shape != (m,):
            raise ValueError("warm start has wrong length")
    else:
        beta = np.zeros(m)
    pinned = (psi.diagonal() == 0.0) | np.isinf(lam_w)
    beta[pinned] = 0.0
    history = [] if track_objective else None
    on_iterate = None if history is None else (lambda b: history.append(objective(X, y, b, pen)))
    state = _sweep_state(psi, pinned)
    beta, _, sweeps, viol = _descend(psi, c, *state, lam_w, beta, c - psi @ beta, tol, max_iter, on_iterate)
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


def adaptive_weights(stage1: np.ndarray) -> np.ndarray:
    """1/|first-stage coefficient|; coordinates the first stage zeroed are excluded."""
    with np.errstate(divide="ignore"):
        return np.where(stage1 != 0.0, 1.0 / np.abs(stage1), np.inf)


def lasso_path(X, y, weights: np.ndarray | None = None, n_lambda=100, ratio=1e-4, tol=1e-7, max_iter=1000) -> list:
    """Warm-started fits on a log-spaced grid from lambda_max down to ratio*lambda_max.

    The weights are checked, and X'X/T, X'y/T and the pinned coordinates
    formed, once per path; each grid point is one call of the ``lasso_cd``
    kernel, started from the previous point's beta and its exact gradient.
    Returns [(lambda, SolverResult), ...] ordered by decreasing lambda.
    """
    if n_lambda < 2:
        raise ValueError("need at least two grid points")
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    X_f = np.asfortranarray(X, dtype=np.float64)
    m = X_f.shape[1]
    psi, c = _gram(X_f, y)
    w = PenaltySpec(0.0, weights).weights  # checked once per path
    if w is not None and len(w) != m:
        raise ValueError("weight length does not match design")
    lmax = lambda_max(X_f, y, w)
    if lmax == 0.0:
        grid = np.zeros(n_lambda)
    else:
        # the 1e-10 margin keeps the top-of-path solution exactly zero even when
        # the solver's gradient differs from lambda_max's by rounding
        grid = lmax * (1.0 + 1e-10) * np.logspace(0.0, np.log10(ratio), n_lambda)
    excluded = np.zeros(m, dtype=bool) if w is None else np.isinf(w)
    state = _sweep_state(psi, (psi.diagonal() == 0.0) | excluded)
    beta = np.zeros(m)
    g = c - psi @ beta
    out = []
    for lam in grid.tolist():
        beta, g, sweeps, viol = _descend(psi, c, *state, _lam_w(lam, w, m), beta, g, tol, max_iter)
        out.append((lam, SolverResult(beta=beta, iterations=sweeps, max_kkt_violation=viol, converged=viol <= tol)))
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
