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
Numer. Anal. 20(3); Efron et al. 2004, Ann. Statist. 32(2)).  The candidate
is accepted only if its signs equal s and its full KKT residual is within
``tol``; otherwise it is discarded and the sweeps go on from the
coordinate-descent iterate.  A fit that converges within EXACT_EVERY sweeps
never reaches the step.

Every L1 fit runs through one setup, ``_fit_grid``: it forms Psi and c,
checks the weights, pins zero columns and infinitely weighted coordinates to
zero, and builds the sweep state and the thresholds lam*w of every penalty
once; then it runs one coordinate-descent kernel per penalty of a lambda
sequence, carrying beta and the exact gradient g = c - Psi beta from one
point to the next.  ``lasso_path`` runs it on a log-spaced grid of N_LAMBDA
points from lambda_max down to LAMBDA_RATIO times lambda_max, and
``lasso_cd`` on the one-point grid [lam].

Between kinks the solution is affine in lambda, and the setup follows the
path with the same sign-fixed solve in two more places.  A point after one
that ended on an accepted exact step first predicts: it solves on its
predecessor's (A, s), dropping coordinates whose sign flipped or adding idle
ones that violate their condition, up to PREDICT_CORRECTIONS times, before
any sweep.  A point after one that converged by sweeping alone sweeps as
before, so its iterate is unchanged.  And once a converged point has every
free coordinate nonzero, one solve Psi_AA [u v] = [c_A, w_A s] gives
beta(lam) = u - lam v for the rest of the grid, taken whole only if its
signs at both ends equal s and every point's KKT residual is within ``tol``.
Closed-form points report 0 iterations.  Every point's KKT residual is within
``tol``, or it reports converged=False.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy

from .errors import AllWeightsInfinite

# sweeps between attempts of the exact sign-fixed step
EXACT_EVERY = 5
# corrections of the support the predictor makes after a fit that ended on an exact step
PREDICT_CORRECTIONS = 3
# the lambda grid of every BIC-tuned fit: N_LAMBDA log-spaced points from
# lambda_max down to LAMBDA_RATIO * lambda_max
N_LAMBDA = 100
LAMBDA_RATIO = 1e-4

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


def _thresholds(grid, weights: np.ndarray | None, m: int) -> np.ndarray:
    """len(grid) x m thresholds, row l holding lam_l*w_j, with 0*inf resolved to exclusion."""
    lams = np.asarray(grid, dtype=np.float64)[:, None]
    if weights is None:
        return np.repeat(lams, m, axis=1)
    with np.errstate(invalid="ignore"):  # 0 * inf, replaced by inf
        return np.where(np.isinf(weights), np.inf, lams * weights)


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
        return _thresholds([self.lam], self.weights, m)[0]


@dataclass
class SolverResult:
    beta: np.ndarray
    iterations: int
    max_kkt_violation: float
    converged: bool


def objective(X, y, beta, pen: PenaltySpec) -> float:
    """Value of (1/T)||y - X beta||^2 + 2*lam*sum w_j |beta_j|."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    T = X.shape[0]
    r = y - X @ beta
    lam_w = pen.lam_w(X.shape[1])
    # lam_w_j |beta_j| on the nonzero coordinates only, so an infinite lam_w_j never meets a 0
    pterm = np.multiply(lam_w, np.abs(beta), out=np.zeros_like(beta), where=beta != 0.0)
    if np.any(np.isnan(pterm)):
        return np.inf
    return float(r @ r / T + 2.0 * pterm.sum())


def _kkt_residual(g: np.ndarray, beta: np.ndarray, lam_w: np.ndarray):
    """Largest stationarity violation given the gradient g = X'(y - X beta)/T.

    Active coordinates contribute |g_j - lam_w_j sign(beta_j)|, idle ones
    max(0, |g_j| - lam_w_j), which is 0 where lam_w_j is infinite.  On n x m
    arrays, one fit per row, it returns the n residuals.
    """
    if not g.size:
        return 0.0
    sign = np.sign(beta)
    idle = sign == 0.0
    # lam_w_j sign(beta_j) on the active set only and lam_w_j on the idle set only,
    # so an infinite lam_w_j never meets a 0 (an active one reports inf)
    subgradient = np.multiply(lam_w, sign, out=np.zeros_like(g), where=~idle)
    viol = (np.abs(g - subgradient) - np.where(idle, lam_w, 0.0)).max(axis=-1)
    return np.maximum(viol, 0.0) if viol.ndim else max(0.0, float(viol))


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


def _support_solve(psi, active, rhs) -> np.ndarray | None:
    """Psi_AA^{-1} rhs on the support ``active``, or None when Psi_AA is singular."""
    try:
        return np.linalg.solve(psi[np.ix_(active, active)], rhs)
    except np.linalg.LinAlgError:
        return None


def _sign_fixed_step(psi, c, s, lam_w, tol, corrections=0) -> tuple | None:
    """(candidate, its gradient c - Psi candidate, KKT residual) of the exact minimiser
    with the support and signs of the sign vector ``s`` (updated in place), or None
    when no candidate has unchanged signs and a residual within ``tol``.

    A rejected candidate is corrected, and solved again, up to ``corrections``
    times: coordinates whose sign flipped leave the support; if none flipped,
    the idle coordinates with |g_j| > lam_w_j enter it with the sign of g_j.
    """
    for _ in range(1 + corrections):
        active = np.flatnonzero(s)
        sign = s[active]
        beta_a = _support_solve(psi, active, c[active] - lam_w[active] * sign)
        if beta_a is None:
            return None
        flipped = np.sign(beta_a) != sign
        if flipped.any():
            s[active[flipped]] = 0.0
            continue
        cand = np.zeros_like(c)
        cand[active] = beta_a
        g = c - psi @ cand
        viol = _kkt_residual(g, cand, lam_w)
        if viol <= tol:
            return cand, g, viol
        # pinned coordinates never enter: they have g_j = 0 or lam_w_j = inf
        enter = (cand == 0.0) & (np.abs(g) > lam_w)
        if not enter.any():
            return None
        s[enter] = np.sign(g[enter])
    return None


def _affine_tail(psi, c, beta, w, grid, lam_ws, tol) -> list | None:
    """SolverResults at the penalties ``grid`` (thresholds ``lam_ws``, one row each)
    on the affine path beta(lam) = u - lam v with beta's support A and signs s,
    where Psi_AA [u v] = [c_A, w_A s] (w = 1 if None); None unless the signs at both ends of
    ``grid`` equal s and every point's KKT residual is within ``tol``."""
    active = np.flatnonzero(beta)
    sign = np.sign(beta[active])
    ws = sign if w is None else w[active] * sign
    uv = _support_solve(psi, active, np.column_stack([c[active], ws]))
    if uv is None:
        return None
    B = np.zeros((len(grid), len(beta)))
    B[:, active] = uv[:, 0] - np.multiply.outer(grid, uv[:, 1])
    # each beta_j is affine in lam, so equal signs at both ends hold in between
    if not (np.array_equal(np.sign(B[0, active]), sign) and np.array_equal(np.sign(B[-1, active]), sign)):
        return None
    viol = _kkt_residual(c - B @ psi, B, lam_ws)
    if viol.max() > tol:
        return None
    return [SolverResult(beta=b, iterations=0, max_kkt_violation=float(v), converged=True) for b, v in zip(B, viol)]


def _descend(psi, c, rows, diag, free, lam_w, beta, g, tol, max_iter) -> tuple:
    """Coordinate descent at one penalty from ``beta`` and its exact gradient
    ``g = c - Psi beta`` over the ``free`` coordinates (see ``_fit_grid``);
    returns (beta, g, sweeps, KKT residual, whether an exact step ended it).
    After every sweep g is recomputed exactly, and every EXACT_EVERY sweeps
    the sign-fixed step is tried.
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
        g = c - psi @ beta
        viol = _free_residual(g.tolist(), b, thresholds, free)
        if viol <= tol:
            break
        if sweeps % EXACT_EVERY == 0:
            step = _sign_fixed_step(psi, c, np.sign(beta), lam_w, tol)
            if step is not None:
                beta, g, viol = step
                return beta, g, sweeps, viol, True
    return beta, g, sweeps, viol, False


def _fit_grid(X, y, weights: np.ndarray | None, grid, start: np.ndarray | None, tol, max_iter) -> list:
    """SolverResults of the weighted L1 fits at each penalty of ``grid``, in order.

    The one setup of every L1 fit: Psi = X'X/T and c = X'y/T are formed, the
    weights checked, zero columns and infinitely weighted coordinates pinned
    to zero, and the sweep state and the thresholds of every penalty built
    once.  The first fit starts from ``start`` (zero if None) and each later
    one from the fit before it, with its exact gradient, or in closed form:
    predicted after a fit that ended on an exact step, or on the affine tail
    once a converged fit has full support (see the module docstring).  A fit
    converged if its KKT residual is at most ``tol`` within ``max_iter`` full
    sweeps.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    T, m = X.shape
    if T < 1:
        raise ValueError("need at least one observation")
    psi, c = (X.T @ X) / T, (X.T @ y) / T
    if weights is not None and len(weights) != m:
        raise ValueError("weight length does not match design")
    beta = np.zeros(m) if start is None else np.array(start, dtype=np.float64, copy=True)
    if beta.shape != (m,):
        raise ValueError("warm start has wrong length")
    pinned = psi.diagonal() == 0.0
    if weights is not None:
        pinned |= np.isinf(weights)
    beta[pinned] = 0.0
    n_free = m - int(pinned.sum())
    # Psi is symmetric, so row j (contiguous) is the column a move of beta_j scales
    state = (list(psi), psi.diagonal().tolist(), np.flatnonzero(~pinned).tolist())
    g = c - psi @ beta
    grid = np.asarray(grid, dtype=np.float64)
    lam_ws = _thresholds(grid, weights, m)
    out = []
    stepped = full = False
    for l, lam_w in enumerate(lam_ws):
        step = _sign_fixed_step(psi, c, np.sign(beta), lam_w, tol, PREDICT_CORRECTIONS) if stepped else None
        if step is None:
            beta, g, sweeps, viol, stepped = _descend(psi, c, *state, lam_w, beta, g, tol, max_iter)
        else:
            (beta, g, viol), sweeps = step, 0
        out.append(SolverResult(beta=beta, iterations=sweeps, max_kkt_violation=viol, converged=viol <= tol))
        # the tail is tried once each time the converged support becomes full
        was_full, full = full, 0 < n_free == np.count_nonzero(beta) and viol <= tol
        if full and not was_full and l + 1 < len(grid):
            tail = _affine_tail(psi, c, beta, weights, grid[l + 1 :], lam_ws[l + 1 :], tol)
            if tail is not None:
                return out + tail
    return out


def lasso_cd(X, y, pen: PenaltySpec, tol=1e-7, max_iter=1000, warm_start: np.ndarray | None = None) -> SolverResult:
    """Minimize the weighted L1 objective by cyclic coordinate descent at one penalty.

    With the gradient g = c - Psi beta kept up to date, the coordinate update
    is beta_j <- S(g_j + Psi_jj beta_j, lam*w_j) / Psi_jj; zero columns and
    infinitely weighted coordinates are pinned to zero.  This is the solver
    setup of ``lasso_path`` on the one-point grid [pen.lam], started from
    ``warm_start`` (zero if None); converged means the KKT residual of the
    returned beta is at most ``tol`` within ``max_iter`` full sweeps.
    """
    return _fit_grid(X, y, pen.weights, [pen.lam], warm_start, tol, max_iter)[0]


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
    if w.shape != g.shape:
        raise ValueError("weight length does not match design")
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


def lasso_path(
    X, y, weights: np.ndarray | None = None, n_lambda=N_LAMBDA, ratio=LAMBDA_RATIO, tol=1e-7, max_iter=1000
) -> list:
    """Warm-started fits on a log-spaced grid from lambda_max down to ratio*lambda_max.

    The grid runs through the one solver setup (see ``_fit_grid``), each point
    started from the previous point's beta and its exact gradient.
    Returns [(lambda, SolverResult), ...] ordered by decreasing lambda.
    """
    if n_lambda < 2:
        raise ValueError("need at least two grid points")
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    X = np.asfortranarray(X, dtype=np.float64)
    w = PenaltySpec(0.0, weights).weights  # nonnegative and not NaN
    lmax = lambda_max(X, y, w)
    if lmax == 0.0:
        grid = np.zeros(n_lambda)
    else:
        # the 1e-10 margin keeps the top-of-path solution exactly zero even when
        # the solver's gradient differs from lambda_max's by rounding
        grid = lmax * (1.0 + 1e-10) * np.logspace(0.0, np.log10(ratio), n_lambda)
    grid = grid.tolist()
    return list(zip(grid, _fit_grid(X, y, w, grid, None, tol, max_iter)))


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
