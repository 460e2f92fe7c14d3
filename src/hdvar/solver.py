"""Weighted L1 penalized least squares by cyclic coordinate descent, plus ridge paths.

Objective convention: L(b) = (1/T)||y - X b||^2 + 2*lam*sum_j w_j |b_j|.
Convergence is declared on the KKT residual, not on coefficient change, since
the stationarity conditions are what the theory diagnostics consume.

Coordinate descent runs in covariance-update form (Friedman, Hastie and
Tibshirani 2010, JSS 33(1), section 2.2): it works on Psi = X'X/T and
c = X'y/T and never touches X inside a sweep, so a coordinate update costs
O(m) instead of O(T).

Every L1 fit runs through one setup, ``_fit_grid``: given Psi, c and y'y it
checks the weights, pins zero columns and infinitely weighted coordinates to
zero, and builds the sweep state and the thresholds lam*w of every penalty
once; then it runs one coordinate-descent kernel per penalty of a lambda
sequence, carrying beta and the exact gradient g = c - Psi beta from one
point to the next, and fills one row per point of a ``LassoPath``.
``lasso_path``, the one L1 entry point, runs it on a log-spaced grid of
N_LAMBDA points from lambda_max down to LAMBDA_RATIO times lambda_max, or,
given a fixed penalty, on the one-point grid [lam] from zero.  It takes
Psi = X'X/T from the caller, who forms it once per design; responses that
share a design share its Psi.

Each point's RSS ||y - X beta||^2 comes from its exact gradient, with no
residual vector: RSS = T (y'y/T - beta'(c + g)).  Where that falls below
RSS_EXACT_BELOW times y'y, cancellation would dominate it, so
``lasso_path`` recomputes it from the residual.

The one exact solve is the LASSO homotopy (Osborne, Presnell and Turlach
2000, IMA J. Numer. Anal. 20(3); Efron et al. 2004, Ann. Statist. 32(2)).
It follows on from a point that converged with every free coordinate
nonzero, and it restarts from the point before a grid point still above
``tol`` after EXACT_EVERY sweeps (for the first point, from the zero fit at
lambda_max, where the largest |c_j|/w_j enters).  Between kinks the
solution is affine in lambda: beta_A(lam) = u - lam v on the support A
with signs s, where Psi_AA [u v] = [c_A, w_A s].  The next kink is the
largest lam at which an idle coordinate reaches |g_j| = lam w_j and enters,
or an active one crosses zero and leaves.  The lower Cholesky factor of
Psi_AA is carried across kinks: an entry borders it with one row and a
drop deletes one row by Givens rotations, each in O(|A|^2), and each kink
solves for [u v] with the factor.  One KKT check covers every point
computed this way, and the prefix within ``tol`` is taken, with 0
iterations after a restarted point's EXACT_EVERY.  Coordinate descent goes
on from the last point taken, at the first point above ``tol``, at a
support larger than T, or where Psi_AA is not positive definite; a
restarted point of which no row is taken sweeps on.  Every other point is
its coordinate-descent iterate.
Every point's KKT residual is within ``tol``, or it reports converged=False.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr_delete
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

# sweeps before a slow point restarts the homotopy
EXACT_EVERY = 5
# relative margin below the current penalty that the homotopy's next kink must clear
KINK_MARGIN = 1e-12
# the lambda grid of every BIC-tuned fit: N_LAMBDA log-spaced points from
# lambda_max down to LAMBDA_RATIO * lambda_max
N_LAMBDA = 100
LAMBDA_RATIO = 1e-4
# below this share of y'y a path point's RSS is recomputed from its residual
RSS_EXACT_BELOW = 1e-3

__all__ = [
    "LassoPath",
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
class LassoPath:
    """The fits of one lambda sequence, one row per penalty, in the order given."""

    lambdas: np.ndarray  # n penalties
    beta: np.ndarray  # n x m coefficients
    iterations: np.ndarray  # n sweep counts, 0 at continuation points
    max_kkt_violation: np.ndarray  # n KKT residuals
    converged: np.ndarray  # n flags: KKT residual within tol
    rss: np.ndarray  # n residual sums of squares ||y - X beta||^2


def _moments(X, y, psi) -> tuple:
    """(X, y, c = X'y/T, y'y) of a design and a response, after checking that
    ``psi`` has the shape and the diagonal of X'X/T."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    T, m = X.shape
    if T < 1:
        raise ValueError("need at least one observation")
    col_ss = np.einsum("ij,ij->j", X, X) / T
    if np.shape(psi) != (m, m) or not np.allclose(np.diagonal(psi), col_ss, rtol=1e-10, atol=0.0):
        raise ValueError("psi is not the Gram matrix X'X/T of this design")
    return X, y, (X.T @ y) / T, float(y @ y)


def _exact_small_rss(X, y, B, rss, yy: float) -> np.ndarray:
    """``rss`` of the fits in the rows of B, each entry below RSS_EXACT_BELOW * y'y
    replaced in place by ||y - X beta||^2 from its residual."""
    for l in np.flatnonzero(rss < RSS_EXACT_BELOW * yy):
        r = y - X @ B[l]
        rss[l] = r @ r
    return rss


def _kkt_residual(g: np.ndarray, beta: np.ndarray, lam_w: np.ndarray):
    """Largest stationarity violation given the gradient g = X'(y - X beta)/T.

    Active coordinates contribute |g_j - lam_w_j sign(beta_j)|, idle ones
    max(0, |g_j| - lam_w_j), which is 0 where lam_w_j is infinite.  On n x m
    arrays, one fit per row, it returns the n residuals.
    """
    if not g.shape[-1]:
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


def _homotopy(psi, c, w, free, beta, g, lam, grid, max_support) -> np.ndarray:
    """Rows beta(grid[i]) for the leading penalties of ``grid`` (all below ``lam``)
    that the exact homotopy reaches from ``beta``, the fit at ``lam`` with gradient
    ``g``, over the ``free`` coordinates with weights ``w``.

    Between kinks beta_A(lam) = u - lam v on the support A with signs s, where
    Psi_AA [u v] = [c_A, w_A s].  The next kink is the largest lam below the
    current one, by a relative KINK_MARGIN, at which an idle g_j = c_j - Psi_jA
    beta_A reaches +-lam w_j (j enters with that sign) or an active beta_j
    changes sign before the step ends (j leaves).  ``beta`` may leave idle
    coordinates violating their condition by up to the KKT tolerance; the
    largest violator enters at ``lam``.  From beta = 0 the path starts at
    lambda_max, the largest |g_j|/w_j, whatever ``lam`` is, and j enters.

    A lower Cholesky factor L of Psi_AA, with A in order of entry, and the
    columns Psi[:, A] are kept across kinks: an entering j borders L with the
    row (q', d), where L q = Psi_Aj and d^2 = Psi_jj - q'q, and a leaving one
    deletes its row of L: Givens rotations take L' without that column to
    Q R, and R' is the new factor.  The path stops at a support larger than
    ``max_support``, a Psi_AA that is not positive definite (d^2 <= 0, or a
    zero or non-finite diagonal entry after a drop), or a kink that would
    not move lam.  The rows are not checked here.
    """
    s = np.sign(beta)
    if s.any():
        excess = np.where(free & (s == 0.0), np.abs(g) - lam * w, 0.0)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.where(free & (g != 0.0), np.abs(g) / w, 0.0)
        lam = excess.max(initial=0.0)
    j = int(np.argmax(excess))
    if excess[j] > 0.0:
        s[j] = np.sign(g[j])
    B = np.zeros((len(grid), len(c)))
    n = 0
    active = s.nonzero()[0]
    k = len(active)
    if k > max_support:
        return B[:n]
    # the support A in order of entry, the columns Psi[:, A] and the right-hand
    # sides [c_A, w_A s_A], each in its leading k slots
    cap = min(len(c), max_support)
    order, cols, rhs = np.empty(cap, dtype=np.intp), np.empty((len(c), cap), order="F"), np.empty((cap, 2))
    order[:k], cols[:, :k], rhs[:k] = active, psi[:, active], np.array([c[active], w[active] * s[active]]).T
    L, info = dpotrf(psi[active[:, None], active], lower=1)
    # the weights, -inf on the coordinates that cannot enter, and the grid as floats
    entering, penalties = np.where(~free | (s != 0.0), -np.inf, w), grid.tolist()
    last = penalties[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        while not info and k:
            active = order[:k]
            sign = s[active]
            uv, _ = dpotrs(L, rhs[:k], lower=1)
            u, v = uv[:, 0], uv[:, 1]
            # on the idle set, g(lam) = a + lam b
            ab = cols[:, :k] @ uv
            a, b = c - ab[:, 0], ab[:, 1]
            below = lam * (1.0 - KINK_MARGIN)
            # an idle g_j reaches sign(a_j) lam w_j as lam falls at
            # t_j = |a_j| / (w_j - sign(a_j) b_j), and enters there if t_j is in
            # [0, below).  A coordinate that cannot enter has w_j = -inf, so
            # t_j <= 0, as for any negative denominator; t_j >= below, inf and
            # NaN are zeroed.  With no positive t_j the kink is at most 0, below
            # every grid point, so the segment runs to the end of the grid.
            sa = np.sign(a)
            t = np.abs(a) / (entering - sa * b)
            t[~(t < below)] = 0.0
            j = int(t.argmax())
            kink, new_sign = t.item(j), sa.item(j)
            # an active coordinate leaves where u_j - lam v_j crosses zero, if its
            # sign changes before the step ends
            crossed = np.sign(u - max(kink, last) * v) != sign
            if np.count_nonzero(crossed):
                cross = np.divide(u, v, out=np.zeros_like(u), where=crossed & (v != 0.0))
                i = int(cross.argmax())
                if cross[i] > kink:
                    kink, j, new_sign = cross[i], active[i], 0.0
            # the grid descends, so the points of this segment are the next ones >= kink
            end = n
            while end < len(penalties) and penalties[end] >= kink:
                end += 1
            if end > n:
                B[n:end, active] = u - grid[n:end, None] * v
                n = end
            if n == len(grid) or kink >= below:
                break
            s[j], entering[j], lam = new_sign, w[j] if new_sign == 0.0 else -np.inf, kink
            if new_sign == 0.0:
                k -= 1
                for kept in (order, cols.T, rhs):
                    kept[i:k] = kept[i + 1 : k + 1]
                # Psi_AA = L L' loses row i of L: L' without column i is Q R by Givens
                # rotations, so the new Psi_AA is R'R with R upper triangular
                L = qr_delete(np.eye(k + 1), L.T, i, which="col", check_finite=False)[1][:k].T
                diag = L.diagonal()
                info = not (np.isfinite(diag).all() and diag.all())
                continue
            if k == max_support:
                break
            q, info = dtrtrs(L, cols[j, :k], lower=1)
            d2 = psi[j, j] - q @ q
            if not d2 > 0.0:
                break
            bordered = np.zeros((k + 1, k + 1), order="F")
            bordered[:k, :k] = L
            bordered[k, :k] = q
            bordered[k, k] = np.sqrt(d2)
            order[k], cols[:, k], rhs[k] = j, psi[:, j], (c[j], w[j] * new_sign)
            L, k = bordered, k + 1
    return B[:n]


def _descend(psi, c, rows, diag, free, lam_w, beta, g, tol, max_iter) -> tuple:
    """Coordinate descent at one penalty from ``beta`` and its exact gradient
    ``g = c - Psi beta`` over the ``free`` coordinates (see ``_fit_grid``), for
    at most ``max_iter`` sweeps; returns (beta, g, sweeps, KKT residual).
    After every sweep g is recomputed exactly.
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
    return beta, g, sweeps, viol


def _fit_grid(psi, c, yy: float, T: int, weights, grid, tol, max_iter) -> LassoPath:
    """The weighted L1 fits at each penalty of ``grid``, in order, from Psi = X'X/T,
    c = X'y/T, y'y and the number of observations T.

    The one setup of every L1 fit: the weights are checked, zero columns and
    infinitely weighted coordinates pinned to zero, and the sweep state and
    the thresholds of every penalty built once.  The first fit starts from
    zero and each later one from the fit before it, with its exact gradient;
    a fit still above ``tol`` after EXACT_EVERY sweeps restarts ``_homotopy``,
    and one that converged with full support hands over to it (see the
    module docstring).  A swept fit converged if its KKT residual is at most
    ``tol`` within ``max_iter`` full sweeps.  Each fit's row of the result
    is filled as it is taken, its RSS from its exact gradient.
    """
    m = len(c)
    if weights is not None and len(weights) != m:
        raise ValueError("weight length does not match design")
    pinned = psi.diagonal() == 0.0
    if weights is not None:
        pinned |= np.isinf(weights)
    n_free = m - int(pinned.sum())
    # Psi is symmetric, so row j (contiguous) is the column a move of beta_j scales
    state = (list(psi), psi.diagonal().tolist(), np.flatnonzero(~pinned).tolist())
    # the homotopy's weights, finite everywhere; pinned coordinates never enter
    w = np.ones(m) if weights is None else np.where(pinned, 1.0, weights)
    beta, g = np.zeros(m), c.copy()
    grid = np.asarray(grid, dtype=np.float64)
    n = len(grid)
    lam_ws = _thresholds(grid, weights, m)
    # one row per point: coefficients, exact gradient, sweeps, KKT residual
    B, G, sweeps, viols = np.zeros((n, m)), np.empty((n, m)), np.zeros(n, dtype=np.intp), np.empty(n)

    def follow(l, beta, g, lam) -> int:
        """Fills the points from l on with the homotopy's rows from ``beta`` at ``lam`` within tol; how many."""
        H = _homotopy(psi, c, w, ~pinned, beta, g, lam, grid[l:], T)
        GH = c - H @ psi
        vh = _kkt_residual(GH, H, lam_ws[l : l + len(H)])
        k = next((i for i, v in enumerate(vh) if v > tol), len(H))
        B[l : l + k], G[l : l + k], viols[l : l + k] = H[:k], GH[:k], vh[:k]
        return k

    l = 0
    while l < n:
        beta, g, sweeps[l], viols[l] = _descend(psi, c, *state, lam_ws[l], beta, g, tol, min(max_iter, EXACT_EVERY))
        k = 0
        if viols[l] > tol and sweeps[l] == EXACT_EVERY:
            # a slow point: the homotopy from the point before it, or from zero
            k = follow(l, B[l - 1], G[l - 1], grid[l - 1]) if l else follow(0, np.zeros(m), c, np.inf)
            if not k and max_iter > EXACT_EVERY:
                beta, g, more, viols[l] = _descend(psi, c, *state, lam_ws[l], beta, g, tol, max_iter - EXACT_EVERY)
                sweeps[l] += more
        if not k:
            B[l], G[l] = beta, g
            l += 1
            # a converged point with every free coordinate nonzero is exact
            if l < n and viols[l - 1] <= tol and 0 < n_free == np.count_nonzero(beta):
                k = follow(l, beta, g, grid[l - 1])
        l += k
        if k:
            # the kernel goes on from the homotopy's last row; a copy, as it updates g in place
            beta, g = B[l - 1].copy(), G[l - 1].copy()
    # RSS/T = y'y/T - 2 beta'c + beta'Psi beta = y'y/T - beta'(c + g)
    rss = yy - T * np.einsum("ij,ij->i", B, G + c)
    return LassoPath(lambdas=grid, beta=B, iterations=sweeps, max_kkt_violation=viols, converged=viols <= tol, rss=rss)


def lambda_max(X, y, weights: np.ndarray | None = None) -> float:
    """Smallest penalty level with an all-zero solution: max_j |(1/T)X_j'y| / w_j
    over the finite weights, 0 when there are none."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _lambda_max((X.T @ y) / X.shape[0], weights)


def _lambda_max(c: np.ndarray, weights) -> float:
    """lambda_max from c = X'y/T; 0 when no coordinate carries a finite weight."""
    g = np.abs(c)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != g.shape:
            raise ValueError("weight length does not match design")
        finite = np.isfinite(w)
        if np.any(w[finite] <= 0):
            raise ValueError("weights must be positive where finite")
        g = g[finite] / w[finite]
    return float(g.max(initial=0.0))


def adaptive_weights(stage1: np.ndarray) -> np.ndarray:
    """1/|first-stage coefficient|; coordinates the first stage zeroed are excluded."""
    with np.errstate(divide="ignore"):
        return np.where(stage1 != 0.0, 1.0 / np.abs(stage1), np.inf)


def lasso_path(X, y, psi, weights: np.ndarray | None = None, lam=None, tol=1e-7, max_iter=1000) -> LassoPath:
    """Weighted L1 fits of min (1/T)||y - X b||^2 + 2*lam*sum_j w_j |b_j|, one row
    per penalty, by decreasing lambda.

    Without ``lam`` the penalties are N_LAMBDA log-spaced points from lambda_max
    down to LAMBDA_RATIO * lambda_max (both read at call time); a fixed ``lam``
    is the one-point path [lam].  The grid runs through the one solver setup
    (see ``_fit_grid``): the first point starts from zero and each later one
    from the previous point's beta and its exact gradient.  A weight of inf
    excludes its coordinate, so with every weight infinite lambda_max is 0 and
    the path is all zeros.  ``psi`` is the design's Gram matrix X'X/T.  Each
    point's RSS comes from its gradient, or from its residual where it is
    below RSS_EXACT_BELOW times y'y.
    """
    X, y, c, yy = _moments(np.asfortranarray(X, dtype=np.float64), y, psi)
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    if w is not None and not (w >= 0.0).all():
        raise ValueError("weights must be nonnegative")
    if lam is not None:
        if not 0.0 <= lam < np.inf:
            raise ValueError("lambda must be finite and nonnegative")
        grid = [lam]
    else:
        # the 1e-10 margin keeps the top-of-path solution exactly zero even when
        # the solver's gradient differs from lambda_max's by rounding; a zero
        # lambda_max (a zero response, or no finite weight) gives a grid of zeros
        grid = _lambda_max(c, w) * (1.0 + 1e-10) * np.logspace(0.0, np.log10(LAMBDA_RATIO), N_LAMBDA)
    path = _fit_grid(psi, c, yy, X.shape[0], w, grid, tol, max_iter)
    _exact_small_rss(X, y, path.beta, path.rss, yy)
    return path


def ridge_path(X, y, grid, eig: tuple) -> tuple:
    """Ridge solutions (X'X + lam I)^{-1} X'y and their exact degrees of freedom
    for every lam in ``grid``, in closed form.

    With X'X = V diag(d) V', beta(lam) = V diag(1/(d + lam)) V'X'y and
    df(lam) = trace(X (X'X + lam I)^{-1} X') = sum_j d_j / (d_j + lam)
    (Hastie, Tibshirani and Friedman, ESL 2nd ed., section 3.4.1), so one
    eigendecomposition ``eig = (d, V)`` of X'X, formed by the caller, serves
    the whole grid and every response that shares X.  With z = V'X'y the RSS
    is in closed form too:
    ||y - X beta(lam)||^2 = y'y - sum_j z_j^2 (d_j + 2 lam) / (d_j + lam)^2,
    recomputed from the residual where it is below RSS_EXACT_BELOW times y'y.
    The penalty is unscaled, matching the degrees-of-freedom formula.
    Returns (B, df, rss): column l of the m x n matrix B is the solution at
    grid[l].
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(grid <= 0):
        raise ValueError("ridge penalty must be positive")
    d, V = eig
    # X'X is positive semidefinite; rounding can leave tiny negative eigenvalues
    d = np.clip(d, 0.0, None)
    shrink = 1.0 / (d[:, None] + grid[None, :])
    z = V.T @ (X.T @ y)
    B = V @ (shrink * z[:, None])
    yy = float(y @ y)
    rss = yy - (z * z) @ ((d[:, None] + 2.0 * grid[None, :]) * shrink * shrink)
    return B, d @ shrink, _exact_small_rss(X, y, B.T, rss, yy)
