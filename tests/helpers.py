"""Independent oracles and references shared by the unit and acceptance tests.

The oracles deliberately avoid the library's own optimization routines: the
restricted-eigenvalue oracle decomposes the cone program into an exhaustive
angle grid over the on-support block and an exact convex inner minimization
(FISTA with l1-ball projection), which is a different route than the
estimator's joint projected-gradient search.  The simulation reference runs
the VAR recursion with one product per lag, where ``var.simulate`` takes one
product with the stacked lag matrices.

The L1 references serve the solver and theory tests.  ``objective`` and
``kkt_check`` evaluate the weighted L1 objective and its stationarity
residual from the residual y - X beta, not from the Gram matrix the solver
sweeps on; ``realized_sign_recovery`` runs the stage-two fit whose signs the
theory's first-order conditions predict.  ``descend`` runs the solver's
coordinate-descent kernel at one penalty from a given start, the fit a path
point gets from the point before it, restart included, so tests can rebuild
a path's swept points one by one.
"""

import functools
import itertools

import numpy as np

from hdvar import solver


def project_l1_ball_rows(U, radius=1.0):
    """Euclidean projection of each row of U onto the l1 ball (Duchi et al. 2008)."""
    if U.shape[1] == 0:
        return U
    V = np.abs(U)
    inside = V.sum(axis=1) <= radius
    W = np.sort(V, axis=1)[:, ::-1]
    cssv = np.cumsum(W, axis=1) - radius
    ks = np.arange(1, U.shape[1] + 1)
    rho = (W - cssv / ks > 0).cumsum(axis=1).argmax(axis=1)
    theta = np.maximum(cssv[np.arange(len(U)), rho] / (rho + 1), 0.0)
    out = np.sign(U) * np.maximum(V - theta[:, None], 0.0)
    out[inside] = U[inside]
    return out


def _inner_min(psi, R, Rc, dirs, iters=2000, rtol=1e-13):
    """min over the cone slice of d'Psi d for every direction d (rows of dirs)."""
    quad_r = np.einsum("ni,ij,nj->n", dirs, psi[np.ix_(R, R)], dirs)
    if len(Rc) == 0:
        return quad_r
    A = psi[np.ix_(Rc, Rc)]
    budgets = 3.0 * np.abs(dirs).sum(axis=1)
    Bd = dirs @ psi[np.ix_(R, Rc)]  # n x |Rc|
    L = max(2.0 * np.linalg.eigvalsh(A).max(), 1e-12)
    U = np.zeros((len(dirs), len(Rc)))
    Z = U.copy()
    t_prev = 1.0
    prev_val = None
    for it in range(iters):
        G = 2.0 * (Z @ A) + 2.0 * Bd
        U_new = Z - G / L
        U_new = project_l1_ball_rows(U_new / budgets[:, None], 1.0) * budgets[:, None]
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2)) / 2.0
        Z = U_new + (t_prev - 1.0) / t_new * (U_new - U)
        U, t_prev = U_new, t_new
        if it % 50 == 49:
            val = (quad_r + 2.0 * np.einsum("ni,ni->n", U, Bd) + np.einsum("ni,ij,nj->n", U, A, U)).min()
            if prev_val is not None and abs(prev_val - val) <= rtol * max(abs(val), 1e-12):
                break
            prev_val = val
    return quad_r + 2.0 * np.einsum("ni,ni->n", U, Bd) + np.einsum("ni,ij,nj->n", U, A, U)


def restricted_eigenvalue_bruteforce(psi, r, angle_step=1e-3, refine=True):
    """Fine-grid minimizer of the restricted-eigenvalue program for |R| <= 2.

    For each subset the on-support direction runs over a grid of the unit
    sphere (a two-point set for |R| = 1, an angle grid for |R| = 2); the
    off-support block is an exact convex problem solved by FISTA.
    """
    psi = np.asarray(psi, dtype=np.float64)
    m = psi.shape[0]
    best = np.inf
    for size in range(1, r + 1):
        if size > 2:
            raise ValueError("brute-force oracle only supports r <= 2")
        for subset in itertools.combinations(range(m), size):
            R = np.asarray(subset, dtype=np.intp)
            mask = np.zeros(m, dtype=bool)
            mask[R] = True
            Rc = np.flatnonzero(~mask)
            if size == 1:
                dirs = np.array([[1.0]])  # -d gives the same ratio
                vals = _inner_min(psi, R, Rc, dirs)
                best = min(best, float(vals.min()))
                continue
            thetas = np.arange(0.0, np.pi, angle_step * 2.0)
            dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
            vals = _inner_min(psi, R, Rc, dirs)
            best_idx = int(np.argmin(vals))
            best = min(best, float(vals[best_idx]))
            if refine:
                # parabolic refinement around the best angle
                center = thetas[best_idx]
                span = angle_step * 2.0
                for _ in range(12):
                    local = center + np.linspace(-span, span, 9)
                    dirs = np.column_stack([np.cos(local), np.sin(local)])
                    vals = _inner_min(psi, R, Rc, dirs)
                    j = int(np.argmin(vals))
                    center = local[j]
                    best = min(best, float(vals[j]))
                    span /= 4.0
    return best


def gram(X):
    """The Gram matrix X'X/T that the solver takes alongside a design."""
    return X.T @ X / len(X)


def eig_of(X):
    """The eigendecomposition (d, V) of X'X that ridge paths take."""
    return np.linalg.eigh(X.T @ X)


def random_spd(rng, m, extra=2):
    G = rng.standard_normal((m, m + extra))
    return G @ G.T / (m + extra)


def simulate_per_lag(model, T, seed=0):
    """The p initial plus T observations ``var.simulate(model, T, seed=seed)``
    draws, by y_t = eps_t + Phi_1 y_{t-1} + ... + Phi_p y_{t-p} from a zero
    state with one product per lag, after the default 200 + 10 p burn-in steps."""
    from hdvar import var

    k, p = model.k, model.p
    n_steps = 200 + 10 * p + p + T
    eps = var.make_rng(seed).standard_normal((n_steps, k)) @ np.linalg.cholesky(model.sigma).T
    states = np.zeros((p + n_steps, k))
    for t in range(n_steps):
        acc = eps[t].copy()
        for l, P in enumerate(model.phis):
            acc += P @ states[p + t - 1 - l]
        states[p + t] = acc
    return states[-(p + T) :]


def penalty_thresholds(lam, weights, m):
    """lam * w_j for each of the m coordinates, inf where w_j is inf (also at lam = 0)."""
    return solver._thresholds([lam], None if weights is None else np.asarray(weights, dtype=np.float64), m)[0]


def objective(X, y, beta, lam, weights=None):
    """Value of (1/T)||y - X beta||^2 + 2*lam*sum w_j |beta_j|."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    r = y - X @ beta
    lam_w = penalty_thresholds(lam, weights, X.shape[1])
    # lam_w_j |beta_j| on the nonzero coordinates only, so an infinite lam_w_j never meets a 0
    pterm = np.multiply(lam_w, np.abs(beta), out=np.zeros_like(beta), where=beta != 0.0)
    if np.any(np.isnan(pterm)):
        return np.inf
    return float(r @ r / X.shape[0] + 2.0 * pterm.sum())


def kkt_check(X, y, beta, lam, weights=None):
    """Largest stationarity violation of the weighted L1 objective at ``beta``,
    from the gradient X'(y - X beta)/T; inf where an infinitely weighted beta_j is nonzero."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    g = X.T @ (y - X @ beta) / X.shape[0]
    return solver._kkt_residual(g, beta, penalty_thresholds(lam, weights, X.shape[1]))


def descend(X, y, psi, lam, start=None, start_lam=None, weights=None, tol=1e-7, max_iter=1000):
    """(beta, sweeps, KKT residual) of the fit a path point gets at the penalty
    ``lam`` from ``start``, the fit at ``start_lam`` (the zero fit if None), with
    the moments ``lasso_path`` forms and the same coordinates pinned at zero: at
    most EXACT_EVERY sweeps of the coordinate-descent kernel ``solver._descend``
    from ``start`` and its exact gradient g = c - Psi start; then, if still above
    ``tol``, the row at ``lam`` of ``solver._homotopy`` from ``start`` if it is
    within ``tol``, or else the kernel's remaining sweeps."""
    X, y, c, _ = solver._moments(np.asfortranarray(X, dtype=np.float64), y, psi)
    T, m = X.shape
    pinned = psi.diagonal() == 0.0
    if weights is not None:
        pinned |= np.isinf(weights)
    beta = np.zeros(m) if start is None else np.where(pinned, 0.0, start)
    g = c - psi @ beta
    lam_w = penalty_thresholds(lam, weights, m)
    state = (list(psi), psi.diagonal().tolist(), np.flatnonzero(~pinned).tolist())
    kernel = functools.partial(solver._descend, psi, c, *state, lam_w)
    # the kernel updates its gradient in place; the homotopy starts from the start's
    fit, fit_g, sweeps, viol = kernel(beta, g.copy(), tol, min(max_iter, solver.EXACT_EVERY))
    if viol > tol and sweeps == solver.EXACT_EVERY:
        w = np.ones(m) if weights is None else np.where(pinned, 1.0, weights)
        from_lam = np.inf if start_lam is None else start_lam
        rows = solver._homotopy(psi, c, w, ~pinned, beta, g, from_lam, np.array([lam]), T)
        row_viol = solver._kkt_residual(c - rows @ psi, rows, lam_w[None])
        if len(rows) and row_viol[0] <= tol:
            return rows[0], sweeps, row_viol[0]
        if max_iter > solver.EXACT_EVERY:
            fit, _, more, viol = kernel(fit, fit_g, tol, max_iter - solver.EXACT_EVERY)
            sweeps += more
    return fit, sweeps, viol


def realized_sign_recovery(problem, i, stage1_beta, lambda_t, truth, tol=1e-9):
    """Whether the stage-two LASSO of equation i at ``lambda_t``, weighted by
    1/|stage1_beta|, has the sign pattern of the true coefficients."""
    w = solver.adaptive_weights(np.asarray(stage1_beta, dtype=np.float64))
    path = solver.lasso_path(problem.X, problem.ys[i], problem.psi, weights=w, lam=lambda_t, tol=tol, max_iter=5000)
    return bool(np.all(np.sign(path.beta[0]) == np.sign(truth.beta[i])))
