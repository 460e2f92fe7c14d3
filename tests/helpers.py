"""Independent oracles and references shared by the unit and acceptance tests.

The oracles deliberately avoid the library's own optimization routines: the
restricted-eigenvalue oracle decomposes the cone program into an exhaustive
angle grid over the on-support block and an exact convex inner minimization
(FISTA with l1-ball projection), which is a different route than the
estimator's joint projected-gradient search.  The simulation reference runs
the VAR recursion with one product per lag, where ``var.simulate`` takes one
product with the stacked lag matrices.

``least_squares`` is the QR solve on the design's columns that the OLS
refits are compared against; the package solves the normal equations on the
Gram matrix instead.  ``lyapunov_doubling`` solves the discrete Lyapunov
equation by the doubling iteration, where ``var.population_gamma`` takes one
direct solve.

The L1 references serve the solver and theory tests.  ``objective`` and
``kkt_check`` evaluate the weighted L1 objective and its stationarity
residual from the residual y - X beta, not from the Gram matrix the solver
sweeps on; ``realized_sign_recovery`` runs the stage-two fit whose signs the
theory's first-order conditions predict.  ``descend`` runs the solver's
coordinate-descent kernel at one penalty from a given start, the fit a path
point gets from the point before it, restart included, so tests can rebuild
a path's swept points one by one.

``rmse``, ``rmsfe`` and ``selection_metrics`` reduce lists of system fits,
forecasts and realized values to a Monte Carlo report's metrics, the way the
harness did before each replication reduced its own fits to numbers; the mc
tests hold ``mc.run_experiment`` to them.
"""

import functools
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from hdvar import solver, var


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


def problem_from(X, y):
    """The one-equation ``var.RegressionProblem`` of a design and a response:
    equation 0, whose statistics the solver reads."""
    return var.RegressionProblem(X, np.atleast_2d(y))


def least_squares(X, y):
    """argmin_b ||y - X b||^2 through a QR factorization of X; ValueError when X
    has fewer rows than columns or a squared diagonal entry of R is at or below
    1e-10 times the largest."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < X.shape[1]:
        raise ValueError("fewer rows than columns")
    Q, R = np.linalg.qr(X)
    d = np.abs(np.diag(R))
    if d.size and d.min() ** 2 <= 1e-10 * d.max() ** 2:
        raise ValueError("rank-deficient design")
    return scipy.linalg.solve_triangular(R, Q.T @ y, lower=False)


def lyapunov_doubling(F, Omega):
    """G = F G F' + Omega by the doubling iteration G <- G + A G A', A <- A^2
    from G = Omega and A = F, stopped once an increment's largest entry is
    below 1e-13; the result is symmetrized.  Requires a spectral radius of F
    below one; RuntimeError after 200 doublings."""
    G = np.array(Omega, dtype=np.float64)
    A = np.array(F, dtype=np.float64)
    for _ in range(200):
        inc = A @ G @ A.T
        G = G + inc
        if np.abs(inc).max() < 1e-13:
            return (G + G.T) / 2.0
        A = A @ A
    raise RuntimeError("Lyapunov doubling did not converge")


def phi_min_on(gamma, J):
    """The smallest eigenvalue of Gamma_JJ, which ``theory.diagnose`` passes to
    ``theory.sign_recovery_conditions`` for an equation with support J."""
    return float(np.linalg.eigvalsh(gamma[np.ix_(J, J)]).min())


def eig_of(X):
    """The eigendecomposition (d, V) of X'X that ridge paths take."""
    return np.linalg.eigh(X.T @ X)


def random_spd(rng, m, extra=2):
    G = rng.standard_normal((m, m + extra))
    return G @ G.T / (m + extra)


def simulate_per_lag(model, T, seed=0):
    """(the p initial plus T observations, the T innovations of the last T)
    that ``var.simulate(model, T, seed=seed)`` draws, by y_t = eps_t + Phi_1
    y_{t-1} + ... + Phi_p y_{t-p} from a zero state with one product per lag,
    after the default 200 + 10 p burn-in steps."""
    k, p = model.k, model.p
    n_steps = 200 + 10 * p + p + T
    eps = var.make_rng(seed).standard_normal((n_steps, k)) @ np.linalg.cholesky(model.sigma).T
    states = np.zeros((p + n_steps, k))
    for t in range(n_steps):
        acc = eps[t].copy()
        for l, P in enumerate(model.phis):
            acc += P @ states[p + t - 1 - l]
        states[p + t] = acc
    return states[-(p + T) :], eps[-T:]


def penalty_thresholds(lam, weights, m):
    """lam * w_j for each of the m coordinates, inf where w_j is inf (also at lam = 0)."""
    return solver._thresholds([lam], np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64))[0]


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


def descend(problem, i, lam, start=None, start_lam=None, weights=None):
    """(beta, sweeps, KKT residual) of the fit a path point of equation i of
    ``problem`` gets at the penalty ``lam`` from ``start``, the fit at
    ``start_lam`` (the zero fit if None), with the statistics ``lasso_path``
    reads and the same coordinates pinned at zero: at most EXACT_EVERY sweeps
    of the coordinate-descent kernel ``solver._descend`` from ``start`` and its
    exact gradient g = c - Psi start; then, if still above ``solver.KKT_TOL``,
    the row at ``lam`` of ``solver._homotopy`` from ``start`` if it is within
    that, or else the kernel's remaining sweeps up to ``solver.MAX_SWEEPS``."""
    psi, c, T, m = problem.psi, problem.xy[i] / problem.T, problem.T, problem.m
    tol, max_iter = solver.KKT_TOL, solver.MAX_SWEEPS
    weights = np.ones(m) if weights is None else weights
    pinned = (psi.diagonal() == 0.0) | np.isinf(weights)
    beta = np.zeros(m) if start is None else np.where(pinned, 0.0, start)
    g = c - psi @ beta
    lam_w = penalty_thresholds(lam, weights, m)
    state = (list(psi), psi.diagonal().tolist(), np.flatnonzero(~pinned).tolist())
    kernel = functools.partial(solver._descend, psi, c, *state, lam_w)
    # the kernel updates its gradient in place; the homotopy starts from the start's
    fit, fit_g, sweeps, viol = kernel(beta, g.copy(), min(max_iter, solver.EXACT_EVERY))
    if viol > tol and sweeps == solver.EXACT_EVERY:
        w = np.where(pinned, 1.0, weights)
        from_lam = np.inf if start_lam is None else start_lam
        rows = solver._homotopy(psi, c, w, ~pinned, beta, g, from_lam, np.array([lam]), T)
        row_viol = solver._kkt_residual(c - rows @ psi, rows, lam_w[None])
        if len(rows) and row_viol[0] <= tol:
            return rows[0], sweeps, row_viol[0]
        if max_iter > solver.EXACT_EVERY:
            fit, _, more, viol = kernel(fit, fit_g, max_iter - solver.EXACT_EVERY)
            sweeps += more
    return fit, sweeps, viol


def realized_sign_recovery(problem, i, stage1_beta, lambda_t, truth):
    """Whether the stage-two LASSO of equation i at ``lambda_t``, weighted by
    1/|stage1_beta|, has the sign pattern of the true coefficients.  The fit is
    held to a KKT tolerance of 1e-9 within 5,000 sweeps, tighter than the
    solver's own, so that its signs are those of the exact minimiser."""
    w = solver.adaptive_weights(np.asarray(stage1_beta, dtype=np.float64))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "KKT_TOL", 1e-9)
        patch.setattr(solver, "MAX_SWEEPS", 5000)
        path = solver.lasso_path(problem, i, weights=w, lam=lambda_t)
    return bool(np.all(np.sign(path.beta[0]) == np.sign(truth.beta[i])))


def rmse(fits, truth) -> float:
    """sqrt(mean over replications of ||beta_hat - beta*||_F^2) over the system."""
    errs = [float(np.sum((f.coefficients - truth.beta) ** 2)) for f in fits]
    return float(math.sqrt(np.mean(errs)))


def rmsfe(forecasts, realized, k: int) -> float:
    """sqrt((1/k) * mean over replications of ||yhat_{T+1} - y_{T+1}||^2)."""
    if len(forecasts) != len(realized) or not len(forecasts):
        raise ValueError("forecast/realized length mismatch")
    errs = [float(np.sum((np.asarray(f) - np.asarray(y)) ** 2)) for f, y in zip(forecasts, realized)]
    return float(math.sqrt(np.mean(errs) / k))


def selection_metrics(fits, truth):
    """(uncovered, included, share of relevant, mean selected count) over the system."""
    total_s = int(truth.s.sum())
    uncovered = []
    included = []
    share = []
    n_sel = []
    for f in fits:
        actives = [set(eq.active_set.tolist()) for eq in f.fits]
        joints = [set(J.tolist()) for J in truth.supports]
        uncovered.append(all(a == j for a, j in zip(actives, joints)))
        included.append(all(j <= a for a, j in zip(actives, joints)))
        hit = sum(len(a & j) for a, j in zip(actives, joints))
        share.append(hit / total_s if total_s else 1.0)
        n_sel.append(sum(len(a) for a in actives))
    return (
        float(np.mean(uncovered)),
        float(np.mean(included)),
        float(np.mean(share)),
        float(np.mean(n_sel)),
    )
