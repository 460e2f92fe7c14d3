"""Finite-sample quantities: penalty formulas, restricted eigenvalues, empirical
events, oracle-inequality sides, probability lower bounds, and the exact
first-order conditions for sign recovery of the two-stage weighted LASSO.

Every routine is a pure function; the subset sampling in
``restricted_eigenvalue`` takes an explicit seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import var
from .errors import (
    MissingInnovations, NonConvergence, NotPositiveDefinite, NotStationary, SingularSubGram, ZeroKappa,
)
from .linalg import cholesky_solve, operator_norm_2
from .solver import PenaltySpec, adaptive_weights, lasso_cd

__all__ = [
    "TheoryParams",
    "EventFlags",
    "lambda_theorem1",
    "lambda_oracle_ols",
    "k_t",
    "pi_q",
    "zeta",
    "thm1_probability",
    "adalasso_probability",
    "restricted_eigenvalue",
    "event_flags",
    "thm1_rhs_check",
    "thm3_bounds",
    "oracle_ols_bound",
    "system_bound",
    "f_norm_sum",
    "sign_recovery_conditions",
]


@dataclass(frozen=True)
class TheoryParams:
    """Free constants of the bounds.

    ``a_const`` is the unpinned positive constant of the probability bounds
    (theory constant: bounds involving it are parametric, not absolute).
    """

    q: float = 0.5
    a_const: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        if self.a_const <= 0:
            raise ValueError("a_const must be positive")


@dataclass(frozen=True)
class EventFlags:
    """Empirical events and their statistics for one simulated replication."""

    b_t: bool
    c_t: bool
    d_t: bool
    max_cross: float
    max_cov_dev: float
    max_yy: float
    lambda_t: float
    c_t_threshold: float
    k_t: float


def lambda_theorem1(T: int, k: int, p: int, sigma_t: float) -> float:
    """Penalty level sqrt(8 ln(1+T)^5 ln(1+k)^4 ln(1+p)^2 ln(k^2 p) sigma^4 / T)."""
    if min(T, k, p) < 1:
        raise ValueError("T, k, p must be at least one")
    val = 8.0 * math.log(1 + T) ** 5 * math.log(1 + k) ** 4 * math.log(1 + p) ** 2
    val *= math.log(k * k * p) * sigma_t**4 / T
    return math.sqrt(val)


def lambda_oracle_ols(T: int, s_i: int, sigma_t: float) -> float:
    """Oracle-OLS penalty scale sqrt(8 ln(1+T)^5 ln(1+s)^2 ln(s) sigma^4 / T)."""
    if s_i < 1:
        raise ValueError("s_i must be at least one")
    val = 8.0 * math.log(1 + T) ** 5 * math.log(1 + s_i) ** 2 * math.log(s_i) * sigma_t**4 / T
    return math.sqrt(val)


def k_t(T: int, k: int, p: int, sigma_t: float) -> float:
    """Second-moment envelope ln(1+k)^2 ln(1+p)^2 ln(T) sigma^2."""
    return math.log(1 + k) ** 2 * math.log(1 + p) ** 2 * math.log(T) * sigma_t**2


def zeta(q: float, kappa_sq: float, f_norm_sum_value: float) -> float:
    """Concentration exponent (1-q)^2 kappa^4 / (4 * 16^3 * (||Gamma|| sum ||F^i||)^2)."""
    return (1.0 - q) ** 2 * kappa_sq**2 / (4.0 * 16.0**3 * f_norm_sum_value**2)


def pi_q(s: int, k: int, p: int, T: int, zeta_value: float) -> float:
    """Failure-probability bound for the Gram-concentration event (may exceed one)."""
    if min(s, k, p) < 1 or T < 2 or zeta_value <= 0:
        raise ValueError("require s,k,p >= 1, T >= 2, zeta > 0")
    k2p2 = float(k) ** 2 * float(p) ** 2
    first = 4.0 * k2p2 * math.exp(-zeta_value * T / (s**2 * math.log(T) * (math.log(k2p2) + 1.0)))
    second = 2.0 * k2p2 ** (1.0 - math.log(T))
    return first + second


def thm1_probability(T: int, k: int, p: int, a_const: float = 1.0) -> float:
    """Lower bound 1 - 2(k^2 p)^(1-ln(1+T)) - 2(1+T)^(-1/A) on the cross-moment event."""
    return 1.0 - 2.0 * (float(k) ** 2 * p) ** (1.0 - math.log(1 + T)) - 2.0 * (1.0 + T) ** (-1.0 / a_const)


def adalasso_probability(T: int, k: int, p: int, s_i: int, zeta_value: float, a_const: float = 1.0) -> float:
    """Lower bound on the sign-recovery event of the two-stage estimator."""
    return (
        thm1_probability(T, k, p, a_const)
        - 2.0 * T ** (-1.0 / a_const)
        - pi_q(s_i, k, p, T, zeta_value)
    )


# ---------------------------------------------------------------------------
# Restricted eigenvalue estimation

# Subsets of one size are enumerated while there are at most RE_ENUM_CAP of
# them, else RE_N_SUBSETS are sampled; each subset gets RE_N_STARTS random cone
# points and RE_N_ITERS projected-gradient steps per refined start.
RE_ENUM_CAP = 5000
RE_N_SUBSETS = 200
RE_N_STARTS = 24
RE_N_ITERS = 300


def _subset_rng(seed: int, subset: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *subset])))


def _cone_scale(delta: np.ndarray, mask_r: np.ndarray) -> np.ndarray:
    """Scale the off-R block onto the cone boundary when it sticks out."""
    on = np.abs(delta[mask_r]).sum()
    off = np.abs(delta[~mask_r]).sum()
    if off > 3.0 * on:
        out = delta.copy()
        out[~mask_r] *= 0.0 if off == 0.0 else 3.0 * on / off
        return out
    return delta


def _ratio(psi: np.ndarray, delta: np.ndarray, mask_r: np.ndarray) -> float:
    dr = delta[mask_r]
    denom = dr @ dr
    if denom <= 0.0:
        return np.inf
    return float(delta @ psi @ delta / denom)


def _minimize_subset(psi, subset, rng, lipschitz):
    m = psi.shape[0]
    R = np.asarray(subset, dtype=np.intp)
    mask_r = np.zeros(m, dtype=bool)
    mask_r[R] = True
    Rc = np.flatnonzero(~mask_r)
    best = np.inf
    starts = []

    # canonical candidates: eigenvectors of the R-block, zeros elsewhere
    w, V = np.linalg.eigh(psi[np.ix_(R, R)])
    for col in range(V.shape[1]):
        d = np.zeros(m)
        d[R] = V[:, col]
        best = min(best, _ratio(psi, d, mask_r))
        starts.append(d)

    # Schur candidates: unconstrained optimal off-R fill-in, pulled into the cone
    if len(Rc):
        A = psi[np.ix_(Rc, Rc)]
        B = psi[np.ix_(Rc, R)]
        try:
            U = cholesky_solve(A + 1e-12 * np.eye(len(Rc)) * max(A.max(), 1.0), B)
        except NotPositiveDefinite:
            pass  # the off-R block is singular even after regularization: no candidates
        else:
            S = psi[np.ix_(R, R)] - B.T @ U
            ws, Vs = np.linalg.eigh((S + S.T) / 2.0)
            for col in range(Vs.shape[1]):
                d = np.zeros(m)
                d[R] = Vs[:, col]
                d[Rc] = -U @ Vs[:, col]
                for t in (1.0, 0.5, 0.25):
                    cand = d.copy()
                    cand[Rc] *= t
                    cand = _cone_scale(cand, mask_r)
                    best = min(best, _ratio(psi, cand, mask_r))
                    starts.append(cand)

    for _ in range(RE_N_STARTS):
        d = rng.standard_normal(m)
        nr = np.linalg.norm(d[R])
        if nr == 0.0:
            continue
        d /= nr
        d = _cone_scale(d, mask_r)
        best = min(best, _ratio(psi, d, mask_r))
        starts.append(d)

    # projected gradient refinement from the most promising starts
    order = np.argsort([_ratio(psi, d, mask_r) for d in starts])
    for idx in order[: min(len(starts), max(4, RE_N_STARTS // 2))]:
        d = starts[idx].copy()
        nr = np.linalg.norm(d[R])
        if nr == 0.0:
            continue
        d /= nr
        step = 0.9 / max(lipschitz, 1e-12)
        for it in range(RE_N_ITERS):
            f = _ratio(psi, d, mask_r)
            if f < best:
                best = f
            grad = 2.0 * (psi @ d)
            grad[R] -= 2.0 * f * d[R]
            d = d - step / (1.0 + it / 50.0) * grad
            nr = np.linalg.norm(d[R])
            if nr <= 1e-14:
                break
            d /= nr
            d = _cone_scale(d, mask_r)
        f = _ratio(psi, d, mask_r)
        if f < best:
            best = f
    return best


def restricted_eigenvalue(psi, r: int, seed: int = 0) -> float:
    """Upper estimate of kappa^2(r): min of d'Psi d / ||d_R||^2 over index sets
    |R| <= r and the cone ||d_{R^c}||_1 <= 3 ||d_R||_1.

    Subsets are enumerated when C(m, r) is within ``RE_ENUM_CAP`` and sampled
    otherwise; each subset problem is attacked with canonical eigenvector
    candidates, Schur-complement candidates, random cone points, and projected
    gradient refinement.  The estimate is the minimum over all evaluated
    feasible points and is therefore never below the true kappa^2(r).
    """
    psi = np.asarray(psi, dtype=np.float64)
    m = psi.shape[0]
    if psi.shape != (m, m):
        raise ValueError("psi must be square")
    if not 1 <= r <= m:
        raise ValueError("r must lie in [1, m]")
    lipschitz = float(np.linalg.eigvalsh((psi + psi.T) / 2.0).max())
    best = np.inf
    for size in range(1, r + 1):
        if math.comb(m, size) <= RE_ENUM_CAP:
            subsets = itertools.combinations(range(m), size)
        else:
            master = _subset_rng(seed, (size,))
            seen = set()
            while len(seen) < RE_N_SUBSETS:
                seen.add(tuple(sorted(master.choice(m, size=size, replace=False).tolist())))
            # bias toward weak-diagonal subsets, which tend to minimize
            diag_order = np.argsort(np.diag(psi))
            seen.add(tuple(sorted(diag_order[:size].tolist())))
            subsets = sorted(seen)
        for subset in subsets:
            subset = tuple(subset)
            rng = _subset_rng(seed, subset)
            val = _minimize_subset(psi, subset, rng, lipschitz)
            best = min(best, val)
    return float(best)


# ---------------------------------------------------------------------------
# Empirical events and inequality checks


def event_flags(
    data: var.Dataset,
    model: var.VarModel,
    truth,
    params: TheoryParams,
    lambda_t: float | None = None,
    kappa_sbar_sq: float | None = None,
    *,
    problem: var.RegressionProblem | None = None,
    gamma: np.ndarray | None = None,
) -> EventFlags:
    """Evaluate the three empirical events on one simulated replication.

    b_t: all regressor/innovation cross-moments below lambda_T / 2;
    c_t: entrywise Gram deviation within (1-q) kappa^2(s_bar) / (16 s_bar);
    d_t: all second moments of the regressors below K_T.
    ``problem`` (the stacked ``data``) and ``gamma`` (the model's population
    covariance) are computed here when the caller does not hold them.
    """
    if data.innovations is None:
        raise MissingInnovations("event evaluation needs the true innovations")
    if problem is None:
        problem = var.stack(data)
    if gamma is None:
        gamma = var.population_gamma(model)
    T, k, p = data.T, data.k, data.p
    st = var.sigma_t(model)
    if lambda_t is None:
        lambda_t = lambda_theorem1(T, k, p, st)
    cross = problem.X.T @ data.innovations / T
    max_cross = float(np.abs(cross).max())
    max_cov_dev = float(np.abs(problem.psi - gamma).max())
    if kappa_sbar_sq is None:
        kappa_sbar_sq = restricted_eigenvalue(gamma, max(int(truth.s_bar), 1))
    s_bar = max(int(truth.s_bar), 1)
    c_threshold = (1.0 - params.q) * kappa_sbar_sq / (16.0 * s_bar)
    max_yy = float(np.abs(problem.psi).max())
    kt = k_t(T, k, p, st)
    return EventFlags(
        b_t=bool(max_cross < lambda_t / 2.0),
        c_t=bool(max_cov_dev <= c_threshold),
        d_t=bool(max_yy < kt),
        max_cross=max_cross,
        max_cov_dev=max_cov_dev,
        max_yy=max_yy,
        lambda_t=float(lambda_t),
        c_t_threshold=float(c_threshold),
        k_t=float(kt),
    )


def thm1_rhs_check(problem: var.RegressionProblem, i: int, fit_beta, truth, lambda_t: float) -> dict:
    """Both sides of the three basic inequalities for one equation at penalty lambda_T.

    Given the cross-moment event, the inequalities hold deterministically up
    to solver tolerance; slack = rhs - lhs.
    """
    beta_hat = np.asarray(fit_beta, dtype=np.float64)
    beta_star = truth.beta[i]
    J = truth.supports[i]
    mask = np.zeros(problem.m, dtype=bool)
    mask[J] = True
    err = beta_hat - beta_star
    pred = float(np.linalg.norm(problem.X @ err) ** 2 / problem.T)
    l1 = float(np.abs(err).sum())
    l1_j = float(np.abs(err[mask]).sum())
    l1_jc = float(np.abs(err[~mask]).sum())
    star_j_l1 = float(np.abs(beta_star[mask]).sum())
    lhs12 = pred + lambda_t * l1
    rhs1 = 2.0 * lambda_t * (l1 + np.abs(beta_star).sum() - np.abs(beta_hat).sum())
    rhs2 = 4.0 * lambda_t * min(l1_j, star_j_l1)
    rhs3 = 3.0 * l1_j
    return {
        "iq1": {"lhs": lhs12, "rhs": float(rhs1), "slack": float(rhs1 - lhs12)},
        "iq2": {"lhs": lhs12, "rhs": float(rhs2), "slack": float(rhs2 - lhs12)},
        "iq3": {"lhs": l1_jc, "rhs": rhs3, "slack": float(rhs3 - l1_jc)},
    }


def thm3_bounds(s_i: int, lambda_t: float, kappa_sq: float, q: float):
    """(prediction bound, estimation bound) = (16/(q kappa^2)) s (lambda^2, lambda).

    The estimation bound doubles as the beta-min screening threshold.
    """
    if kappa_sq <= 0:
        raise ZeroKappa("restricted eigenvalue must be positive")
    base = 16.0 / (q * kappa_sq) * s_i
    return base * lambda_t**2, base * lambda_t


def oracle_ols_bound(s_i: int, lambda_tilde: float, phi_min_gamma_jj: float, q: float) -> float:
    """Oracle-OLS estimation bound lambda_tilde * s / (2 q phi_min(Gamma_JJ))."""
    if phi_min_gamma_jj <= 0:
        raise ValueError("phi_min must be positive")
    return lambda_tilde * s_i / (2.0 * q * phi_min_gamma_jj)


def system_bound(est_bounds) -> float:
    """System-wide estimation bound: sum of the per-equation bounds."""
    return float(np.sum(est_bounds))


NORM_SERIES_TOL = 1e-12


def f_norm_sum(model: var.VarModel, T: int | None = None) -> float:
    """||Gamma|| * sum_{i=0}^{T} ||F^i|| with exact operator 2-norms (largest singular values).

    The series is truncated at the first term below ``NORM_SERIES_TOL`` or at
    i = T, whichever comes first.
    """
    form = var.companion(model)
    if form.rho >= 1.0 - 1e-8:
        raise NotStationary("series diverges at unit spectral radius")
    gamma = var.population_gamma(model)
    gnorm = operator_norm_2(gamma)
    total = 1.0  # ||F^0|| = 1
    M = np.eye(form.F.shape[0])
    i = 0
    while True:
        i += 1
        if T is not None and i > T:
            break
        M = M @ form.F
        term = operator_norm_2(M)
        total += term
        if term < NORM_SERIES_TOL:
            break
        if i > 1_000_000:
            raise NonConvergence("norm series did not fall below the truncation tolerance")
    return float(gnorm * total)


def sign_recovery_conditions(
    problem: var.RegressionProblem,
    i: int,
    stage1_beta,
    lambda_t: float,
    truth,
    params: TheoryParams,
    gamma: np.ndarray | None = None,
    sigma_t_value: float | None = None,
) -> dict:
    """Premise, the two sufficient inequalities, and the exact first-order
    conditions for the stage-two weighted fit to reproduce sign(beta*).

    FOC1 checks, for each irrelevant coordinate, that the stationarity bound
    |Psi_{j,J} Psi_JJ^{-1}(X_J'eps/T - lam b) - X_j'eps/T| <= lam w_j holds;
    FOC2 checks the sign consistency of the candidate solution on the true
    support, with b = (sign(beta*_j) / |stage1_j|)_{j in J}.  The report's
    ``foc_ok`` is True exactly when the stage-two minimizer at this penalty
    recovers the full sign pattern.
    """
    stage1 = np.asarray(stage1_beta, dtype=np.float64)
    beta_star = truth.beta[i]
    J = truth.supports[i]
    m = problem.m
    mask = np.zeros(m, dtype=bool)
    mask[J] = True
    Jc = np.flatnonzero(~mask)
    eps = problem.ys[i] - problem.X @ beta_star
    w = adaptive_weights(stage1)
    l1_err = float(np.abs(stage1 - beta_star).sum())
    beta_min_i = float(truth.beta_min_i[i])
    report = {
        "l1_error_stage1": l1_err,
        "beta_min_i": beta_min_i,
        "premise_ok": bool(beta_min_i >= 2.0 * l1_err),
        "relevant_excluded": bool(np.any(stage1[mask] == 0.0)),
    }

    psi_jj = problem.psi[np.ix_(J, J)]
    cond = float(np.linalg.cond(psi_jj)) if len(J) else 1.0
    report["psi_jj_condition"] = cond
    if len(J) == 0:
        report.update({"foc1_ok": True, "foc2_ok": True, "foc_ok": not np.any(np.isfinite(w)), "foc1_margin": np.inf})
        return report

    if report["relevant_excluded"]:
        # a relevant coordinate is hard-excluded: recovery is impossible
        report.update({"foc1_ok": None, "foc2_ok": False, "foc_ok": False, "foc1_margin": -np.inf})
    else:
        b = np.sign(beta_star[J]) * w[J]
        xe = problem.X.T @ eps / problem.T
        h = xe[J] - lambda_t * b
        try:
            t2 = cholesky_solve(psi_jj, h)
        except NotPositiveDefinite as exc:
            raise SingularSubGram(str(exc)) from exc
        cand = beta_star[J] + t2
        foc2_ok = bool(np.all(np.sign(cand) == np.sign(beta_star[J])))
        lhs1 = np.abs(problem.psi[np.ix_(Jc, J)] @ t2 - xe[Jc])
        rhs1 = lambda_t * w[Jc]
        margins = rhs1 - lhs1  # +inf where excluded: trivially satisfied
        foc1_ok = bool(np.all(lhs1 <= rhs1))
        report.update(
            {
                "foc1_ok": foc1_ok,
                "foc2_ok": foc2_ok,
                "foc_ok": foc1_ok and foc2_ok,
                "foc1_margin": float(margins.min()) if len(margins) else np.inf,
            }
        )

    # sufficient conditions (need population quantities)
    if gamma is not None and sigma_t_value is not None and len(J):
        phi_min = float(np.linalg.eigvalsh(gamma[np.ix_(J, J)]).min())
        s_i = len(J)
        kt = k_t(problem.T, problem.k, problem.p, sigma_t_value)
        lhs_a1 = (
            s_i * kt / (params.q * phi_min) * (0.5 + 2.0 / beta_min_i) * l1_err + l1_err / 2.0
        )
        lhs_a2 = math.sqrt(s_i) / (params.q * phi_min) * (lambda_t / 2.0 + 2.0 * lambda_t / beta_min_i)
        report["adalasso1"] = {"lhs": float(lhs_a1), "rhs": 1.0, "ok": bool(lhs_a1 <= 1.0)}
        report["adalasso2"] = {"lhs": float(lhs_a2), "rhs": beta_min_i, "ok": bool(lhs_a2 <= beta_min_i)}
        report["phi_min_gamma_jj"] = phi_min
    return report


def realized_sign_recovery(problem, i, stage1_beta, lambda_t, truth, tol=1e-9):
    """Solve the stage-two weighted problem and compare its sign pattern to truth."""
    stage1 = np.asarray(stage1_beta, dtype=np.float64)
    w = adaptive_weights(stage1)
    res = lasso_cd(problem.X, problem.ys[i], PenaltySpec(lam=lambda_t, weights=w), tol=tol, max_iter=5000)
    return bool(np.all(np.sign(res.beta) == np.sign(truth.beta[i]))), res
