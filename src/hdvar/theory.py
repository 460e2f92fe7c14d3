"""Finite-sample quantities: penalty formulas, restricted eigenvalues, empirical
events, oracle-inequality sides, probability lower bounds, and the exact
first-order conditions for sign recovery of the two-stage weighted LASSO.
``diagnose``, the library entry of ``hdvar diag``, assembles them into a report.

Every routine is a pure function; ``restricted_eigenvalue`` draws its random
points from the seed RE_SEED.  Its search is batched: the starting points of
one index set are the columns of one matrix, and the refined starts of every
index set run together through one projected-gradient loop, a block of
columns at a time.  Only cone-feasible points are evaluated, so the estimate
is never below the true restricted eigenvalue.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import estimators, var
from .errors import ConfigError, NotPositiveDefinite, ZeroKappa
from .linalg import cholesky_solve
from .solver import adaptive_weights

__all__ = [
    "TheoryParams",
    "lambda_theorem1",
    "k_t",
    "pi_q",
    "zeta",
    "thm1_probability",
    "restricted_eigenvalue",
    "cross_moments",
    "event_flags",
    "thm1_rhs_check",
    "thm3_bounds",
    "f_norm_sum",
    "sign_recovery_conditions",
    "diagnose",
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
        if not self.a_const > 0:
            raise ValueError("a_const must be positive")


def lambda_theorem1(T: int, k: int, p: int, sigma_t: float) -> float:
    """Penalty level sqrt(8 ln(1+T)^5 ln(1+k)^4 ln(1+p)^2 ln(k^2 p) sigma^4 / T)."""
    if min(T, k, p) < 1:
        raise ValueError("T, k, p must be at least one")
    val = 8.0 * math.log(1 + T) ** 5 * math.log(1 + k) ** 4 * math.log(1 + p) ** 2
    val *= math.log(k * k * p) * sigma_t**4 / T
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


# ---------------------------------------------------------------------------
# Restricted eigenvalue estimation

# Subsets of one size are enumerated while there are at most RE_ENUM_CAP of
# them, else RE_N_SUBSETS are sampled from RE_SEED; each subset gets RE_N_STARTS
# random cone points and RE_N_ITERS projected-gradient steps per refined start.
# The refined starts of all subsets run through one loop in blocks of about
# RE_BLOCK matrix entries (rows x columns), which keeps a block in cache.
RE_SEED = 0
RE_ENUM_CAP = 5000
RE_N_SUBSETS = 200
RE_N_STARTS = 24
RE_N_ITERS = 300
RE_BLOCK = 16384


def _subset_rng(subset: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([RE_SEED, *subset])))


def _subsets(psi: np.ndarray, r: int):
    """The index sets R searched for kappa^2(r), by size."""
    m = psi.shape[0]
    for size in range(1, r + 1):
        if math.comb(m, size) <= RE_ENUM_CAP:
            yield from itertools.combinations(range(m), size)
            continue
        master = _subset_rng((size,))
        seen = set()
        while len(seen) < RE_N_SUBSETS:
            seen.add(tuple(sorted(master.choice(m, size=size, replace=False).tolist())))
        # bias toward weak-diagonal subsets, which tend to minimize; entries equal
        # to float32 precision tie and keep index order, so rounding picks nothing
        diag_order = np.argsort(np.diag(psi).astype(np.float32), kind="stable")
        seen.add(tuple(sorted(diag_order[:size].tolist())))
        yield from sorted(seen)


def _cone_project(D: np.ndarray, DR: np.ndarray) -> np.ndarray:
    """D with, column by column, the off-R block scaled onto the cone boundary
    ||d_{R^c}||_1 = 3 ||d_R||_1 where it sticks out; DR is D on R and 0 elsewhere."""
    off_r = D - DR
    on = np.abs(DR).sum(axis=0)
    off = np.abs(off_r).sum(axis=0)
    out = off > 3.0 * on
    if not out.any():
        return D
    off_r *= np.divide(3.0 * on, off, out=np.ones_like(on), where=out)
    return np.add(DR, off_r, out=off_r)


def _ratios(D: np.ndarray, DR: np.ndarray, PD: np.ndarray) -> np.ndarray:
    """d'Psi d / ||d_R||^2 of every column d of D, from DR (D on R, 0 elsewhere)
    and PD = Psi D; inf where d_R = 0."""
    denom = np.einsum("ij,ij->j", DR, DR)
    num = np.einsum("ij,ij->j", D, PD)
    return np.divide(num, denom, out=np.full_like(num, np.inf), where=denom > 0.0)


def _subset_starts(psi: np.ndarray, subset: tuple, rng: np.random.Generator) -> tuple:
    """(least ratio among the starting points of ``subset``, the most promising
    starts as columns normalised on R, their R-mask as 0/1)."""
    m = psi.shape[0]
    R = np.asarray(subset, dtype=np.intp)
    on_r = np.zeros((m, 1))
    on_r[R] = 1.0
    Rc = np.flatnonzero(on_r[:, 0] == 0.0)
    blocks = []

    # canonical candidates: eigenvectors of the R-block, zeros elsewhere
    _, V = np.linalg.eigh(psi[np.ix_(R, R)])
    E = np.zeros((m, len(R)))
    E[R] = V
    blocks.append(E)

    # Schur candidates: unconstrained optimal off-R fill-in, shrunk by t = 1, 1/2, 1/4
    if len(Rc):
        A = psi[np.ix_(Rc, Rc)]
        B = psi[np.ix_(Rc, R)]
        try:
            U = cholesky_solve(A + 1e-12 * np.eye(len(Rc)) * max(A.max(), 1.0), B)
        except NotPositiveDefinite:
            pass  # the off-R block is singular even after regularization: no candidates
        else:
            S = psi[np.ix_(R, R)] - B.T @ U
            _, Vs = np.linalg.eigh((S + S.T) / 2.0)
            F = np.zeros((m, 3 * len(R)))
            F[R] = np.repeat(Vs, 3, axis=1)
            F[Rc] = np.repeat(-U @ Vs, 3, axis=1) * np.tile([1.0, 0.5, 0.25], len(R))
            blocks.append(F)

    # random points, normalised on R
    Z = rng.standard_normal((RE_N_STARTS, m)).T
    nr = np.linalg.norm(Z[R], axis=0)
    Z = Z[:, nr != 0.0] / nr[nr != 0.0]
    blocks.append(Z)

    starts = np.hstack(blocks)
    starts = _cone_project(starts, starts * on_r)
    ratios = _ratios(starts, starts * on_r, psi @ starts)
    picked = starts[:, np.argsort(ratios)[: max(4, RE_N_STARTS // 2)]]
    nr = np.linalg.norm(picked[R], axis=0)
    picked = picked[:, nr != 0.0] / nr[nr != 0.0]
    return float(ratios.min()), picked, np.broadcast_to(on_r, picked.shape)


def _refine(psi: np.ndarray, D: np.ndarray, on_r: np.ndarray, lipschitz: float) -> float:
    """Least ratio met by RE_N_ITERS projected-gradient steps from every column
    of D at once (R-masks ``on_r``).  Each step normalises a column on R and
    projects it onto the cone; a column whose R-norm falls to 1e-14 or below
    stops at its last cone-feasible iterate, so only cone points are scored."""
    step = 0.9 / max(lipschitz, 1e-12)
    DR = D * on_r
    best = np.inf
    for it in range(RE_N_ITERS + 1):
        PD = psi @ D
        f = _ratios(D, DR, PD)
        best = min(best, float(f.min()))
        if it == RE_N_ITERS:
            return best
        # a step along the ratio's gradient 2 Psi d - 2 f d_R at ||d_R|| = 1
        D -= step / (1.0 + it / 50.0) * (2.0 * PD - (2.0 * f) * DR)
        DR = D * on_r
        nr = np.sqrt(np.einsum("ij,ij->j", DR, DR))
        live = nr > 1e-14
        if not live.all():
            if not live.any():
                return best
            D, DR, on_r, nr = D[:, live], DR[:, live], on_r[:, live], nr[live]
        D /= nr
        DR /= nr
        D = _cone_project(D, DR)


def restricted_eigenvalue(psi, r: int) -> float:
    """Upper estimate of kappa^2(r): min of d'Psi d / ||d_R||^2 over index sets
    |R| <= r and the cone ||d_{R^c}||_1 <= 3 ||d_R||_1.

    Subsets are enumerated when C(m, r) is within ``RE_ENUM_CAP`` and sampled
    otherwise, from ``RE_SEED``; each subset problem is attacked with canonical
    eigenvector candidates, Schur-complement candidates, random cone points and
    projected gradient refinement of the most promising of them.  The search is
    batched: the starts of a subset are the columns of one matrix, and the
    refined starts of every subset run through one projected-gradient loop, in
    blocks of about ``RE_BLOCK`` matrix entries.  Only cone points are scored,
    so the estimate, their minimum, is never below the true kappa^2(r).
    """
    psi = np.asarray(psi, dtype=np.float64)
    m = psi.shape[0]
    if psi.shape != (m, m):
        raise ValueError("psi must be square")
    if not 1 <= r <= m:
        raise ValueError("r must lie in [1, m]")
    lipschitz = float(np.linalg.eigvalsh((psi + psi.T) / 2.0).max())
    best = np.inf
    starts, masks, n_cols = [], [], 0
    for subset in _subsets(psi, r):
        val, picked, on_r = _subset_starts(psi, subset, _subset_rng(subset))
        best = min(best, val)
        starts.append(picked)
        masks.append(on_r)
        n_cols += picked.shape[1]
        if n_cols * m >= RE_BLOCK:
            best = min(best, _refine(psi, np.hstack(starts), np.hstack(masks), lipschitz))
            starts, masks, n_cols = [], [], 0
    if starts:
        best = min(best, _refine(psi, np.hstack(starts), np.hstack(masks), lipschitz))
    return float(best)


# ---------------------------------------------------------------------------
# Empirical events and inequality checks


def cross_moments(problem: var.RegressionProblem, truth) -> np.ndarray:
    """The k x m regressor/innovation cross-moments of the stacked ``problem``:
    row i is X'eps_i/T, where eps_i = y_i - X beta*_i are the innovations that
    the true coefficients ``truth.beta`` imply, formed from the problem's
    statistics as X'y_i/T - Psi beta*_i."""
    return np.array([problem.xy[i] / problem.T - problem.psi @ beta_star for i, beta_star in enumerate(truth.beta)])


def event_flags(problem: var.RegressionProblem, cross, *, gamma, lambda_t, c_threshold, k_t_value) -> dict:
    """The three empirical events on one replication, with the statistic each
    compares, as the ``events`` entry of a diag report.

    b_t: all regressor/innovation cross-moments ``cross`` (``cross_moments``)
    below lambda_T / 2;
    c_t: entrywise deviation of the Gram matrix from the population covariance
    ``gamma`` within ``c_threshold``, (1-q) kappa^2(s_bar) / (16 s_bar);
    d_t: all second moments of the regressors below K_T (``k_t_value``).
    """
    max_cross = float(np.abs(cross).max())
    max_cov_dev = float(np.abs(problem.psi - gamma).max())
    max_yy = float(np.abs(problem.psi).max())
    return {
        "b_t": bool(max_cross < lambda_t / 2.0),
        "c_t": bool(max_cov_dev <= c_threshold),
        "d_t": bool(max_yy < k_t_value),
        "max_cross": max_cross,
        "max_cov_dev": max_cov_dev,
        "max_yy": max_yy,
    }


def thm1_rhs_check(problem: var.RegressionProblem, i: int, fit_beta, truth, lambda_t: float) -> dict:
    """Both sides of the three basic inequalities for one equation at penalty lambda_T.

    Given the cross-moment event, the inequalities hold deterministically up
    to solver tolerance; slack = rhs - lhs.  The prediction error
    ||X err||^2 / T is read as err' Psi err.
    """
    beta_hat = np.asarray(fit_beta, dtype=np.float64)
    beta_star = truth.beta[i]
    J = truth.supports[i]
    mask = np.zeros(problem.m, dtype=bool)
    mask[J] = True
    err = beta_hat - beta_star
    pred = float(err @ problem.psi @ err)
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


def thm3_bounds(s_i: int, lambda_t: float, kappa_sq: float, q: float) -> dict:
    """{"pred_bound", "est_bound"} = (16/(q kappa^2)) s (lambda^2, lambda), as one
    equation's entry of a diag report's ``thm3`` bounds.

    The estimation bound doubles as the beta-min screening threshold.
    """
    if kappa_sq <= 0:
        raise ZeroKappa("restricted eigenvalue must be positive")
    base = 16.0 / (q * kappa_sq) * s_i
    return {"pred_bound": base * lambda_t**2, "est_bound": base * lambda_t}


NORM_SERIES_TOL = 1e-12


def f_norm_sum(model: var.VarModel, T: int) -> float:
    """||Gamma|| * sum_{i=0}^{T} ||F^i|| with exact operator 2-norms (largest singular values).

    The series is truncated at the first term below ``NORM_SERIES_TOL`` or at
    i = T, whichever comes first.
    """
    gamma = var.population_gamma(model)  # raises NotStationary where the series diverges
    form = var.companion(model)
    total = 1.0  # ||F^0|| = 1
    M = np.eye(form.F.shape[0])
    for _ in range(T):
        M = M @ form.F
        term = np.linalg.norm(M, 2)
        total += term
        if term < NORM_SERIES_TOL:
            break
    return float(np.linalg.norm(gamma, 2) * total)


def sign_recovery_conditions(
    problem: var.RegressionProblem,
    i: int,
    stage1_beta,
    lambda_t: float,
    truth,
    params: TheoryParams,
    phi_min: float | None,
    k_t_value: float,
    cross: np.ndarray,
) -> dict:
    """Premise, the two sufficient inequalities, and the exact first-order
    conditions for the stage-two weighted fit to reproduce sign(beta*).

    FOC1 checks, for each irrelevant coordinate, that the stationarity bound
    |Psi_{j,J} Psi_JJ^{-1}(X_J'eps/T - lam b) - X_j'eps/T| <= lam w_j holds;
    FOC2 checks the sign consistency of the candidate solution on the true
    support, with b = (sign(beta*_j) / |stage1_j|)_{j in J}, from the
    problem's statistics and X'eps/T, row i of ``cross`` (``cross_moments``).
    The report's ``foc_ok`` is True exactly when the stage-two minimizer at
    this penalty recovers the full sign pattern.  The sufficient inequalities
    read K_T (``k_t_value``) and ``phi_min``, the smallest eigenvalue of the
    population Gamma_JJ (None for an empty support).
    """
    stage1 = np.asarray(stage1_beta, dtype=np.float64)
    beta_star = truth.beta[i]
    J = truth.supports[i]
    m = problem.m
    mask = np.zeros(m, dtype=bool)
    mask[J] = True
    Jc = np.flatnonzero(~mask)
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
        xe = cross[i]
        h = xe[J] - lambda_t * b
        t2 = cholesky_solve(psi_jj, h)
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

    # sufficient conditions, from the population covariance
    s_i = len(J)
    lhs_a1 = s_i * k_t_value / (params.q * phi_min) * (0.5 + 2.0 / beta_min_i) * l1_err + l1_err / 2.0
    lhs_a2 = math.sqrt(s_i) / (params.q * phi_min) * (lambda_t / 2.0 + 2.0 * lambda_t / beta_min_i)
    report["adalasso1"] = {"lhs": float(lhs_a1), "rhs": 1.0, "ok": bool(lhs_a1 <= 1.0)}
    report["adalasso2"] = {"lhs": float(lhs_a2), "rhs": beta_min_i, "ok": bool(lhs_a2 <= beta_min_i)}
    report["phi_min_gamma_jj"] = phi_min
    return report


def diagnose(model: var.VarModel, truth, datasets, params: TheoryParams, foc: bool = True) -> dict:
    """The ``bounds`` and ``replications`` of a diag report on ``datasets``, which
    share one T: the library entry of ``hdvar diag``.

    sigma_T, lambda_T, K_T, Gamma, kappa^2 per distinct support size, phi_min of
    each Gamma_JJ, the Theorem 3 bounds and the C_T threshold are computed
    once.  Each dataset gets its events, the basic inequalities of every
    equation's LASSO at lambda_T and, with ``foc``, the sign-recovery
    conditions on its BIC-tuned LASSO.  The events and the conditions read
    one X'eps/T per dataset, from the model's coefficients (``cross_moments``).
    """
    T, k, p = datasets[0].T, model.k, model.p
    if T < 2:
        raise ConfigError(f"diagnostics need at least two observations, and T = {T}")
    st = var.sigma_t(model)
    lam_t = lambda_theorem1(T, k, p, st)
    kt = k_t(T, k, p, st)
    gamma = var.population_gamma(model)
    # kappa^2(r) is deterministic in (gamma, r): evaluate each distinct r once
    ranks = [max(int(s), 1) for s in truth.s]
    sbar_rank = max(int(truth.s_bar), 1)
    kappa_by_rank = {r: restricted_eigenvalue(gamma, r) for r in sorted({sbar_rank, *ranks})}
    kappa_sbar_sq = kappa_by_rank[sbar_rank]
    # phi_min(Gamma_JJ) is deterministic in (gamma, J_i): evaluate it once per equation
    phi_mins = [float(np.linalg.eigvalsh(gamma[np.ix_(J, J)]).min()) if len(J) else None for J in truth.supports]
    fnorm = f_norm_sum(model, T=T)
    thm3 = [thm3_bounds(int(s), lam_t, kappa_by_rank[r], params.q) for s, r in zip(truth.s, ranks)]
    bounds = {
        "lambda_t": lam_t,
        "k_t": kt,
        "sigma_t": st,
        "thm1_probability": thm1_probability(T, k, p, params.a_const),
        "pi_q_sbar": pi_q(sbar_rank, k, p, T, zeta(params.q, kappa_sbar_sq, fnorm)),
        "f_norm_sum": fnorm,
        "kappa_sbar_sq": kappa_sbar_sq,
        "thm3": thm3,
        "system_bound": float(np.sum([b["est_bound"] for b in thm3])),
    }
    ct = (1.0 - params.q) * kappa_sbar_sq / (16.0 * sbar_rank)
    replications = []
    for idx, data in enumerate(datasets):
        plan = estimators.FitPlan(data)
        problem = plan.problem
        cross = cross_moments(problem, truth)
        entry = {
            "replication": idx,
            "events": event_flags(problem, cross, gamma=gamma, lambda_t=lam_t, c_threshold=ct, k_t_value=kt),
            "iq_checks": [thm1_rhs_check(problem, i, plan.lasso(i, lam_t).beta, truth, lam_t) for i in range(k)],
        }
        if foc:
            entry["foc"] = [
                sign_recovery_conditions(problem, i, plan.lasso(i).beta, lam_t, truth, params, phi_mins[i], kt, cross)
                for i in range(k)
            ]
        replications.append(entry)
    return {"bounds": bounds, "replications": replications}
