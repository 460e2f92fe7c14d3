"""Equation-by-equation estimation through one per-dataset plan, with BIC penalty selection.

Estimator tags: lasso, post_lasso, adaptive_lasso_lasso, adaptive_lasso_ridge,
oracle_ols, full_ols.  Infeasible combinations (e.g. full OLS with more
regressors than observations) yield explicit infeasible markers instead of
exceptions, so reports carry blank cells instead of aborting the run.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import var
from .errors import SingularDesign
from .linalg import least_squares
from .solver import PenaltySpec, SolverResult, adaptive_weights, lambda_max, lasso_cd, lasso_path, ridge_path

__all__ = [
    "ESTIMATOR_TAGS",
    "PENALIZED_TAGS",
    "SparsityInfo",
    "EquationFit",
    "SystemFit",
    "bic",
    "fit_lasso_bic",
    "fit_post_lasso",
    "fit_oracle_ols",
    "fit_full_ols",
    "FitPlan",
    "fit_menu",
    "fit_system",
    "system_fit_to_dict",
    "system_fit_from_dict",
    "save_system_fit",
    "load_system_fit",
]

ESTIMATOR_TAGS = (
    "lasso",
    "post_lasso",
    "adaptive_lasso_lasso",
    "adaptive_lasso_ridge",
    "oracle_ols",
    "full_ols",
)
# the tags whose final stage is a penalized fit, and so takes a fixed lambda
PENALIZED_TAGS = ESTIMATOR_TAGS[:4]


@dataclass(frozen=True)
class SparsityInfo:
    """True sparsity structure of a system: supports, cardinalities, minimal signals."""

    beta: np.ndarray  # k x kp true coefficients
    supports: tuple  # per-equation index arrays J_i
    s: np.ndarray  # per-equation |J_i|
    s_bar: int
    beta_min_i: np.ndarray
    beta_min: float

    @classmethod
    def from_coefficients(cls, beta: np.ndarray) -> "SparsityInfo":
        beta = np.asarray(beta, dtype=np.float64)
        supports = tuple(np.flatnonzero(row) for row in beta)
        s = np.array([len(J) for J in supports])
        mins = np.array([np.abs(row[J]).min() if len(J) else np.inf for row, J in zip(beta, supports)])
        return cls(
            beta=beta,
            supports=supports,
            s=s,
            s_bar=int(s.max()) if len(s) else 0,
            beta_min_i=mins,
            beta_min=float(mins.min()) if len(mins) else np.inf,
        )


@dataclass
class EquationFit:
    beta: np.ndarray
    active_set: np.ndarray
    lambda_selected: float
    estimator_tag: str
    bic_value: float
    df: float
    rss: float
    converged: bool = True
    feasible: bool = True
    failure: str | None = None
    # BIC chose the last computed point of a lambda grid
    bic_at_grid_end: bool = False

    @classmethod
    def infeasible(cls, m: int, tag: str, reason: str) -> "EquationFit":
        return cls(
            beta=np.zeros(m),
            active_set=np.array([], dtype=np.intp),
            lambda_selected=np.nan,
            estimator_tag=tag,
            bic_value=np.nan,
            df=np.nan,
            rss=np.nan,
            converged=False,
            feasible=False,
            failure=reason,
        )


@dataclass
class SystemFit:
    estimator_tag: str
    fits: tuple
    coefficients: np.ndarray  # k x kp
    k: int
    p: int

    @property
    def feasible(self) -> bool:
        return all(f.feasible for f in self.fits)


def bic(rss, df, T: int):
    """log(RSS) + (log T / T) * df, elementwise over arrays; a perfect fit
    (RSS <= 0) gets the -inf sentinel."""
    rss = np.asarray(rss, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(rss <= 0.0, -np.inf, np.log(rss) + np.log(T) / T * np.asarray(df, dtype=np.float64))
    return float(values) if values.ndim == 0 else values


def _bic_select(X, y, B, df, T: int) -> tuple:
    """(index, BIC, RSS) of the first BIC minimum over the fits in the columns of B."""
    R = X @ B  # the one T x n temporary: fitted values, then residuals
    np.subtract(y[:, None], R, out=R)
    rss = np.einsum("ij,ij->j", R, R)
    values = bic(rss, df, T)
    best = int(np.argmin(values))  # first minimum = largest lambda
    return best, float(values[best]), float(rss[best])


def _ols_on(problem: var.RegressionProblem, i: int, idx: np.ndarray, tag: str) -> EquationFit:
    m = problem.m
    T = problem.T
    beta = np.zeros(m)
    if len(idx):
        coef = least_squares(problem.X[:, idx], problem.ys[i])
        beta[idx] = coef
    r = problem.ys[i] - problem.X @ beta
    rss = float(r @ r)
    return EquationFit(
        beta=beta,
        active_set=np.flatnonzero(beta),
        lambda_selected=0.0,
        estimator_tag=tag,
        bic_value=bic(rss, float(len(idx)), T),
        df=float(len(idx)),
        rss=rss,
    )


def _l1_fit(
    problem: var.RegressionProblem, i: int, tag: str, weights=None, lam=None, n_lambda=100, ratio=1e-4, **cd_opts
) -> EquationFit:
    """The penalized stage every L1 estimator ends in: weighted LASSO fits, then BIC.

    Without ``lam`` the candidates are the warm-started ``lasso_path`` grid; a
    fixed ``lam`` is a one-point grid, solved as given from a cold start;
    ``cd_opts`` (``tol``, ``max_iter``) go to the solver.  BIC scores the
    whole path at once; its df is the active-set size and ties resolve to the
    larger lambda.
    """
    X, y = problem.X, problem.ys[i]
    if weights is not None and not np.isfinite(weights).any():
        # empty first stage: every coordinate is excluded, nothing to refit
        zero = SolverResult(beta=np.zeros(problem.m), iterations=0, max_kkt_violation=0.0, converged=True)
        path = [(0.0 if lam is None else float(lam), zero)]
    elif lam is None:
        path = lasso_path(X, y, weights=weights, n_lambda=n_lambda, ratio=ratio, **cd_opts)
    else:
        path = [(float(lam), lasso_cd(X, y, PenaltySpec(lam=lam, weights=weights), **cd_opts))]
    B = np.column_stack([res.beta for _, res in path])
    df = np.count_nonzero(B, axis=0)
    best, bval, rss = _bic_select(X, y, B, df, problem.T)
    lam_selected, res = path[best]
    return EquationFit(
        beta=res.beta,
        active_set=np.flatnonzero(res.beta),
        lambda_selected=lam_selected,
        estimator_tag=tag,
        bic_value=bval,
        df=float(df[best]),
        rss=rss,
        converged=res.converged,
        bic_at_grid_end=len(path) > 1 and best == len(path) - 1,
    )


class FitPlan:
    """Every estimator on one dataset, with each shared stage run once.

    The data are stacked once.  Per equation, the BIC-tuned LASSO runs once
    and feeds ``lasso``, ``post_lasso`` and the first stage of
    ``adaptive_lasso_lasso``; the ridge first stage of ``adaptive_lasso_ridge``
    comes, for every equation, from one eigendecomposition of X'X.  Each
    first stage goes through the same path -> BIC tail as the LASSO itself.
    ``fit(tag, lam)`` fixes the penalty of the final penalized stage only:
    first stages stay BIC-tuned.
    """

    def __init__(
        self,
        data,
        truth: SparsityInfo | None = None,
        n_lambda: int = 100,
        ratio: float = 1e-4,
        tol: float = 1e-7,
        max_iter: int = 1000,
    ):
        self.problem = data if isinstance(data, var.RegressionProblem) else var.stack(data)
        self.truth = truth
        self.opts = {"n_lambda": n_lambda, "ratio": ratio, "tol": tol, "max_iter": max_iter}
        self._lasso = {}  # (equation, fixed lambda or None) -> LASSO fit
        self._ridge = {}  # equation -> (coefficients, lambda)

    @functools.cached_property
    def _gram_eig(self) -> tuple:
        X = self.problem.X
        return np.linalg.eigh(X.T @ X)

    def lasso(self, i: int, lam: float | None = None) -> EquationFit:
        """LASSO fit of equation i, BIC-tuned or at the fixed ``lam``."""
        if (i, lam) not in self._lasso:
            self._lasso[i, lam] = _l1_fit(self.problem, i, "lasso", lam=lam, **self.opts)
        return self._lasso[i, lam]

    def ridge_bic(self, i: int) -> tuple:
        """(coefficients, lambda) of the ridge first stage of equation i.

        BIC runs over the LASSO grid scaled by T, with df from the trace formula.
        """
        if i not in self._ridge:
            X, y, T = self.problem.X, self.problem.ys[i], self.problem.T
            lmax = lambda_max(X, y) or 1.0  # a zero response has lambda_max 0
            grid = T * lmax * np.logspace(0.0, np.log10(self.opts["ratio"]), self.opts["n_lambda"])
            B, df = ridge_path(X, y, grid, eig=self._gram_eig)
            best = _bic_select(X, y, B, df, T)[0]
            self._ridge[i] = (B[:, best], float(grid[best]))
        return self._ridge[i]

    def equation(self, tag: str, i: int, lam: float | None = None) -> EquationFit:
        if lam is not None and tag not in PENALIZED_TAGS:
            raise ValueError(f"a fixed lambda does not apply to {tag}")
        if tag == "lasso":
            return self.lasso(i, lam)
        if tag == "post_lasso":
            return fit_post_lasso(self.problem, i, lasso_fit=self.lasso(i, lam))
        if tag in ("adaptive_lasso_lasso", "adaptive_lasso_ridge"):
            stage1 = self.lasso(i).beta if tag == "adaptive_lasso_lasso" else self.ridge_bic(i)[0]
            return _l1_fit(self.problem, i, tag, weights=adaptive_weights(stage1), lam=lam, **self.opts)
        if tag == "oracle_ols":
            if self.truth is None:
                raise ValueError("oracle_ols requires the true sparsity structure")
            return fit_oracle_ols(self.problem, i, self.truth)
        if tag == "full_ols":
            return fit_full_ols(self.problem, i)
        raise ValueError(f"unknown estimator tag: {tag}")

    def fit(self, tag: str, lam: float | None = None) -> SystemFit:
        """All k equations under one estimator tag."""
        fits = tuple(self.equation(tag, i, lam) for i in range(self.problem.k))
        coef = np.vstack([f.beta for f in fits])
        return SystemFit(estimator_tag=tag, fits=fits, coefficients=coef, k=self.problem.k, p=self.problem.p)


def fit_lasso_bic(problem: var.RegressionProblem, i: int, **opts) -> EquationFit:
    """LASSO with the penalty chosen by BIC over a log-spaced grid; ``opts`` are
    ``n_lambda``, ``ratio``, ``tol`` and ``max_iter``."""
    return _l1_fit(problem, i, "lasso", **opts)


def fit_post_lasso(problem: var.RegressionProblem, i: int, lasso_fit: EquationFit) -> EquationFit:
    """Least squares refit on the LASSO active set (zeros elsewhere); it carries
    the LASSO fit's penalty level, convergence flag and grid-end flag."""
    active = lasso_fit.active_set
    if len(active) >= problem.T:
        return EquationFit.infeasible(problem.m, "post_lasso", "too_many_selected")
    try:
        fit = _ols_on(problem, i, active, "post_lasso")
    except SingularDesign:
        return EquationFit.infeasible(problem.m, "post_lasso", "singular_design")
    fit.lambda_selected = lasso_fit.lambda_selected
    fit.converged = lasso_fit.converged
    fit.bic_at_grid_end = lasso_fit.bic_at_grid_end
    return fit


def fit_oracle_ols(problem: var.RegressionProblem, i: int, truth: SparsityInfo) -> EquationFit:
    """Infeasible benchmark: least squares on the true support only."""
    J = truth.supports[i]
    if len(J) >= problem.T:
        return EquationFit.infeasible(problem.m, "oracle_ols", "support_larger_than_sample")
    try:
        return _ols_on(problem, i, J, "oracle_ols")
    except SingularDesign:
        return EquationFit.infeasible(problem.m, "oracle_ols", "singular_design")


def fit_full_ols(problem: var.RegressionProblem, i: int) -> EquationFit:
    """Least squares on all kp regressors; infeasible when the design is singular."""
    if problem.m >= problem.T:
        return EquationFit.infeasible(problem.m, "full_ols", "more_regressors_than_observations")
    try:
        return _ols_on(problem, i, np.arange(problem.m), "full_ols")
    except SingularDesign:
        return EquationFit.infeasible(problem.m, "full_ols", "singular_design")


def fit_menu(data, tags, truth: SparsityInfo | None = None, lam: float | None = None, **opts) -> dict:
    """{tag: SystemFit} for every tag in ``tags``, through one FitPlan of ``data``."""
    plan = FitPlan(data, truth, **opts)
    return {tag: plan.fit(tag, lam) for tag in tags}


def fit_system(data, tag: str, truth: SparsityInfo | None = None, lam: float | None = None, **opts) -> SystemFit:
    """Apply the chosen per-equation fit to all k equations."""
    return FitPlan(data, truth, **opts).fit(tag, lam)


def system_fit_to_dict(fit: SystemFit) -> dict:
    kp = fit.coefficients.shape[1]
    return {
        "estimator": fit.estimator_tag,
        "k": fit.k,
        "p": fit.p,
        "lambda_per_equation": [
            None if np.isnan(f.lambda_selected) else float(f.lambda_selected) for f in fit.fits
        ],
        "beta": [float(v) for v in fit.coefficients.reshape(-1)],
        "active_sets": [[int(j) for j in f.active_set] for f in fit.fits],
        "feasible": [bool(f.feasible) for f in fit.fits],
        "converged": [bool(f.converged) for f in fit.fits],
        "kp": kp,
    }


def system_fit_from_dict(d: dict) -> SystemFit:
    k, p, kp = int(d["k"]), int(d["p"]), int(d["kp"])
    coef = np.asarray(d["beta"], dtype=np.float64).reshape(k, kp)
    lams = np.asarray(d["lambda_per_equation"], dtype=np.float64)  # null (undefined lambda) -> NaN
    fits = []
    for i in range(k):
        beta = coef[i]
        fits.append(
            EquationFit(
                beta=beta,
                active_set=np.asarray(d["active_sets"][i], dtype=np.intp),
                lambda_selected=float(lams[i]),
                estimator_tag=d["estimator"],
                bic_value=np.nan,
                df=float(len(d["active_sets"][i])),
                rss=np.nan,
                converged=bool(d["converged"][i]),
                feasible=bool(d["feasible"][i]),
            )
        )
    return SystemFit(estimator_tag=d["estimator"], fits=tuple(fits), coefficients=coef, k=k, p=p)


def save_system_fit(fit: SystemFit, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(system_fit_to_dict(fit), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_system_fit(path: str) -> SystemFit:
    with open(path) as fh:
        return system_fit_from_dict(json.load(fh))
