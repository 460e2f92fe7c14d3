"""Equation-by-equation estimation through one per-dataset plan, with BIC penalty selection.

Estimator tags: lasso, post_lasso, adaptive_lasso_lasso, adaptive_lasso_ridge,
oracle_ols, full_ols.  Infeasible combinations (e.g. full OLS with more
regressors than observations) yield explicit infeasible markers instead of
exceptions, so reports carry blank cells instead of aborting the run.

Every BIC choice is scored from sufficient statistics: the RSS each
``lasso_path`` point carries, or the closed-form ridge RSS, with no residual
matrix.  The k equations share one design, whose ``var.RegressionProblem``
forms Psi = X'X/T, X'y_i and y_i'y_i once: every L1 fit, the ridge first
stage and its eigendecomposition read them there, and so do the OLS refits,
which solve the normal equations on a block of Psi.

``FitPlan(data, truth).fit(tag, lam)`` is the one way in: a Monte Carlo
replication fits its estimator tags through one plan, and so does ``hdvar fit``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import var
from .errors import ConfigError, NotPositiveDefinite
from .linalg import cholesky_solve
from .solver import adaptive_weights, lambda_grid, lambda_max, lasso_path, ridge_path

__all__ = [
    "ESTIMATOR_TAGS",
    "PENALIZED_TAGS",
    "check_tags",
    "SparsityInfo",
    "EquationFit",
    "SystemFit",
    "bic",
    "FitPlan",
    "system_fit_to_dict",
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


def check_tags(tags) -> tuple:
    """``tags`` as a tuple: at least one, each in ``ESTIMATOR_TAGS``, none repeated."""
    tags = tuple(tags)
    for tag in tags:
        if tag not in ESTIMATOR_TAGS:
            raise ConfigError(f"unknown estimator tag {tag!r}")
    if not tags:
        raise ConfigError("no estimators requested")
    if len(set(tags)) < len(tags):
        raise ConfigError(f"estimator tags repeat in {','.join(tags)!r}")
    return tags


@dataclass(frozen=True)
class SparsityInfo:
    """True sparsity structure of a system: supports, cardinalities, minimal signals."""

    beta: np.ndarray  # k x kp true coefficients
    supports: tuple  # per-equation index arrays J_i
    s: np.ndarray  # per-equation |J_i|
    s_bar: int
    beta_min_i: np.ndarray

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
        )


@dataclass
class EquationFit:
    beta: np.ndarray
    active_set: np.ndarray
    lambda_selected: float
    estimator_tag: str
    df: float
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
            df=np.nan,
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


def _ols_on(problem: var.RegressionProblem, i: int, idx: np.ndarray, tag: str, too_many: str) -> EquationFit:
    """Least squares of equation i on the regressors ``idx``, zeros elsewhere:
    Psi_II beta_I = (X'y_i)_I / T by ``cholesky_solve``, reading no column of X.

    Infeasible for the reason ``too_many`` when ``idx`` holds T or more
    regressors, and for "singular_design" when Psi_II fails its pivot rule.
    """
    if len(idx) >= problem.T:
        return EquationFit.infeasible(problem.m, tag, too_many)
    beta = np.zeros(problem.m)
    if len(idx):
        try:
            beta[idx] = cholesky_solve(problem.psi[np.ix_(idx, idx)], problem.xy[i, idx] / problem.T)
        except NotPositiveDefinite:
            return EquationFit.infeasible(problem.m, tag, "singular_design")
    return EquationFit(
        beta=beta,
        active_set=np.flatnonzero(beta),
        lambda_selected=0.0,
        estimator_tag=tag,
        df=float(len(idx)),
    )


def _l1_fit(problem: var.RegressionProblem, i: int, tag: str, weights=None, lam=None) -> EquationFit:
    """The penalized stage every L1 estimator ends in: a weighted ``lasso_path``
    of equation i of the stacked problem, then BIC.

    Without ``lam`` the candidates are the path's grid, and BIC scores the
    whole path at once from the RSS the path carries; its df is the
    active-set size and ties resolve to the larger lambda.  A fixed ``lam`` is
    the one-point path [lam], whose only row BIC takes.
    """
    path = lasso_path(problem, i, weights=weights, lam=lam)
    best = int(np.argmin(bic(path.rss, np.count_nonzero(path.beta, axis=1), problem.T)))  # first minimum = largest lambda
    beta = path.beta[best].copy()
    return EquationFit(
        beta=beta,
        active_set=np.flatnonzero(beta),
        lambda_selected=float(path.lambdas[best]),
        estimator_tag=tag,
        df=float(np.count_nonzero(beta)),
        converged=bool(path.converged[best]),
        bic_at_grid_end=len(path.lambdas) > 1 and best == len(path.lambdas) - 1,
    )


class FitPlan:
    """Every estimator on one dataset, with each shared stage run once.

    The data are stacked once, and the stacked problem's statistics serve
    every path.  Per equation, the BIC-tuned LASSO runs once and feeds
    ``lasso``, ``post_lasso`` and the first stage of ``adaptive_lasso_lasso``;
    the ridge first stage of ``adaptive_lasso_ridge`` comes, for every
    equation, from one eigendecomposition of Psi.  Each first stage goes
    through the same path -> BIC tail as the LASSO itself.  ``fit(tag, lam)``
    fixes the penalty of the final penalized stage only: first stages stay
    BIC-tuned.
    """

    def __init__(self, data, truth: SparsityInfo | None = None):
        self.problem = data if isinstance(data, var.RegressionProblem) else var.stack(data)
        self.truth = truth
        self._lasso = {}  # (equation, fixed lambda or None) -> LASSO fit
        self._ridge = {}  # equation -> (coefficients, lambda)

    @functools.cached_property
    def _gram_eig(self) -> tuple:
        """(d, V) with X'X = V diag(d) V', from the dataset's Psi = X'X/T."""
        d, V = np.linalg.eigh(self.problem.psi)
        return self.problem.T * d, V

    def lasso(self, i: int, lam: float | None = None) -> EquationFit:
        """LASSO fit of equation i, BIC-tuned or at the fixed ``lam``."""
        if (i, lam) not in self._lasso:
            self._lasso[i, lam] = _l1_fit(self.problem, i, "lasso", lam=lam)
        return self._lasso[i, lam]

    def ridge_bic(self, i: int) -> tuple:
        """(coefficients, lambda) of the ridge first stage of equation i.

        BIC runs over the LASSO grid scaled by T, with df from the trace formula
        and the RSS in closed form from the eigendecomposition.
        """
        if i not in self._ridge:
            T = self.problem.T
            lmax = lambda_max(self.problem, i) or 1.0  # a zero response has lambda_max 0
            grid = lambda_grid(T * lmax)
            B, df, rss = ridge_path(self.problem, i, grid, self._gram_eig)
            best = int(np.argmin(bic(rss, df, T)))
            self._ridge[i] = (B[:, best], float(grid[best]))
        return self._ridge[i]

    def equation(self, tag: str, i: int, lam: float | None = None) -> EquationFit:
        if lam is not None and tag not in PENALIZED_TAGS:
            raise ConfigError(f"a fixed lambda does not apply to {tag}")
        if tag == "lasso":
            return self.lasso(i, lam)
        if tag == "post_lasso":
            # the refit carries the LASSO fit's penalty level, convergence and grid-end flags
            lasso = self.lasso(i, lam)
            fit = _ols_on(self.problem, i, lasso.active_set, tag, "too_many_selected")
            if fit.feasible:
                fit.lambda_selected, fit.converged = lasso.lambda_selected, lasso.converged
                fit.bic_at_grid_end = lasso.bic_at_grid_end
            return fit
        if tag in ("adaptive_lasso_lasso", "adaptive_lasso_ridge"):
            stage1 = self.lasso(i).beta if tag == "adaptive_lasso_lasso" else self.ridge_bic(i)[0]
            return _l1_fit(self.problem, i, tag, weights=adaptive_weights(stage1), lam=lam)
        if tag == "oracle_ols":
            if self.truth is None:
                raise ValueError("oracle_ols requires the true sparsity structure")
            return _ols_on(self.problem, i, self.truth.supports[i], tag, "support_larger_than_sample")
        check_tags((tag,))  # the one known tag left is full_ols
        return _ols_on(self.problem, i, np.arange(self.problem.m), tag, "more_regressors_than_observations")

    def fit(self, tag: str, lam: float | None = None) -> SystemFit:
        """All k equations under one estimator tag."""
        fits = tuple(self.equation(tag, i, lam) for i in range(self.problem.k))
        coef = np.vstack([f.beta for f in fits])
        return SystemFit(estimator_tag=tag, fits=fits, coefficients=coef, k=self.problem.k, p=self.problem.p)


def system_fit_to_dict(fit: SystemFit) -> dict:
    """The fit's payload for ``var.write_json``, which writes an infeasible equation's NaN lambda as null."""
    return {
        "estimator": fit.estimator_tag,
        "k": fit.k,
        "p": fit.p,
        "lambda_per_equation": [f.lambda_selected for f in fit.fits],
        "beta": fit.coefficients.reshape(-1),
        "active_sets": [f.active_set for f in fit.fits],
        "feasible": [f.feasible for f in fit.fits],
        "converged": [f.converged for f in fit.fits],
        "kp": fit.coefficients.shape[1],
    }
