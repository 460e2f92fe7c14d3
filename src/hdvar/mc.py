"""Monte Carlo harness: the four experiment designs, the six reported metrics,
and a seeded replication loop whose output is independent of worker count.

Replication r uses seed base_seed + r; aggregation folds results in
replication order, so reports are bit-identical for any number of workers.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import dataclasses
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import estimators, var
from .errors import UnknownCombination
from .solver import LAMBDA_RATIO, N_LAMBDA

__all__ = [
    "EXPERIMENT_GRID",
    "ExperimentSpec",
    "McRow",
    "COLUMNS",
    "METRICS",
    "McReport",
    "make_dgp",
    "rmse",
    "rmsfe",
    "selection_metrics",
    "run_experiment",
    "format_cell",
    "report_to_csv",
    "report_to_json",
]

# (experiment, k) combinations the harness accepts; T varies freely.
EXPERIMENT_GRID = {
    "A": (10, 20, 50, 100),
    "B": (10, 20, 50),
    "C": (10, 20, 50),
    "D": (10, 20, 50),
}

NOISE_VARIANCE = 0.01

# BLAS libraries read these once, when they load
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def make_dgp(experiment: str, k: int):
    """Model and true sparsity structure for one of the four designs.

    A: VAR(1), Phi_1 = 0.5 I (own lag only).
    B: VAR(4), 5x5 block-diagonal, Phi_1 blocks 0.15, Phi_4 blocks -0.1.
    C: VAR(5), Phi_j = (-0.95)^(j-1) Phi_1 with Phi_1 = 0.95 I.
    D: VAR(1), entry (i,j) = (-1)^|i-j| 0.4^(|i-j|+1): dense, no zeros.
    All use innovation covariance 0.01 I.
    """
    experiment = experiment.upper()
    if experiment not in EXPERIMENT_GRID or k not in EXPERIMENT_GRID[experiment]:
        raise UnknownCombination(f"experiment {experiment!r} with k={k} is not in the design")
    sigma = NOISE_VARIANCE * np.eye(k)
    if experiment == "A":
        phis = (0.5 * np.eye(k),)
    elif experiment == "B":
        block1 = 0.15 * np.ones((5, 5))
        block4 = -0.1 * np.ones((5, 5))
        eye_blocks = np.eye(k // 5)
        phis = (
            np.kron(eye_blocks, block1),
            np.zeros((k, k)),
            np.zeros((k, k)),
            np.kron(eye_blocks, block4),
        )
    elif experiment == "C":
        phi1 = 0.95 * np.eye(k)
        phis = tuple(((-0.95) ** (j - 1)) * phi1 for j in range(1, 6))
    else:  # D
        rows, cols = np.indices((k, k))
        dist = np.abs(rows - cols)
        phis = (((-1.0) ** dist) * 0.4 ** (dist + 1),)
    model = var.VarModel(phis=phis, sigma=sigma)
    truth = estimators.SparsityInfo.from_coefficients(var.coefficient_matrix(model))
    return model, truth


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str
    k: int
    T: int
    n_reps: int = 100
    base_seed: int = 0
    estimators: tuple = ("lasso",)

    def __post_init__(self):
        exp = self.experiment.upper()
        if exp not in EXPERIMENT_GRID or self.k not in EXPERIMENT_GRID[exp]:
            raise UnknownCombination(f"experiment {exp!r} with k={self.k} is not in the design")
        object.__setattr__(self, "experiment", exp)
        for tag in self.estimators:
            if tag not in estimators.ESTIMATOR_TAGS:
                raise ValueError(f"unknown estimator tag {tag!r}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.T < 1:
            raise ValueError("T must be at least one")
        if self.n_reps < 1:
            raise ValueError("need at least one replication")


@dataclass
class McRow:
    estimator: str
    true_model_uncovered: float
    true_model_included: float
    share_relevant: float
    n_selected: float
    rmse: float
    rmsfe: float
    infeasible: bool
    n_failed: int


# report columns, in McRow's field order; the six metrics sit between the
# estimator tag and the two feasibility fields
COLUMNS = tuple(f.name for f in dataclasses.fields(McRow))
METRICS = COLUMNS[1:-2]


@dataclass
class McReport:
    spec: ExperimentSpec
    rows: dict
    seeds: tuple
    # per estimator: "fits" (equation fits attempted), and over the feasible ones
    # "nonconverged", "bic_at_grid_end" and "mean_df_over_T" (None if none)
    solver: dict = field(default_factory=dict)
    runtime_seconds: float = field(default=0.0, compare=False)
    # runtime stays out of serialized reports so reruns are byte-identical


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


def _run_replication(spec: ExperimentSpec, model, truth, r: int):
    full = var.simulate(model, spec.T + 1, seed=spec.base_seed + r)
    data = var.truncate_dataset(full, spec.T)
    realized = full.path[spec.T]
    fits = estimators.fit_menu(data, spec.estimators, truth=truth)
    forecasts = {tag: var.forecast_one_step(fit.coefficients, data) for tag, fit in fits.items()}
    return {"rep": r, "realized": realized, "fits": fits, "forecasts": forecasts}


@contextlib.contextmanager
def _worker_pool(workers: int):
    """Process pool whose workers start with single-threaded BLAS.

    Workers are spawned, not forked, so they load BLAS afresh instead of
    inheriting the parent's thread pool; with several workers each running a
    multi-threaded BLAS the tiny per-equation solves oversubscribe the cores.
    The thread variables are set for the pool's lifetime (workers start on
    demand) and the parent's environment is restored afterwards.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(saved, "1"))
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> McReport:
    """Run all replications and aggregate the six metrics per estimator.

    Per-estimator infeasibility (singular design, oversized active set) is
    recorded, not fatal: metrics of an estimator with any failed replication
    are reported as NaN with the failure count, mirroring blank table cells.
    """
    start = time.perf_counter()
    model, truth = make_dgp(spec.experiment, spec.k)
    reps = range(spec.n_reps)
    if threads > 1:
        with _worker_pool(threads) as pool:
            results = list(
                pool.map(
                    _run_replication,
                    *zip(*[(spec, model, truth, r) for r in reps]),
                    chunksize=max(1, spec.n_reps // (4 * threads)),
                )
            )
    else:
        results = [_run_replication(spec, model, truth, r) for r in reps]
    results.sort(key=lambda d: d["rep"])

    rows = {}
    solver = {}
    for tag in spec.estimators:
        fits = [res["fits"][tag] for res in results]
        equations = [eq for f in fits for eq in f.fits]
        selected = [eq for eq in equations if eq.feasible]
        solver[tag] = {
            "nonconverged": sum(not eq.converged for eq in selected),
            "fits": len(equations),
            "bic_at_grid_end": sum(eq.bic_at_grid_end for eq in selected),
            "mean_df_over_T": float(np.mean([eq.df for eq in selected])) / spec.T if selected else None,
        }
        n_failed = sum(not f.feasible for f in fits)
        if n_failed:
            rows[tag] = McRow(tag, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, True, n_failed)
            continue
        unc, inc, share, nsel = selection_metrics(fits, truth)
        rows[tag] = McRow(
            estimator=tag,
            true_model_uncovered=unc,
            true_model_included=inc,
            share_relevant=share,
            n_selected=nsel,
            rmse=rmse(fits, truth),
            rmsfe=rmsfe(
                [res["forecasts"][tag] for res in results],
                [res["realized"] for res in results],
                spec.k,
            ),
            infeasible=False,
            n_failed=0,
        )
    return McReport(
        spec=spec,
        rows=rows,
        seeds=tuple(spec.base_seed + r for r in reps),
        solver=solver,
        runtime_seconds=time.perf_counter() - start,
    )


def format_cell(value) -> str:
    """CSV cell of one report value."""
    if isinstance(value, float) and math.isnan(value):
        return ""  # infeasible entries render as blank cells
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_csv(report: McReport, path: str) -> None:
    """One row per estimator, columns = the six metrics plus feasibility."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for tag in report.spec.estimators:
            writer.writerow([format_cell(getattr(report.rows[tag], name)) for name in COLUMNS])


def _nan_to_none(x):
    return None if isinstance(x, float) and math.isnan(x) else x


def report_to_json(report: McReport, path: str) -> None:
    spec = report.spec
    payload = {
        "experiment": spec.experiment,
        "k": spec.k,
        "T": spec.T,
        "n_reps": spec.n_reps,
        "base_seed": spec.base_seed,
        "n_lambda": N_LAMBDA,
        "lambda_ratio": LAMBDA_RATIO,
        "seeds": list(report.seeds),
        "estimators": {
            tag: {name: _nan_to_none(getattr(report.rows[tag], name)) for name in COLUMNS[1:]}
            for tag in spec.estimators
        },
        "solver": report.solver,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
