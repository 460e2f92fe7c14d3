"""Monte Carlo harness: the four experiment designs, the six reported metrics,
and a seeded replication loop whose output is independent of worker count.

Replication r uses seed base_seed + r and reduces its own fits to numbers: per
estimator, its value of each metric and its solver counts.  A report is one
mean per metric over those numbers, taken in replication order, so reports
are bit-identical for any number of workers.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
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
    "run_experiment",
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


def _replicate(spec: ExperimentSpec, model, truth, r: int) -> dict:
    """{tag: record} of replication r in Python numbers, tuples and lists: whether
    every equation was feasible; the value of each metric in ``METRICS`` order,
    ||B_hat - B||_F^2 and ||yhat_{T+1} - y_{T+1}||^2 standing for rmse and rmsfe;
    and, over the feasible equations, the nonconverged and grid-end counts and their df."""
    full = var.simulate(model, spec.T + 1, seed=spec.base_seed + r)
    data = var.truncate_dataset(full, spec.T)
    plan = estimators.FitPlan(data, truth)
    joints = [set(J.tolist()) for J in truth.supports]
    total_s = int(truth.s.sum())
    records = {}
    for tag in spec.estimators:
        fit = plan.fit(tag)
        actives = [set(eq.active_set.tolist()) for eq in fit.fits]
        selected = [eq for eq in fit.fits if eq.feasible]
        records[tag] = {
            "feasible": fit.feasible,
            "metrics": (
                all(a == j for a, j in zip(actives, joints)),
                all(j <= a for a, j in zip(actives, joints)),
                sum(len(a & j) for a, j in zip(actives, joints)) / total_s if total_s else 1.0,
                sum(len(a) for a in actives),
                float(np.sum((fit.coefficients - truth.beta) ** 2)),
                float(np.sum((var.forecast_one_step(fit.coefficients, data) - full.path[spec.T]) ** 2)),
            ),
            "nonconverged": sum(not eq.converged for eq in selected),
            "bic_at_grid_end": sum(eq.bic_at_grid_end for eq in selected),
            "df": [eq.df for eq in selected],
        }
    return records


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
    """Run all replications; each metric per estimator is the mean of its per-replication
    values, rmse and rmsfe the square roots of the mean squared errors (rmsfe's over k).

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
                    _replicate,
                    *zip(*[(spec, model, truth, r) for r in reps]),
                    chunksize=max(1, spec.n_reps // (4 * threads)),
                )
            )
    else:
        results = [_replicate(spec, model, truth, r) for r in reps]

    rows = {}
    solver = {}
    for tag in spec.estimators:
        records = [res[tag] for res in results]
        df = [d for rec in records for d in rec["df"]]
        solver[tag] = {
            "nonconverged": sum(rec["nonconverged"] for rec in records),
            "fits": spec.n_reps * spec.k,
            "bic_at_grid_end": sum(rec["bic_at_grid_end"] for rec in records),
            "mean_df_over_T": float(np.mean(df)) / spec.T if df else None,
        }
        n_failed = sum(not rec["feasible"] for rec in records)
        if n_failed:
            rows[tag] = McRow(tag, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, True, n_failed)
            continue
        unc, inc, share, nsel, sq_err, sq_fe = (float(np.mean(v)) for v in zip(*(rec["metrics"] for rec in records)))
        rows[tag] = McRow(tag, unc, inc, share, nsel, math.sqrt(sq_err), math.sqrt(sq_fe / spec.k), False, 0)
    return McReport(
        spec=spec,
        rows=rows,
        seeds=tuple(spec.base_seed + r for r in reps),
        solver=solver,
        runtime_seconds=time.perf_counter() - start,
    )


def report_to_csv(report: McReport, path: str) -> None:
    """One row per estimator, columns = the six metrics plus feasibility."""
    rows = ([getattr(report.rows[tag], name) for name in COLUMNS] for tag in report.spec.estimators)
    var.write_csv(path, COLUMNS, rows)


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
        "seeds": report.seeds,
        "estimators": {
            tag: {name: getattr(report.rows[tag], name) for name in COLUMNS[1:]} for tag in spec.estimators
        },
        "solver": report.solver,
    }
    var.write_json(path, payload)
