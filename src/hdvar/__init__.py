"""High-dimensional stationary VARs with LASSO-family estimators.

Submodules: linalg (dense kernels), var (models and simulation), solver
(coordinate descent, the homotopy continuation and closed-form ridge),
estimators (per-equation pipelines, all tags of a dataset through one
FitPlan), theory (finite-sample diagnostics), mc (Monte Carlo harness: each
replication reduced to its metric values, a report their means), cli (command
line).
"""

from .estimators import FitPlan, SparsityInfo, SystemFit
from .mc import ExperimentSpec, make_dgp, run_experiment
from .var import Dataset, VarModel, simulate, stack

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExperimentSpec",
    "FitPlan",
    "SparsityInfo",
    "SystemFit",
    "VarModel",
    "make_dgp",
    "run_experiment",
    "simulate",
    "stack",
    "__version__",
]
