"""High-dimensional stationary VARs with LASSO-family estimators.

Submodules: linalg (dense kernels), var (models and simulation), solver
(coordinate descent, the homotopy continuation and closed-form ridge),
estimators (per-equation pipelines), theory (finite-sample diagnostics), mc
(Monte Carlo harness), cli (command line).
"""

from .estimators import FitPlan, SparsityInfo, SystemFit, fit_menu
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
    "fit_menu",
    "make_dgp",
    "run_experiment",
    "simulate",
    "stack",
    "__version__",
]
