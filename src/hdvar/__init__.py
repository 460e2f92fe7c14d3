"""High-dimensional stationary VARs with LASSO-family estimators.

Submodules: linalg (dense kernels), var (models and simulation), solver
(coordinate descent), estimators (per-equation pipelines), theory
(finite-sample diagnostics), mc (Monte Carlo harness), cli (command line).
"""

from .estimators import SparsityInfo, SystemFit, fit_system
from .mc import ExperimentSpec, make_dgp, run_experiment
from .var import Dataset, VarModel, simulate, stack

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExperimentSpec",
    "SparsityInfo",
    "SystemFit",
    "VarModel",
    "fit_system",
    "make_dgp",
    "run_experiment",
    "simulate",
    "stack",
    "__version__",
]
