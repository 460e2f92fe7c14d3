"""Package-level checks: every name a module exports exists and the program uses it,
the settings every report shares are module constants, not parameters, and the
library's checks of run values raise ConfigError."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import hdvar
from hdvar import estimators, mc, solver, theory, var
from hdvar.errors import ConfigError

MODULES = ["hdvar", *(f"hdvar.{info.name}" for info in pkgutil.iter_modules(hdvar.__path__))]


def _program_references() -> set:
    """Every name the package's own source loads, as a bare name or an attribute;
    definitions, imports and ``__all__`` strings are not loads."""
    names = set()
    for path in pathlib.Path(hdvar.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _exports(module) -> list:
    """``__all__``, or, for a module without one, the public functions and classes it defines."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    defined = vars(module).items()
    return [n for n, v in defined if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_export_is_used_by_the_program(name):
    module = importlib.import_module(name)
    assert [n for n in _exports(module) if n not in _program_references()] == []


@pytest.mark.parametrize(
    "name, parameters",
    [
        ("hdvar.solver.lasso_path", ["problem", "i", "weights", "lam"]),
        ("hdvar.var.population_gamma", ["model"]),
        ("hdvar.theory.restricted_eigenvalue", ["psi", "r"]),
    ],
)
def test_signatures_take_no_test_only_settings(name, parameters):
    # the tolerance, sweep budget and seed are module constants (KKT_TOL,
    # MAX_SWEEPS, RE_SEED): every report uses one value of each
    module, function = name.rsplit(".", 1)
    assert list(inspect.signature(getattr(importlib.import_module(module), function)).parameters) == parameters


def _dataset():
    return var.simulate(mc.make_dgp("A", 10)[0], 30, seed=0)


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: mc.make_dgp("B", 100), "experiment 'B' with k=100 is not in the design"),
        (lambda: mc.ExperimentSpec("A", 10, 0), "T must be at least one"),
        (lambda: theory.TheoryParams(q=1), "q must lie strictly between 0 and 1"),
        (lambda: solver.lasso_path(var.stack(_dataset()), 0, lam=-1), "lambda must be finite and nonnegative"),
        (lambda: estimators.FitPlan(_dataset()).equation("full_ols", 0, lam=0.1), "a fixed lambda does not apply"),
        (lambda: var.simulate(mc.make_dgp("A", 10)[0], 0), "T must be at least one"),
        (lambda: var.simulate(mc.make_dgp("A", 10)[0], -3), "T must be at least one"),
        (lambda: var.simulate(mc.make_dgp("A", 10)[0], 5, burn_in=-1), "burn-in must be nonnegative"),
        (lambda: theory.diagnose(*mc.make_dgp("A", 10), [], theory.TheoryParams()), "need at least one replication"),
        (lambda: mc.ExperimentSpec("A", 10, 30, estimators=()), "no estimators requested"),
        (lambda: mc.ExperimentSpec("A", 10, 30, estimators=("lasso", "lasso")), "estimator tags repeat in 'lasso,lasso'"),
        (lambda: estimators.FitPlan(_dataset()).equation("ols", 0), "unknown estimator tag 'ols'"),
    ],
    ids=[
        "make_dgp",
        "ExperimentSpec",
        "TheoryParams",
        "lasso_path",
        "FitPlan.equation",
        "simulate T zero",
        "simulate T negative",
        "simulate burn-in negative",
        "diagnose no datasets",
        "ExperimentSpec no tags",
        "ExperimentSpec repeated tags",
        "FitPlan.equation unknown tag",
    ],
)
def test_run_value_checks_raise_config_error(check, message):
    # the CLI maps ConfigError to exit 2; library callers can catch it as a ValueError
    with pytest.raises(ConfigError, match=message) as info:
        check()
    assert isinstance(info.value, ValueError)
