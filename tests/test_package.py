"""Package-level checks: every name a module exports exists, and the program uses it."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import hdvar

MODULES = ["hdvar", *(f"hdvar.{info.name}" for info in pkgutil.iter_modules(hdvar.__path__))]

# exported for the test suite only: reference implementations the solver tests check against
TEST_REFERENCES = {"hdvar.solver": {"objective", "kkt_check"}}


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


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["hdvar.theory", "hdvar.estimators", "hdvar.solver"])
def test_every_export_is_used_by_the_program(name):
    module = importlib.import_module(name)
    used = _program_references() | TEST_REFERENCES.get(name, set())
    assert [n for n in module.__all__ if n not in used] == []
