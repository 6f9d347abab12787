"""Tests for the package's structure: each module's ``__all__`` is the one list of lazy names,
only core reduces over observations, and only RegressionModel.values reads a model."""

import ast
import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import onestep
from onestep import errors

PACKAGE = Path(onestep.__file__).parent


def test_each_module_imports_only_modules_listed_before_it():
    for i, name in enumerate(onestep._MODULES):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        imported = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
        }
        assert imported <= set(onestep._MODULES[:i]), name
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__", "cli"}
    assert modules == set(onestep._MODULES)


def test_every_name_in_a_module_all_is_the_package_name():
    for name in onestep._MODULES:
        module = importlib.import_module(f"onestep.{name}")
        for public in module.__all__:
            assert getattr(onestep, public) is getattr(module, public), (name, public)
            assert public in onestep.__all__
    assert len(onestep.__all__) == len(set(onestep.__all__))
    assert set(onestep.__all__) <= set(dir(onestep))


def test_a_name_loads_only_the_modules_up_to_the_one_that_lists_it():
    code = textwrap.dedent("""
        import sys
        import onestep
        onestep.EstimationError
        print(sorted(m for m in sys.modules if m.startswith("onestep.")))
        onestep.normal_cdf
        print("numpy" in sys.modules)
    """)
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "['onestep.errors']\nFalse\n"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        onestep.no_such_name
    assert not hasattr(onestep, "asymptotic_variance")


def test_errors_all_lists_every_error_class_it_defines():
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.EstimationError)
    }
    assert set(errors.__all__) == defined
    assert len(errors.__all__) == len(defined)


def test_only_core_reduces_over_observations():
    # every reduction over observations goes through core.exact_sum, so no
    # other module calls (or imports) a numpy or math reduction; the builtin
    # sum over integers stays allowed
    reductions = {"fsum", "sum", "mean", "einsum", "dot"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in reductions, (path.name, node.lineno)
            if isinstance(node, ast.ImportFrom):
                assert not reductions & {alias.name for alias in node.names}, (path.name, node.lineno)


def _fetched_name(node: ast.expr) -> str:
    """The attribute name a getattr argument spells: a string, or an f-string's last literal part."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[-1]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def test_only_model_values_reads_a_model_evaluator():
    # RegressionModel.values is the one reader of a model: no other code
    # calls, passes on or fetches with getattr f_values, f_prime_values,
    # f_second_values, w_values or w_prime_values; testing one against None
    # (whether the model carries it) stays allowed
    evaluators = {"f_values", "f_prime_values", "f_second_values", "w_values", "w_prime_values"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "RegressionModel":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "values":
                        allowed.update(map(id, ast.walk(item)))
            if (
                isinstance(node, ast.Compare)
                and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and all(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)
            ):
                allowed.add(id(node.left))
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Attribute):
                assert node.attr not in evaluators, (path.name, node.lineno)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
                assert not (
                    len(node.args) > 1 and _fetched_name(node.args[1]).endswith("_values")
                ), (path.name, node.lineno)
