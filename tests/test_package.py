"""Tests for the package's lazy names: each module's ``__all__`` is the one list."""

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
