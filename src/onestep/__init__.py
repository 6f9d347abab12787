"""One-step weighted M-estimation for nonlinear regression.

The package turns a cheap explicit preliminary estimate into an
asymptotically efficient one by a single Newton update of a weighted
estimating equation, provides self-normalized confidence intervals that
need no variance plug-in, and ships a bit-reproducible simulation harness
plus a CSV command-line front end.

Importing the package imports none of its modules, nor numpy: each public
name is imported from its module on first access (PEP 562), so
``from onestep import run`` and ``from onestep import *`` work as usual.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "core": (
        "FULL_LINE",
        "Interval",
        "Sample",
        "EstimatingFamily",
        "WeightFamily",
        "MomentProvider",
        "score_sums",
        "asymptotic_moments",
    ),
    "errors": (
        "EstimationError",
        "DomainError",
        "NonFiniteError",
        "DegenerateError",
        "DegenerateDenominatorError",
        "MissingDerivativeError",
        "ZeroVarianceError",
        "SignMismatchError",
        "NoConvergenceError",
        "ConstraintError",
        "EmptyInputError",
        "DivisionByZeroError",
        "ConfigError",
    ),
    "estimators": (
        "EstimateResult",
        "one_step",
        "one_step_weighted",
        "one_step_factorized",
        "studentize",
        "studentize_unweighted",
        "optimal_weights",
        "efficiency_ratio",
        "newton_solve",
        "unit_weights",
    ),
    "regression": (
        "RegressionModel",
        "Contrasts",
        "linear_model",
        "sqrt_model",
        "plinear_model",
        "mm_model",
        "to_families",
        "generalized_families",
        "moment_provider",
        "weighted_one_step",
        "lse_one_step",
        "asymptotic_variance",
        "default_contrasts",
        "preliminary_sqrt",
        "preliminary_plinear",
        "plinear_one_step",
        "preliminary_mm",
        "mm_one_step",
        "mm_closed_form",
    ),
    "montecarlo": (
        "SimConfig",
        "SimulationRecord",
        "SimSummary",
        "run",
        "ks_statistic",
    ),
    "normal": (
        "normal_cdf",
        "normal_quantile",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:  # a module, as onestep.montecarlo after a plain import onestep
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
