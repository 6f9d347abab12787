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

# Each module imports only modules listed before it, so a name is found
# after loading just the modules it needs.
_MODULES = ("errors", "normal", "core", "estimators", "regression", "montecarlo")


def __getattr__(name: str):
    """A submodule by name, or the first module's value for a name in its ``__all__``.

    ``__all__`` itself is ``__version__`` followed by every module's
    ``__all__``, without repeats.  A name that no module lists raises
    AttributeError, by which time all six modules have been imported.
    """
    if name in _MODULES or name == "cli":  # as onestep.montecarlo after a plain import onestep
        return importlib.import_module(f".{name}", __name__)
    modules = (importlib.import_module(f".{module}", __name__) for module in _MODULES)
    if name == "__all__":
        return list(dict.fromkeys(["__version__", *(n for m in modules for n in m.__all__)]))
    for module in modules:  # imported one by one, up to the first that lists the name
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)  # later reads skip this hook
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
