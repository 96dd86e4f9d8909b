"""Package re-exports that load their submodule on first use (PEP 562).

A package that re-exports names from every submodule makes importing any
one submodule load all its siblings.  :func:`lazy_exports` instead gives a
package a module ``__getattr__`` that imports a name's submodule the first
time the name is read, and keeps the value in the package namespace, so
``from repro.analysis import pelt`` loads :mod:`repro.analysis.changepoint`
alone.
"""

import importlib

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, exports: dict) -> tuple:
    """``(__getattr__, __dir__)`` for the package whose globals are ``namespace``.

    ``exports`` maps each submodule name to the public names it defines.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__
