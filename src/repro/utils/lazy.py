"""Package surfaces resolved on first use (PEP 562).

A package ``__init__`` lists what it exports as a name table, one entry per
submodule, and takes its module ``__getattr__``, ``__dir__`` and
``__all__`` from :func:`lazy_exports`::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "config": ("GPUOptions", "RTMConfig"),
        "rtm": ("run_rtm", "estimate_rtm"),
    })

``from repro.core import run_rtm`` then imports ``repro.core.rtm`` (and
what it imports), not every module of the package, so a run pays the
import cost of the code it uses only.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package`` from ``table``,
    which maps a submodule (relative to ``package``) to the names it
    exports.  Names listed under the empty key are submodules exported as
    themselves.

    A name that is also its own submodule's name (``repro.acc.minfo``) is
    bound now: the first import of that submodule rebinds the package
    attribute to the module, so a name resolved later would lose to it.
    """
    where = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def resolve(name: str):
        module = where[name]
        if not module:
            return importlib.import_module(f"{package}.{name}")
        return getattr(importlib.import_module(f"{package}.{module}"), name)

    for name, module in where.items():
        if name == module:
            namespace[name] = resolve(name)

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value = resolve(name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__, list(where)
