"""Package exports that load on first use (PEP 562).

A package ``__init__`` names each public name once, beside the module
that defines it; nothing is imported until a name is asked for, so a
process pays for what it runs — ``repro serve`` never loads the
simulator, the simulator never loads the daemon::

    __all__, __getattr__, __dir__ = exports(__name__, {
        ".config": ["FobsConfig"],
        ".session": ["FobsTransfer", "TransferStats", "run_fobs_transfer"],
    })

``from pkg import Name``, ``pkg.Name`` and ``dir(pkg)`` behave as
eager imports did; the first lookup imports the defining module and
caches the value in the package.  A subpackage or module the table does
not name (``repro.simnet`` on ``repro``) is imported when it is looked
up, as an eager ``__init__`` would have left it bound.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, table: dict) -> tuple:
    """``(__all__, __getattr__, __dir__)`` for ``package``, from
    ``table``: defining module (relative to ``package``) -> its names."""
    owner = {name: module for module, names in table.items()
             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = owner.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list:
        return sorted(set(namespace) | set(owner))

    return list(owner), __getattr__, __dir__
