"""Lazy package exports (PEP 562).

A package whose eager imports would reach the compiler or the experiment
drivers maps each exported name to its defining module instead, and
imports that module on first access.  ``import repro`` then costs the
package's own ``__init__`` and nothing it does not use.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` over ``{module: names}``.

    A resolved name is bound on the package, so each one is looked up
    once.  Names outside the map fall back to the package's submodules,
    as attribute access on an eagerly imported package would.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
