"""Library functions that are imported on their first call.

SciPy's optimisers, integrators and special functions cost about a third of
a second and 20 MB to import. Only the sigma = 0 phase-plane layer and two
entropy diagnostics call them, so a module binds each such function to a
``Deferred`` under the name it calls it by. The first call imports the
function; every call passes its arguments straight through and returns
what the function returns.

A ``Deferred`` is an instance, not a plain function, so that a tracer that
wraps a module's own functions by type leaves it alone and can wrap it by
name instead.
"""

from __future__ import annotations

import importlib


class Deferred:
    """Stands for ``module.name`` and imports it on the first call."""

    __slots__ = ("_module", "_name", "_fn")

    def __init__(self, module: str, name: str):
        self._module = module
        self._name = name
        self._fn = None

    def __call__(self, *args, **kwargs):
        if self._fn is None:
            self._fn = getattr(importlib.import_module(self._module), self._name)
        return self._fn(*args, **kwargs)
