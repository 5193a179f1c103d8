"""Library functions that are imported on their first call.

The package imports only NumPy when it is loaded. Its SciPy routines are
LAPACK's band and tridiagonal solvers (scipy.linalg, about 0.2 s and 28 MB
to import), which the time stepper, Newton and the Dirichlet Poisson solve
call, its symmetric band eigensolver, which the stability index calls, and
solve_ivp (scipy.integrate), which the field integrations call.
The onset, the weakly nonlinear map, the orbits, the periodic profiles and
the free-energy density need none of them. So a module binds each such routine to a
``Deferred`` under the name it calls it by. The first call imports the
routine; every call passes its arguments straight through and returns
what the routine returns.

A ``Deferred`` is an instance, not a plain function, so that a tracer that
wraps a module's own functions by type leaves it alone and can wrap it by
name instead.
"""

from __future__ import annotations

import functools
import importlib


class Deferred(functools.partial):
    """Stands for ``module.name`` and imports it on the first call.

    A partial with no bound arguments whose target starts as a loader: the
    first call imports ``module.name`` and makes it the target, through
    the partial's own ``__setstate__``. Every later call then goes through
    the partial's C call straight to the function, with no Python frame in
    between; the band solves of a time step make several such calls.
    """

    def __new__(cls, module: str, name: str):
        def load(*args, **kwargs):
            fn = getattr(importlib.import_module(module), name)
            self.__setstate__((fn, (), {}, None))
            return fn(*args, **kwargs)

        self = super().__new__(cls, load)
        return self
