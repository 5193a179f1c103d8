"""What the package loads, and the names it imports on first call.

The time stepper, Newton and the onset need only numpy and scipy.linalg.
SciPy's optimisers, integrators, special functions and sparse solvers are
bound to names that import them on their first call (stericpnp._deferred),
so commands that never reach the phase plane never load them.
"""

import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import stericpnp
from stericpnp import dynamics, trajectories

DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.special", "scipy.sparse.linalg")


def _run_fresh(script: str):
    """Run script in a fresh interpreter that imports this package; return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(Path(stericpnp.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_evolve_newton_and_onset_load_no_deferred_scipy_module():
    # the baseline is what scipy.linalg itself loads in the same interpreter:
    # older SciPy pulls more in through it
    loaded = _run_fresh(
        f"""
        import json, sys
        import scipy.linalg
        baseline = set(sys.modules)

        import stericpnp.cli
        from stericpnp import DomainSpec, homogeneous_profile, make_grid, make_params
        from stericpnp import make_periodic_grid
        from stericpnp.continuation import newton_solve
        from stericpnp.dynamics import add_noise, electrode_bc, evolve, periodic_bc
        from stericpnp.stability import find_onset

        p = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0, sigma=0.02)
        grid = make_periodic_grid(2.0, 32)
        evolve(p, add_noise(homogeneous_profile(grid, p), 1e-3, 1), periodic_bc(), 1.0)
        grid = make_grid(DomainSpec(2.0), 48)
        newton_solve(homogeneous_profile(grid, p), p, grid, electrode_bc(), "sigma", 0.02)
        find_onset(p)

        deferred = {DEFERRED!r}
        print(json.dumps(sorted(
            m for m in set(sys.modules) - baseline
            if any(m == d or m.startswith(d + ".") for d in deferred)
        )))
        """
    )
    assert loaded == []


def test_first_call_of_each_deferred_name_returns_what_scipy_returns():
    same = _run_fresh(
        """
        import json, sys
        import numpy as np
        from scipy.sparse import csc_matrix
        from stericpnp import dynamics, energy, trajectories

        def cubic(x):
            return x**3 - 2.0

        def rhs(t, y):
            return -y

        c = np.array([0.0, 0.5, 2.0])
        A = csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        ours = {
            "solve_ivp": trajectories.solve_ivp(rhs, (0.0, 1.0), [1.0, 2.0], rtol=1e-9),
            "brentq": trajectories.brentq(cubic, 0.0, 2.0),
            "wrightomega": trajectories.wrightomega(c),
            "xlogy": energy.xlogy(c, c + 1.0),
            "splu": dynamics.splu(A).solve(np.array([1.0, 2.0])),
        }

        from scipy.integrate import solve_ivp
        from scipy.optimize import brentq
        from scipy.sparse.linalg import splu
        from scipy.special import wrightomega, xlogy

        ref = solve_ivp(rhs, (0.0, 1.0), [1.0, 2.0], rtol=1e-9)
        same = {
            "solve_ivp": bool(
                np.array_equal(ours["solve_ivp"].t, ref.t)
                and np.array_equal(ours["solve_ivp"].y, ref.y)
                and ours["solve_ivp"].nfev == ref.nfev
            ),
            "brentq": ours["brentq"] == brentq(cubic, 0.0, 2.0),
            "wrightomega": bool(np.array_equal(ours["wrightomega"], wrightomega(c))),
            "xlogy": bool(np.array_equal(ours["xlogy"], xlogy(c, c + 1.0))),
            "splu": bool(np.array_equal(
                ours["splu"], splu(A).solve(np.array([1.0, 2.0]))
            )),
        }
        print(json.dumps(same))
        """
    )
    assert same == dict.fromkeys(("solve_ivp", "brentq", "wrightomega", "xlogy", "splu"), True)


@pytest.mark.parametrize("name", ["trajectories.solve_ivp", "dynamics.splu"])
def test_deferred_names_are_not_plain_functions(name):
    # perfbench's tracer wraps the package's own functions by type and these
    # two by name; a plain function here would be wrapped twice
    module, attr = name.split(".")
    obj = getattr({"trajectories": trajectories, "dynamics": dynamics}[module], attr)
    assert callable(obj)
    assert not isinstance(obj, types.FunctionType)

