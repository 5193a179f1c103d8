"""What the package loads, and the names it imports on first call.

Importing the package loads no SciPy. The onset, the weakly nonlinear map,
the orbits, the periodic profiles and the free-energy density run on numpy
alone. Each SciPy routine the package calls is bound to a name that
imports it at its first call (stericpnp._deferred): LAPACK's band and
tridiagonal solvers and its symmetric band eigensolver, which load
scipy.linalg at the first step of evolve, the first Newton solve or the
first stability index; solve_ivp, which loads scipy.integrate; and
splu, which nothing calls.
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
from stericpnp import continuation, dynamics, trajectories


def _run_fresh(script: str):
    """Run script in a fresh interpreter that imports this package; return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(Path(stericpnp.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_analysis_layer_loads_no_scipy_module():
    loaded = _run_fresh(
        """
        import json, sys

        import stericpnp.cli
        from stericpnp import make_params
        from stericpnp.energy import free_energy_density
        from stericpnp.stability import find_onset
        from stericpnp.trajectories import build_periodic, classify_trajectory, compute_trajectory
        from stericpnp.weakly_nonlinear import amplitude_coefficients, criticality_map

        p = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
        onset = find_onset(p)
        amplitude_coefficients(onset, p)
        criticality_map([0.0, 0.4], [2.2, 3.8], g_sum=4.0, cbar=1.0)
        classify_trajectory(compute_trajectory(make_params(1, -1, 2.25, 0.75, 2.5, 1.0, 1.0), 0.6, 1.4))
        build_periodic(p, 0.3)
        free_energy_density([0.0, 1.0], [2.0, 0.5], p)

        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
        """
    )
    assert loaded == []


# (set-up, first solve) of each solver, run in a fresh interpreter
_SOLVES = {
    "evolve": (
        """
        from stericpnp import homogeneous_profile, make_params, make_periodic_grid
        from stericpnp.dynamics import add_noise, evolve, periodic_bc

        p = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0, sigma=0.02)
        grid = make_periodic_grid(2.0, 32)
        state = add_noise(homogeneous_profile(grid, p), 1e-3, 1)
        """,
        "evolve(p, state, periodic_bc(), 1.0)",
    ),
    "newton_solve": (
        """
        from stericpnp import DomainSpec, homogeneous_profile, make_grid, make_params
        from stericpnp.continuation import newton_solve
        from stericpnp.dynamics import add_noise, electrode_bc

        p = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0, sigma=0.02)
        grid = make_grid(DomainSpec(2.0), 48)
        state = add_noise(homogeneous_profile(grid, p), 1e-3, 1)
        """,
        'newton_solve(state, p, grid, electrode_bc(), "sigma", 0.02)',
    ),
}
_SCIPY_LOADED = 'sorted(m for m in sys.modules if m.startswith("scipy"))'


def test_evolve_and_newton_load_scipy_linalg_at_their_first_solve():
    # what scipy.linalg itself loads: older SciPy pulls more in through it
    linalg = _run_fresh(f"import json, sys, scipy.linalg\nprint(json.dumps({_SCIPY_LOADED}))")
    for name, (setup, solve) in _SOLVES.items():
        before, after = _run_fresh(
            "import json, sys\nimport stericpnp.cli\n"
            + textwrap.dedent(setup)
            + f"before = {_SCIPY_LOADED}\n{solve}\nafter = {_SCIPY_LOADED}\n"
            + "print(json.dumps([before, after]))\n"
        )
        assert before == [], name
        assert after == linalg, name


def test_first_call_of_each_deferred_name_returns_what_scipy_returns():
    same = _run_fresh(
        """
        import json
        import numpy as np
        from scipy.sparse import csc_matrix
        from stericpnp import _fd, continuation, dynamics, trajectories

        def rhs(t, y):
            return -y

        # a symmetric positive definite tridiagonal system and a 5 x 5 band
        # with one sub- and one superdiagonal, in LAPACK's band storage,
        # whose first row is workspace for dgbtrf and dgbsv
        d, e, b = np.array([4.0, 5.0, 6.0]), np.array([1.0, -2.0]), np.array([1.0, 2.0, 3.0])
        ab = np.array([
            [0.0, 1.0, -0.5, 2.0, 0.25],
            [4.0, 5.0, 6.0, 7.0, 8.0],
            [1.5, -1.0, 0.5, 3.0, 0.0],
        ])
        rhs_band = np.array([1.0, -2.0, 3.0, 0.5, 4.0])
        lu_in = np.vstack([np.zeros((1, 5)), ab])
        A = csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))

        def lapack(trf, trs, gbtrf, gbtrs, gbsv):
            df, ef, _ = trf(d, e)
            lu, piv, _ = gbtrf(lu_in.copy(), 1, 1)
            lu_sv, piv_sv, x_sv, _ = gbsv(1, 1, lu_in.copy(), rhs_band.copy())
            return {
                "dpttrf": np.concatenate([df, ef]),
                "dpttrs": trs(df, ef, b.copy())[0],
                "dgbtrf": np.concatenate([lu.ravel(), piv]),
                "dgbtrs": gbtrs(lu, 1, 1, rhs_band.copy(), piv)[0],
                "dgbsv": np.concatenate([lu_sv.ravel(), piv_sv, x_sv]),
            }

        ours = lapack(_fd.dpttrf, _fd.dpttrs, dynamics.dgbtrf, dynamics.solve_banded,
                      continuation.solve_banded)
        # the two lowest eigenvalues of a symmetric tridiagonal, lower band storage
        sym = np.array([[4.0, -1.0, 2.0, 5.0], [1.0, 0.5, -3.0, 0.0]])

        def lowest(sbevx):
            w, _, found, _, _ = sbevx(sym, 0.0, 0.0, 1, 2, compute_v=0, range=2, lower=1,
                                      overwrite_ab=0)
            return w[:found]

        ours["dsbevx"] = lowest(continuation.dsbevx)
        ours["solve_ivp"] = trajectories.solve_ivp(rhs, (0.0, 1.0), [1.0, 2.0], rtol=1e-9)
        ours["splu"] = dynamics.splu(A).solve(np.array([1.0, 2.0]))

        from scipy.integrate import solve_ivp
        from scipy.linalg.lapack import dgbsv, dgbtrf, dgbtrs, dpttrf, dpttrs, dsbevx
        from scipy.sparse.linalg import splu

        ref = lapack(dpttrf, dpttrs, dgbtrf, dgbtrs, dgbsv)
        ref["dsbevx"] = lowest(dsbevx)
        same = {name: bool(np.array_equal(ours[name], ref[name])) for name in ref}
        ivp = solve_ivp(rhs, (0.0, 1.0), [1.0, 2.0], rtol=1e-9)
        same["solve_ivp"] = bool(
            np.array_equal(ours["solve_ivp"].t, ivp.t)
            and np.array_equal(ours["solve_ivp"].y, ivp.y)
            and ours["solve_ivp"].nfev == ivp.nfev
        )
        same["splu"] = bool(np.array_equal(ours["splu"], splu(A).solve(np.array([1.0, 2.0]))))
        print(json.dumps(same))
        """
    )
    names = ("dpttrf", "dpttrs", "dgbtrf", "dgbtrs", "dgbsv", "dsbevx", "solve_ivp", "splu")
    assert same == dict.fromkeys(names, True)


@pytest.mark.parametrize(
    "name",
    [
        "trajectories.solve_ivp",
        "dynamics.splu",
        "dynamics.solve_banded",
        "continuation.solve_banded",
        "continuation.dsbevx",
    ],
)
def test_deferred_names_are_not_plain_functions(name):
    # perfbench's tracer wraps the package's own functions by type and these
    # by name; a plain function here would be wrapped twice
    module, attr = name.split(".")
    modules = {"trajectories": trajectories, "dynamics": dynamics, "continuation": continuation}
    obj = getattr(modules[module], attr)
    assert callable(obj)
    assert not isinstance(obj, types.FunctionType)
