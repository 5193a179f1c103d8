"""Dissipative time integration of the ion transport system.

The model, with F = (c mu_x)_x, the discrete energy and the exact
Jacobian J of F, is _fd's, and its public names are importable here too;
this module steps it in time.

Time stepping is linearly implicit (one linear solve per step; the
W-method form of the Rosenbrock-Euler step, Steihaug & Wolfbrandt, Math.
Comp. 33, 1979; Hairer & Wanner, Solving ODEs II, IV.7):

    (I - dt J) dc = dt F(c_n),

where J is the exact Jacobian of F, with the potential frozen, at the
state of the last refresh. J is refreshed at the current state, and
I - dt J factored anew, only when dt changes: on the first attempt,
after each accepted step below dt_max, on each halving after a rejected
attempt and on the shortened last step to t_end. A step that repeats
dt_max reuses the factors and evaluates F alone. The lag moves only the
time-discretization error: a stationary state is still a fixed point
(F = 0 gives dc = 0), and the steady test still reads the exact F.
Freezing phi keeps J banded (bandwidth 4 in the interleaved species
ordering), and its nine diagonals are written out from the face data of
the F evaluation at the refreshed state and from d mu / d c, walls
included (_fd._dmu_dc), which the stationary solver's Jacobian reads too.
Every column of J sums to zero against the quadrature weights, so the
linear step conserves mass to roundoff, as F does, whatever state J was
taken at. The long-range coupling through the Poisson solve is explicit,
which is harmless for stability since it is a compact perturbation, not
a stiff term.

A step controller enforces the physics the scheme is meant to have: a
candidate step is rejected, and dt halved, whenever a concentration
leaves the positive cone or the discrete energy increases by more
than 1e-10. Because the monitored energy is the exact Lyapunov
functional of the semi-discrete system, and every retry refreshes J at
the current state, a rejected step always succeeds after enough
halvings (the semi-discrete slope is -sum_f c_f |dmu|^2/dx <= 0, so the
energy rise is pure time-integration error, O(dt^2)). The first attempt
takes dt0, capped at dt_max; after every accepted step dt becomes 1.3
times its size, up to dt_max. A step still rejected after twenty
halvings abandons the run with verdict "Unstable"; reaching the steady
tolerance on max |c_t| gives "Steady"; running out the horizon gives
"Running".

Work that does not change from step to step is done once: the grid's dx
and quadrature weights once per grid, the per-node columns that F and
the band need (w, the 1/w of the band rows and the Laplacian's wall
columns, each repeated for both species) once per grid
(_fd._node_columns), the Dirichlet Poisson factor once per interior size
(_fd.solve_poisson_dirichlet), the periodic band's folded layout once
per size (_folded_layout), the parameter arrays z, cbar and G once per
ModelParams, and the band and its LU factors once per refresh
(_fd._band, _factor_step). Finiteness is checked once per band, where
_fd._band returns J; the factorisation writes -dt J
straight into LAPACK's band storage and calls dgbtrf with no check or
copy of its own, and each attempt solves on those factors with one
dgbtrs call (_solve_factored).

At the sizes evolve runs (tens to hundreds of nodes) a step costs mostly
numpy's overhead per call, not arithmetic, so each state is evaluated
once, nodes first in u's interleaved (n, 2) layout, where a shift by
whole nodes is a contiguous slice. Each attempt makes, in order: one
dgbtrs solve through the module attribute solve_banded (periodic runs
fold their circular band into an ordinary one), the positivity and
finiteness test, one Poisson solve on the candidate's charge density
(_fd._potential), and one _fd._mu_and_energy call, which takes log c, G c
and the face differences of c once and returns mu and the discrete
energy together. The energy test then accepts or rejects the attempt. An
accepted step evaluates F once, by _fd._flux_divergence from that mu, and
that F, with its face data c_face and dmu, is both the steady test's
max |c_t| and the next step's right-hand side and band input; a rejected
attempt evaluates no F. The energy is read without a sign check (a
negative concentration leaves it NaN, and only then is the sign looked
at). The dgbtrf factorisations, one per refresh, are called under their
own name and counted in EvolveResult.factorizations. Both LAPACK routines
are _deferred names: scipy.linalg is imported at the first factorisation,
not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from ._deferred import Deferred
from ._fd import (
    BoundaryConditions,
    _band,
    _charge,
    _check_grid,
    _flux_divergence,
    _mu_and_energy,
    _potential,
    chemical_potential,
    discrete_energy,
    electrode_bc,
    periodic_bc,
    solve_potential,
    time_derivatives,
    trapz,
)
from .errors import ParameterError
from .model import ModelParams, Profile

# LAPACK's band LU, imported at the first step (_deferred); dgbtrs goes under
# the name at which perfbench's tracer counts step solves
dgbtrf = Deferred("scipy.linalg.lapack", "dgbtrf")
solve_banded = Deferred("scipy.linalg.lapack", "dgbtrs")

# Never called: perfbench's tracer wraps dynamics.splu by name. As a
# Deferred (imported on first call) it keeps scipy.sparse.linalg unloaded.
splu = Deferred("scipy.sparse.linalg", "splu")

__all__ = [
    "BoundaryConditions",
    "electrode_bc",
    "periodic_bc",
    "solve_potential",
    "chemical_potential",
    "time_derivatives",
    "discrete_energy",
    "add_noise",
    "EvolveResult",
    "evolve",
]

# step controller: the energy may rise by at most _ENERGY_TOL per step, no
# concentration may fall to _POSITIVITY_FLOOR, and a step still rejected
# after _MAX_HALVINGS halvings abandons the run
_ENERGY_TOL = 1e-10
_POSITIVITY_FLOOR = 1e-12
_MAX_HALVINGS = 20


def add_noise(profile: Profile, amplitude: float, seed: int) -> Profile:
    """Add seeded Gaussian noise of the given amplitude to c1, then c2.

    Each draw is shifted to zero mean in the grid's trapezoid quadrature,
    so the masses that evolve conserves stay at their values. Modifies
    profile in place and returns it.
    """
    grid = profile.grid
    rng = np.random.default_rng(seed)
    for arr in (profile.c1, profile.c2):
        delta = amplitude * rng.standard_normal(arr.size)
        delta -= trapz(delta, grid) / (2.0 * grid.L)
        arr += delta
    return profile


@lru_cache(maxsize=16)
def _folded_layout(size: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The circular band as an ordinary band: (fold, unfold, dest).

    In the folded order 0, N - 1, 1, N - 2, ... of the N unknowns the
    circular band of half-width b (4 for _fd._band) is an ordinary band
    of half-width kl = 2 b (N >= 4 b, so it never overlaps itself).
    fold[p] is the unknown at position p and unfold its inverse; dest maps
    the raveled circular storage (2 b + 1, N) of _fd._band onto the
    raveled (N, 3 kl + 1) array whose transpose is dgbtrf's storage for
    kl = ku = 2 b.
    """
    kl = 2 * b
    fold = np.empty(size, dtype=np.intp)
    fold[0::2] = np.arange((size + 1) // 2)
    fold[1::2] = size - 1 - np.arange(size // 2)
    unfold = np.argsort(fold)
    # band row r of column k holds J[(k - b + r) mod N, k], which the fold
    # puts at row rows[r, k] of column unfold[k]
    rows = unfold[(np.arange(size) - np.arange(b, -b - 1, -1)[:, None]) % size]
    dest = (3 * kl + 1) * unfold + 2 * kl + rows - unfold
    for x in (fold, unfold, dest):
        x.setflags(write=False)
    return fold, unfold, dest.ravel()


class _StepFactors(NamedTuple):
    """LAPACK's LU factors of I - dt J in band storage, with the dt they
    were made for."""

    lu: np.ndarray
    piv: np.ndarray
    dt: float
    periodic: bool


def _factor_step(jac: np.ndarray, dt: float, periodic: bool) -> _StepFactors:
    """Factor I - dt J in one LAPACK dgbtrf call.

    J is in _fd._band's storage. -dt J goes straight into dgbtrf's
    column-major storage, the transpose of a (N, 3 kl + 1) array holding
    A[i, j] at [j, 2 kl + i - j]; its first kl rows are dgbtrf's workspace
    and need no zeroing. Electrode bands go in as they are (kl = 4, J's
    half-width); periodic bands are folded (kl = 8, _folded_layout).
    Raises LinAlgError when I - dt J is singular.
    """
    b = (jac.shape[0] - 1) // 2
    size = jac.shape[1]
    if periodic:
        kl = 2 * b
        store = np.zeros((size, 3 * kl + 1))
        store.reshape(-1)[_folded_layout(size, b)[2]] = -dt * jac.ravel()
    else:
        kl = b
        store = np.empty((size, 3 * kl + 1))
        np.multiply(jac.T, -dt, out=store[:, kl:])
    ab = store.T
    ab[2 * kl] += 1.0
    # ab is fresh, and _fd._band checked J finite
    lu, piv, info = dgbtrf(ab, kl, kl, overwrite_ab=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgbtrf failed with info={info}")
    return _StepFactors(lu, piv, dt, periodic)


def _solve_factored(factors: _StepFactors, f: np.ndarray) -> np.ndarray:
    """du from (I - dt J) du = dt f on factors of _factor_step, in one
    LAPACK dgbtrs call; periodic right-hand sides are folded and the
    solution unfolded."""
    lu, piv, dt, periodic = factors
    kl = (lu.shape[0] - 1) // 3
    if periodic:
        fold, unfold, _ = _folded_layout(f.size, kl // 2)
        du, _ = solve_banded(lu, kl, kl, dt * f[fold], piv, overwrite_b=True)
        return du[unfold]
    du, _ = solve_banded(lu, kl, kl, dt * f, piv, overwrite_b=True)
    return du


@dataclass(eq=False)
class EvolveResult:
    """Outcome of one relaxation run."""

    profile: Profile
    t: float
    verdict: str  # "Steady" | "Running" | "Unstable"
    reason: str
    steps: int
    rejects: int
    factorizations: int  # LU factorisations of I - dt J, one per refresh
    dcdt_norm: float
    times: np.ndarray
    energy: np.ndarray
    mass1: np.ndarray
    mass2: np.ndarray
    observables: np.ndarray | None


def evolve(
    p: ModelParams,
    profile0: Profile,
    bc: BoundaryConditions,
    t_end: float,
    dt0: float = 1e-3,
    dt_max: float = 0.25,
    steady_tol: float = 1e-8,
    observer: Callable[[float, np.ndarray, np.ndarray, np.ndarray], float] | None = None,
) -> EvolveResult:
    """Relax a profile under the dissipative dynamics until t_end.

    Each step solves (I - dt J) dc = dt F(c_n) with J the exact band
    Jacobian at the state of the last change of dt, when LU factors are
    made (counted in the result's factorizations). The first attempt
    takes min(dt0, dt_max); a rejected attempt halves dt; an accepted
    step sets dt = min(1.3 * its size, dt_max).
    Stops early with verdict "Steady" when max |c_t| drops below
    steady_tol. observer, if given, is evaluated as observer(t, c1, c2,
    phi) after every accepted step and collected in the result. t_end,
    dt0, dt_max and steady_tol must be finite and positive
    (ParameterError otherwise).
    """
    grid = profile0.grid
    _check_grid(grid, bc)
    settings = {"t_end": t_end, "dt0": dt0, "dt_max": dt_max, "steady_tol": steady_tol}
    for name, value in settings.items():
        if not 0 < value < np.inf:  # NaN fails
            raise ParameterError(f"{name} must be finite and positive, got {value}")
    n = grid.n
    c1, c2 = profile0.c1, profile0.c2
    if not (c1.min() > 0 and c2.min() > 0 and c1.max() + c2.max() < np.inf):  # NaN, inf fail
        raise ParameterError("initial concentrations must be finite and strictly positive")
    # u interleaves (c1_j, c2_j); c is its (n, 2) view, and c1, c2 are the
    # columns of c
    u = np.column_stack((c1, c2)).ravel()
    c = u.reshape(n, 2)
    rho = _charge(c, p)
    phi = _potential(rho, grid, bc)
    mu, e_cur = _mu_and_energy(c, rho, phi, p, grid)
    w = grid.weights
    t = 0.0
    dt = min(dt0, dt_max)
    steps = 0
    rejects = 0
    factorizations = 0
    times = [0.0]
    energies = [e_cur]
    masses = [w @ c]
    obs_hist = [observer(0.0, c1, c2, phi)] if observer else None

    f, c_face, dmu = _flux_divergence(c, mu, grid)
    factors = None  # of I - dt J at the last refresh, kept while dt holds
    dcdt_norm = float(np.abs(f).max())
    verdict, reason = "Running", "reached time horizon"

    if dcdt_norm < steady_tol:
        verdict, reason = "Steady", "initial state already stationary"
        t_end = 0.0

    while t < t_end:
        dt_try = min(dt, t_end - t)
        for _ in range(_MAX_HALVINGS + 1):
            if factors is None or dt_try != factors.dt:
                factors = _factor_step(_band(u, c_face, dmu, p, grid), dt_try, grid.periodic)
                factorizations += 1
            u_new = u + _solve_factored(factors, f)
            # a NaN makes the minimum NaN, so the two bounds admit only
            # finite states above the floor
            ok = u_new.min() > _POSITIVITY_FLOOR and u_new.max() < np.inf
            if ok:
                c_new = u_new.reshape(n, 2)
                rho = _charge(c_new, p)
                phi_new = _potential(rho, grid, bc)
                mu, e_new = _mu_and_energy(c_new, rho, phi_new, p, grid)
                ok = math.isfinite(e_new) and e_new <= e_cur + _ENERGY_TOL
            if ok:
                break
            rejects += 1
            dt_try *= 0.5
        else:
            verdict, reason = "Unstable", "time step collapsed under the dissipation controller"
            break

        t += dt_try
        steps += 1
        u, c, phi, e_cur = u_new, c_new, phi_new, e_new
        c1, c2 = c.T
        # F of the accepted state, from the mu its energy test computed
        f, c_face, dmu = _flux_divergence(c, mu, grid)
        dcdt_norm = float(np.abs(f).max())

        times.append(t)
        energies.append(e_cur)
        masses.append(w @ c)
        if observer:
            obs_hist.append(observer(t, c1, c2, phi))

        dt = min(1.3 * dt_try, dt_max)

        if dcdt_norm < steady_tol:
            verdict, reason = "Steady", f"max |c_t| fell below {steady_tol:g}"
            break

    mass1, mass2 = np.array(masses).T
    prof = Profile(grid=grid, c1=c1.copy(), c2=c2.copy(), phi=phi.copy())
    return EvolveResult(
        profile=prof,
        t=t,
        verdict=verdict,
        reason=reason,
        steps=steps,
        rejects=rejects,
        factorizations=factorizations,
        dcdt_norm=dcdt_norm,
        times=np.array(times),
        energy=np.array(energies),
        mass1=mass1,
        mass2=mass2,
        observables=np.array(obs_hist) if obs_hist is not None else None,
    )
