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
ordering). Every column of J sums to zero against the quadrature
weights, so the linear step conserves mass to roundoff, as F does,
whatever state J was taken at. The long-range coupling through the
Poisson solve is explicit, which is harmless for stability since it is
a compact perturbation, not a stiff term.

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

Each run evaluates the model through one _fd._Kernel, built from (p,
grid, bc) before the first step; its docstring lists what it holds and
which buffer each method writes. Each pass of the step loop evaluates F
once (flux_divergence), from the mu of the current state that its energy
test computed, and that F is both the steady test's max |c_t| and the
step's right-hand side; at a refresh, kernel.band builds J from the face
data that F left, and _factor_step makes the LU factors of I - dt J and
returns the solve on them. A rejected attempt evaluates no F and
overwrites neither F nor its face data, so its retry solves the same F
and builds its band from the same faces. What an observer or the result
sees is never a buffer: each accepted step has a fresh u and a fresh
phi. The LAPACK routines (dgbtrf, one call per refresh, counted in
EvolveResult.factorizations, and dgbtrs through the module attribute
solve_banded) are _deferred names: scipy.linalg is imported at the first
factorisation, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._deferred import Deferred
from ._fd import (
    BoundaryConditions,
    _Kernel,
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
    circular band of half-width b (4 for _Kernel.band) is an ordinary band
    of half-width kl = 2 b (N >= 4 b, so it never overlaps itself).
    fold[p] is the unknown at position p and unfold its inverse; dest maps
    the raveled transpose (N, 2 b + 1) of _Kernel.band's circular storage,
    column k's entries together, onto the raveled (N, 3 kl + 1) array
    whose transpose is dgbtrf's storage for kl = ku = 2 b.
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
    dest = dest.T.ravel()
    for x in (fold, unfold, dest):
        x.setflags(write=False)
    return fold, unfold, dest


def _factor_step(jac: np.ndarray, dt: float, periodic: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Factor I - dt J in one LAPACK dgbtrf call; return the solve
    f -> du of (I - dt J) du = dt f on those factors.

    J is in _Kernel.band's storage. -dt J goes straight into dgbtrf's
    column-major storage, the transpose of a (N, 3 kl + 1) array holding
    A[i, j] at [j, 2 kl + i - j]; its first kl rows are dgbtrf's workspace
    and need no zeroing. Electrode bands go in as they are (kl = 4, J's
    half-width); periodic bands are folded (kl = 8, _folded_layout), and
    so are their right-hand sides, the solution unfolded. Each solve is
    one dgbtrs call through the module attribute solve_banded.
    Raises LinAlgError when I - dt J is singular.
    """
    b = (jac.shape[0] - 1) // 2
    size = jac.shape[1]
    if periodic:
        kl = 2 * b
        fold, unfold, dest = _folded_layout(size, b)
        store = np.zeros((size, 3 * kl + 1))
        store.reshape(-1)[dest] = -dt * jac.T.ravel()
    else:
        kl = b
        store = np.empty((size, 3 * kl + 1))
        np.multiply(jac.T, -dt, out=store[:, kl:])
    ab = store.T
    ab[2 * kl] += 1.0
    # ab is fresh, and _Kernel.band checked J finite
    lu, piv, info = dgbtrf(ab, kl, kl, overwrite_ab=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgbtrf failed with info={info}")

    def solve(f: np.ndarray) -> np.ndarray:
        rhs = dt * f[fold] if periodic else dt * f
        du, _ = solve_banded(lu, kl, kl, rhs, piv, overwrite_b=True)
        return du[unfold] if periodic else du

    return solve


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
    steady_tol; that test comes before the horizon's, so a state that
    reaches it at t_end is Steady, not "Running". observer, if given, is evaluated as observer(t, c1, c2,
    phi) after every accepted step and collected in the result. t_end,
    dt0, dt_max and steady_tol must be finite and positive
    (ParameterError otherwise).
    """
    grid = profile0.grid
    settings = {"t_end": t_end, "dt0": dt0, "dt_max": dt_max, "steady_tol": steady_tol}
    for name, value in settings.items():
        if not 0 < value < np.inf:  # NaN fails
            raise ParameterError(f"{name} must be finite and positive, got {value}")
    n = grid.n
    c1, c2 = profile0.c1, profile0.c2
    if not (c1.min() > 0 and c2.min() > 0 and c1.max() + c2.max() < np.inf):  # NaN, inf fail
        raise ParameterError("initial concentrations must be finite and strictly positive")
    # u interleaves (c1_j, c2_j); c is its (n, 2) view, and c1, c2, taken
    # for an observer and at the end, are the columns of c
    u = np.column_stack((c1, c2)).ravel()
    c = u.reshape(n, 2)
    kernel = _Kernel(p, grid, bc)  # ParameterError if bc does not suit the grid
    rho = kernel.charge(c)
    phi = kernel.potential(rho)
    mu, e_cur = kernel.mu_and_energy(c, rho, phi)
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
    dt_solve = 0.0  # the dt of solve's factors; 0 until the first refresh

    while True:
        # F of the current state, from the mu its energy test computed
        f = kernel.flux_divergence(c, mu)
        dcdt_norm = float(np.maximum.reduce(np.abs(f)))
        if dcdt_norm < steady_tol:
            verdict, reason = "Steady", "initial state already stationary"
            if steps:
                reason = f"max |c_t| fell below {steady_tol:g}"
            break
        if t >= t_end:
            verdict, reason = "Running", "reached time horizon"
            break

        dt_try = min(dt, t_end - t)
        for _ in range(_MAX_HALVINGS + 1):
            if dt_try != dt_solve:
                band = kernel.band(u)
                solve = _factor_step(band, dt_try, grid.periodic)
                dt_solve = dt_try
                factorizations += 1
            u_new = u + solve(f)
            # a NaN makes the minimum NaN, so the two bounds admit only
            # finite states above the floor
            ok = (
                np.minimum.reduce(u_new) > _POSITIVITY_FLOOR
                and np.maximum.reduce(u_new) < np.inf
            )
            if ok:
                c_new = u_new.reshape(n, 2)
                rho = kernel.charge(c_new)
                phi_new = kernel.potential(rho)
                mu, e_new = kernel.mu_and_energy(c_new, rho, phi_new)
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
        times.append(t)
        energies.append(e_cur)
        masses.append(w @ c)
        if observer:
            obs_hist.append(observer(t, *c.T, phi))
        dt = min(1.3 * dt_try, dt_max)

    c1, c2 = c.T
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
