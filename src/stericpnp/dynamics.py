"""Dissipative time integration of the ion transport system.

The evolution is a gradient flow for the free energy: each species obeys

    c_i,t = (c_i mu_i,x)_x,    mu_i = log c_i + (G c)_i + z_i phi - sigma c_i,xx,

with the potential slaved to the charge density through phi_xx = -(z . c
+ rho0). Two boundary setups are supported: "electrode" (zero flux
through the walls, Dirichlet potential, homogeneous Neumann closure
c_x = 0 for the gradient term) and "periodic". The Neumann wall closure
is the variational one: it makes mu_i exactly the gradient of the
discrete energy below, so the semi-discrete flow dissipates that energy
identically, wall activity included. The alternative c_xx = 0 closure
leaves an O(1) sign-indefinite boundary term sigma [c_x c_t] in the
energy balance, which stalls the step controller whenever a double
layer is still charging.

Space is discretized with finite volumes: the flux through each interior
face uses the arithmetic mean of the neighboring concentrations times the
chemical-potential difference across the face, and wall faces carry zero
flux. With trapezoid quadrature weights this telescopes exactly, so the
discrete masses are conserved to roundoff by construction. Only
_flux_divergence writes F; time_derivatives and _rhs_and_band call it.

Time stepping is linearly implicit (one Newton-like solve per step; the
Rosenbrock-Euler step of Hairer & Wanner, Solving ODEs II, IV.7):

    (I - dt J) dc = dt F(c_n),

where J is the exact Jacobian of F at c_n with the potential frozen.
Freezing phi keeps J banded (bandwidth 4 in the interleaved species
ordering), and its nine diagonals are written out from the flux formula
at the cost of one chemical-potential evaluation, walls included
through _fd._laplacian_columns. Every column of J sums to zero against
the quadrature weights, so the linear step conserves mass to roundoff,
as F does. The long-range coupling through the Poisson solve is
explicit, which is harmless for stability since it is a compact
perturbation, not a stiff term.

A step controller enforces the physics the scheme is meant to have: a
candidate step is rejected, and dt halved, whenever a concentration
leaves the positive cone or the discrete energy increases by more
than 1e-10. Because the monitored energy is the exact Lyapunov
functional of the semi-discrete system, a rejected step always succeeds
after enough halvings (the semi-discrete slope is -sum_f c_f |dmu|^2/dx
<= 0, so the energy rise is pure time-integration error, O(dt^2)). After
five consecutive accepted steps dt grows by 1.3x up to dt_max. A step
still rejected after twenty halvings abandons the run with verdict
"Unstable"; reaching the steady tolerance on max |c_t| gives "Steady";
running out the horizon gives "Running".

Work that does not change from step to step is done once: the grid's dx
and quadrature weights once per grid, the per-node columns that F and
the band need (w, the 1/w of the band rows and the Laplacian's wall
columns, each repeated for both species) once per grid, the Dirichlet
Poisson factor once per interior size (_fd.solve_poisson_dirichlet), and
the periodic sparse layout once per size. Finiteness is checked once per
band, where _rhs_and_band returns F and J; the banded step solves, which
only rescale those two, skip scipy's own check on every attempt.

At the sizes evolve runs (tens to hundreds of nodes) a step costs mostly
numpy's overhead per call, not arithmetic, so the per-step writers keep
their call count low without changing a single operation: mu is one
(2, n) stack for both species, F and the band are built nodes first in
u's interleaved order, where a shift by whole nodes is a contiguous
slice, and discrete_energy takes the bulk density without a sign check
(a negative concentration leaves its total NaN, and only then is the
sign looked at). Each attempted step calls the module attribute
solve_banded or splu once and reads the energy through discrete_energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from ._fd import (
    _laplacian_columns,
    second_derivative,
    solve_poisson_dirichlet,
    solve_poisson_periodic,
    trapz,
)
from .energy import _density
from .errors import ParameterError
from .model import Grid, ModelParams, Profile

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

_BANDWIDTH = 4  # interleaved (c1_j, c2_j): node offset 2, sigma reach 2 nodes
# step controller: the energy may rise by at most _ENERGY_TOL per step, no
# concentration may fall to _POSITIVITY_FLOOR, and a step still rejected
# after _MAX_HALVINGS halvings abandons the run
_ENERGY_TOL = 1e-10
_POSITIVITY_FLOOR = 1e-12
_MAX_HALVINGS = 20


@dataclass(frozen=True)
class BoundaryConditions:
    """Wall treatment plus potential boundary data."""

    kind: str  # "electrode" | "periodic"
    phi_left: float = 0.0
    phi_right: float = 0.0

    def __post_init__(self):
        if self.kind not in ("electrode", "periodic"):
            raise ParameterError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "periodic" and (self.phi_left != 0.0 or self.phi_right != 0.0):
            raise ParameterError("periodic runs take no boundary potentials")


def electrode_bc(phi_left: float = 0.0, phi_right: float = 0.0) -> BoundaryConditions:
    return BoundaryConditions(kind="electrode", phi_left=phi_left, phi_right=phi_right)


def periodic_bc() -> BoundaryConditions:
    return BoundaryConditions(kind="periodic")


def _check_grid(grid: Grid, bc: BoundaryConditions) -> None:
    if bc.kind == "periodic" and not grid.periodic:
        raise ParameterError("periodic boundary conditions need a periodic grid")
    if bc.kind == "electrode" and grid.periodic:
        raise ParameterError("electrode boundary conditions need a wall-to-wall grid")


def solve_potential(
    c1: np.ndarray,
    c2: np.ndarray,
    p: ModelParams,
    grid: Grid,
    bc: BoundaryConditions,
) -> np.ndarray:
    """Potential from the Poisson equation phi_xx = -(z . c + rho0)."""
    rhs = p.z1 * c1 + p.z2 * c2 + p.rho0
    if bc.kind == "periodic":
        return solve_poisson_periodic(rhs, grid)
    return solve_poisson_dirichlet(rhs, grid, bc.phi_left, bc.phi_right)


def chemical_potential(
    c1: np.ndarray,
    c2: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> np.ndarray:
    """mu_i = log c_i + (G c)_i + z_i phi - sigma c_i,xx, as one (2, n) stack.

    The only place mu is written: the time stepper and the stationary
    solver both take it from here (mu1, mu2 = chemical_potential(...)
    unpacks the rows). With the Neumann wall closure of second_derivative,
    mu_i is exactly (1/w_j) dE/dc_ij of discrete_energy.
    """
    c = np.array((c1, c2))
    G = p.G
    mu = np.log(c)
    # (G c)_i term by term, c1 then c2: G @ c would sum in another order
    mu += G[:, :1] * c1
    mu += G[:, 1:] * c2
    mu += p.z[:, None] * phi
    mu -= p.sigma * second_derivative(c, grid)
    return mu


def time_derivatives(
    c1: np.ndarray,
    c2: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    mu = chemical_potential(c1, c2, phi, p, grid)
    f = _flux_divergence(np.column_stack((c1, c2)), mu.T, grid)[0]
    return f[:, 0], f[:, 1]


def discrete_energy(
    c1: np.ndarray,
    c2: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> float:
    """Lyapunov functional of the discrete state; the controller's monitor.

    Three pieces: trapezoid-weighted local free energy, the electrostatic
    part written as sum_j w_j rho_j phi_j - (1/2) sum_f (dphi)^2 / dx, and
    the gradient energy (sigma/2) sum_f (dc)^2 / dx over the same faces.
    Written this way, (1/w_j) dE/dc_ij is exactly the chemical potential
    used by the fluxes (with the Neumann wall closure), so along the
    semi-discrete flow dE/dt = -sum_f c_f (dmu)^2 / dx <= 0 identically.

    The rho-phi form of the field energy is not a stylistic choice. By
    parts it equals (1/2) int phi_x^2 - [phi phi_x] at the boundary, i.e.
    the usual field energy minus the work fed in by electrodes held at
    fixed potential. The plain free energy genuinely rises while a double
    layer charges; this functional is the one the dynamics runs downhill.
    For periodic runs the boundary term vanishes and it coincides with
    the free energy up to quadrature error.
    """
    total = trapz(_density(c1, c2, p), grid)
    rho = p.z1 * c1 + p.z2 * c2 + p.rho0
    total += trapz(rho * phi, grid)
    total += _face_energy(phi, grid, -0.5)
    total += _face_energy(c1, grid, 0.5 * p.sigma)
    total += _face_energy(c2, grid, 0.5 * p.sigma)
    # a negative concentration makes the entropy, and so the total, NaN:
    # only then is the sign check needed
    if math.isnan(total) and (np.any(c1 < 0) or np.any(c2 < 0)):
        raise ParameterError("discrete energy needs nonnegative concentrations")
    return total


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


def _face_energy(arr: np.ndarray, grid: Grid, coeff: float) -> float:
    """coeff * sum over faces of (difference across the face)^2 / dx."""
    d = arr[1:] - arr[:-1]
    s = float(d @ d)
    if grid.periodic:
        s += float((arr[0] - arr[-1]) ** 2)
    return coeff * s / grid.dx


def _shift(x: np.ndarray, d: int) -> np.ndarray:
    """x[k - d] along the first (node) axis, wrapping."""
    return np.concatenate((x[-d:], x[:-d]))


def _flux_divergence(
    c: np.ndarray, mu: np.ndarray, grid: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, c_face, dmu) of both species as (n, 2) arrays, nodes first.

    Face f joins nodes f and f + 1 (mod n); on electrode grids face n - 1
    is the closed wall and carries nothing. Its flux is c_face dmu / dx,
    with c_face = (c_f + c_f+1) / 2, dmu = mu_f+1 - mu_f, and F_j =
    (flux_j - flux_j-1) / w_j. Nodes first is u's interleaved order, in
    which a shift by whole nodes is a contiguous slice.
    """
    c_face = 0.5 * (c + _shift(c, -1))
    dmu = _shift(mu, -1) - mu
    if not grid.periodic:
        c_face[-1] = 0.0
        dmu[-1] = 0.0
    flux = c_face * dmu / grid.dx
    return (flux - _shift(flux, 1)) / _node_columns(grid)[0], c_face, dmu


@lru_cache(maxsize=16)
def _node_columns(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node constants at both species, nodes first: (w, iw, lap).

    w is the quadrature weight, shape (n, 2); iw[2 + e] = 1 / w_{k+e} for
    the band rows at nodes k + e, e = -2 ... 2, shape (5, n, 2); lap is
    _fd._laplacian_columns, shape (2, n, 2). Repeating them for both
    species keeps every product full size: numpy's inner loop would
    otherwise run over the two species only. Per grid, read-only.
    """
    inv_w = 1.0 / grid.weights
    iw = np.stack([np.roll(inv_w, -e) for e in range(-2, 3)])
    cols = (grid.weights, iw, _laplacian_columns(grid))
    out = tuple(np.repeat(x[..., None], 2, axis=-1) for x in cols)
    for x in out:
        x.setflags(write=False)
    return out


def _rhs_and_band(
    u: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    """F = (c mu_x)_x at frozen phi and its exact Jacobian, interleaved.

    u and F interleave (c1_k, c2_k). The band holds band[4 - o, col] =
    J[col - o, col], indices mod 2n: solve_banded storage for electrode
    runs, whose wrapped corners are exactly zero, and the circular storage
    of _solve_circular for periodic runs.

    The flux of face f (_flux_divergence), a_f dmu_f with a_f = c_face /
    dx, depends on the same species at nodes f - 1 ... f + 2, through mu's
    diagonal 1/c + g_ii + 2 sigma/dx^2 and the sigma-Laplacian's
    off-diagonals -sigma/dx^2 _fd._laplacian_columns, and on the other
    species at nodes f, f + 1 through g12. F_j = (flux_j - flux_j-1) / w_j, so
    column k of J holds the differences of d flux_f / d c_k over the faces
    f = k - 3 ... k + 2, each over its row's weight: they telescope to
    zero against the weights.

    Everything is built nodes first, (n, 2) like u.reshape(n, 2), so node
    shifts are contiguous slices and F and the band come out interleaved.

    Raises ValueError if F or the band is not finite.
    """
    n = grid.n
    dx = grid.dx
    c = u.reshape(n, 2)
    mu = chemical_potential(c[:, 0], c[:, 1], phi, p, grid)
    f, c_face, dmu = _flux_divergence(c, np.ascontiguousarray(mu.T), grid)
    _, iw, lap = _node_columns(grid)

    beta = -p.sigma / dx**2
    up, down = beta * lap  # d mu_k-1 / d c_k, d mu_k+1 / d c_k
    # row k of a holds a_f at faces f = k - 2 ... k + 1 in its slices [:-3],
    # [1:-2], [2:-1], [3:]; row k of h holds dmu_f / (2 dx) at faces
    # k - 1, k in [:-1], [1:]
    a = np.concatenate((c_face[-2:], c_face, c_face[:1])) / dx
    h = 0.5 * np.concatenate((dmu[-1:], dmu)) / dx
    diag = 1.0 / c + np.array([p.g11, p.g22]) - 2.0 * beta
    # d flux_f / d c_k of the same species, f = k - 3 ... k + 2; the end
    # faces do not see c_k and stay zero
    dflux = np.zeros((6, n, 2))
    np.multiply(up, a[:-3], out=dflux[1])
    np.add(h[:-1], a[1:-2] * (diag - up), out=dflux[2])
    np.add(h[1:], a[2:-1] * (down - diag), out=dflux[3])
    np.multiply(-down, a[3:], out=dflux[4])
    # d flux_f / d c_k of the other species is g12 a_f at f = k - 1 (+)
    # and f = k (-), a_f of that species; so at column k of species s the
    # rows at nodes k - 1, k, k + 1 are cross[:, k, 1 - s]
    ga = p.g12 * a[1:-1]
    cross = np.array((ga[:-1], -ga[1:] - ga[:-1], ga[1:]))

    # rows at nodes k - 2 ... k + 2 of the same species sit in band rows
    # 0, 2, ..., 8; rows at nodes k - 1 ... k + 1 of the other species in
    # band rows 1, 3, 5 for c2 columns and 3, 5, 7 for c1 columns
    band = np.zeros((2 * _BANDWIDTH + 1, n, 2))
    np.multiply(dflux[1:] - dflux[:-1], iw, out=band[0::2])
    cross *= iw[1:4]
    band[1:6:2, :, 1] = cross[:, :, 0]
    band[3:8:2, :, 0] = cross[:, :, 1]
    # the one finiteness check per band: the step solves skip their own
    if not (np.isfinite(f).all() and np.isfinite(band).all()):
        raise ValueError("array must not contain infs or NaNs")
    return f.reshape(2 * n), band.reshape(2 * _BANDWIDTH + 1, 2 * n)


@lru_cache(maxsize=16)
def _circular_csc_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse layout for the circular band: (indptr, indices, perm).

    perm maps the raveled (2b+1, n) band storage onto CSC data order, so
    per-step assembly is a single fancy-indexed copy with no sorting.
    """
    b = _BANDWIDTH
    width = 2 * b + 1
    indptr = width * np.arange(n + 1)
    indices = np.empty(width * n, dtype=np.int32)
    perm = np.empty(width * n, dtype=np.int64)
    offs = np.arange(-b, b + 1)
    for j in range(n):
        rows = (j + offs) % n
        order = np.argsort(rows)
        sl = slice(width * j, width * (j + 1))
        indices[sl] = rows[order]
        perm[sl] = order * n + j
    return indptr, indices, perm


def _solve_circular(cb: np.ndarray, dt: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - dt J) x = rhs with J in circular-band storage."""
    b = _BANDWIDTH
    n = cb.shape[1]
    band = (-dt) * cb
    band[b, :] += 1.0
    indptr, indices, perm = _circular_csc_layout(n)
    system = csc_matrix((band.ravel()[perm], indices, indptr), shape=(n, n))
    return splu(system).solve(rhs)


@dataclass(eq=False)
class EvolveResult:
    """Outcome of one relaxation run."""

    profile: Profile
    t: float
    verdict: str  # "Steady" | "Running" | "Unstable"
    reason: str
    steps: int
    rejects: int
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
    # u interleaves (c1_j, c2_j); after the first step c1, c2 are the
    # columns of its (n, 2) view
    u = np.column_stack((c1, c2)).ravel()

    phi = solve_potential(c1, c2, p, grid, bc)
    e_cur = discrete_energy(c1, c2, phi, p, grid)
    w = grid.weights
    t = 0.0
    dt = min(dt0, t_end)
    steps = 0
    rejects = 0
    accepted_streak = 0
    times = [0.0]
    energies = [e_cur]
    m1_hist = [float(w @ c1)]
    m2_hist = [float(w @ c2)]
    obs_hist = [observer(0.0, c1, c2, phi)] if observer else None

    f0, jac = _rhs_and_band(u, phi, p, grid)
    dcdt_norm = float(np.abs(f0).max())
    verdict, reason = "Running", "reached time horizon"

    if dcdt_norm < steady_tol:
        verdict, reason = "Steady", "initial state already stationary"
        t_end = 0.0

    is_ring = bc.kind == "periodic"
    while t < t_end:
        dt_try = min(dt, t_end - t)
        for halvings in range(_MAX_HALVINGS + 1):
            if is_ring:
                du = _solve_circular(jac, dt_try, dt_try * f0)
            else:
                system = -dt_try * jac
                system[_BANDWIDTH, :] += 1.0
                # both operands are fresh, and f0, jac were checked finite
                du = solve_banded(
                    (_BANDWIDTH, _BANDWIDTH),
                    system,
                    dt_try * f0,
                    overwrite_ab=True,
                    overwrite_b=True,
                    check_finite=False,
                )
            u_new = u + du
            # a NaN makes the minimum NaN, so the two bounds admit only
            # finite states above the floor
            ok = u_new.min() > _POSITIVITY_FLOOR and u_new.max() < np.inf
            if ok:
                c1n, c2n = u_new.reshape(n, 2).T
                phi_new = solve_potential(c1n, c2n, p, grid, bc)
                e_new = discrete_energy(c1n, c2n, phi_new, p, grid)
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
        u, phi, e_cur = u_new, phi_new, e_new
        c1, c2 = c1n, c2n
        f0, jac = _rhs_and_band(u, phi, p, grid)
        dcdt_norm = float(np.abs(f0).max())

        times.append(t)
        energies.append(e_cur)
        m1_hist.append(float(w @ c1))
        m2_hist.append(float(w @ c2))
        if observer:
            obs_hist.append(observer(t, c1, c2, phi))

        if halvings:
            dt = dt_try
            accepted_streak = 0
        else:
            accepted_streak += 1
            if accepted_streak >= 5:
                dt = min(dt * 1.3, dt_max)
                accepted_streak = 0

        if dcdt_norm < steady_tol:
            verdict, reason = "Steady", f"max |c_t| fell below {steady_tol:g}"
            break

    prof = Profile(grid=grid, c1=c1.copy(), c2=c2.copy(), phi=phi.copy())
    return EvolveResult(
        profile=prof,
        t=t,
        verdict=verdict,
        reason=reason,
        steps=steps,
        rejects=rejects,
        dcdt_norm=dcdt_norm,
        times=np.array(times),
        energy=np.array(energies),
        mass1=np.array(m1_hist),
        mass2=np.array(m2_hist),
        observables=np.array(obs_hist) if obs_hist is not None else None,
    )
