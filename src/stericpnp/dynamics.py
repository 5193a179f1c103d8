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
_flux_divergence writes F, and only _mu_and_energy writes mu and the
discrete energy; time_derivatives (through _rhs), chemical_potential,
discrete_energy and the stepper all call them.

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
included, of _dmu_dc, which the stationary solver's Jacobian reads too.
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
columns, each repeated for both species) once per grid, the Dirichlet
Poisson factor once per interior size (_fd.solve_poisson_dirichlet), the
periodic band's folded layout once per size (_folded_layout), the
parameter arrays z, cbar and G once per ModelParams, and the band and its
LU factors once per refresh (_band, _factor_step). Finiteness is checked
once per band, where _band returns J; the factorisation writes -dt J
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
(_potential), and one _mu_and_energy call, which takes log c, G c and the
face differences of c once and returns mu and the discrete energy
together. The energy test then accepts or rejects the attempt. An
accepted step evaluates F once, by _flux_divergence from that mu, and
that F, with its face data c_face and dmu, is both the steady test's
max |c_t| and the next step's right-hand side and band input; a rejected
attempt evaluates no F. The energy is read without a sign check (a
negative concentration leaves it NaN, and only then is the sign looked
at). The dgbtrf factorisations, one per refresh, are called under their
own name and counted in EvolveResult.factorizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgbtrf
# dgbtrs itself, under the name at which perfbench's tracer counts step solves
from scipy.linalg.lapack import dgbtrs as solve_banded

from ._deferred import Deferred
from ._fd import (
    _face_difference,
    _face_divergence,
    _laplacian_columns,
    solve_poisson_dirichlet,
    solve_poisson_periodic,
    trapz,
)
from .errors import ParameterError
from .model import Grid, ModelParams, Profile

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
    return _potential(_charge(np.column_stack((c1, c2)), p), grid, bc)


def _potential(rho: np.ndarray, grid: Grid, bc: BoundaryConditions) -> np.ndarray:
    """phi from phi_xx = -rho; rho is not modified (evolve reuses it)."""
    if bc.kind == "periodic":
        return solve_poisson_periodic(rho, grid)
    return solve_poisson_dirichlet(rho, grid, bc.phi_left, bc.phi_right)


def chemical_potential(
    c1: np.ndarray,
    c2: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> np.ndarray:
    """mu_i = log c_i + (G c)_i + z_i phi - sigma c_i,xx, as one (2, n) stack.

    The rows of _mu_and_energy's mu, the only place mu is written: the time
    stepper and the stationary solver both take it from there (mu1, mu2 =
    chemical_potential(...) unpacks the rows). With the Neumann wall
    closure of _fd.second_derivative, mu_i is exactly (1/w_j) dE/dc_ij of
    discrete_energy.
    """
    c = np.column_stack((c1, c2))
    return _mu_and_energy(c, _charge(c, p), phi, p, grid)[0].T


def time_derivatives(
    c1: np.ndarray,
    c2: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    f = _rhs(np.column_stack((c1, c2)).ravel(), phi, p, grid)[0]
    return f[0::2], f[1::2]


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

    The energy of _mu_and_energy, which writes it. Exact zeros are taken
    with the limit c log c -> 0; a negative concentration raises
    ParameterError.
    """
    c = np.column_stack((c1, c2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _mu_and_energy(c, _charge(c, p), phi, p, grid)[1]


def _charge(c: np.ndarray, p: ModelParams) -> np.ndarray:
    """rho = z . c + rho0 of an (n, 2) state, nodes first."""
    rho = np.dot(c, p.z)
    rho += p.rho0
    return rho


def _mu_and_energy(
    c: np.ndarray,
    rho: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> tuple[np.ndarray, float]:
    """(mu, E) of the state c, shape (n, 2) nodes first, with charge rho.

    The one writer of the chemical potential and of the discrete energy
    (see chemical_potential and discrete_energy): log c, G c and the face
    differences dc are computed once and shared. The Laplacian in mu is
    _fd._face_divergence of dc / dx, the Neumann closure of
    _fd.second_derivative. The bulk density is h = sum_i c_i (log(c_i /
    cbar_i) - 1 + (G c)_i / 2), with h_i = 0 at c_i = 0 (0 log 0 -> 0);
    a negative concentration, which leaves it NaN, raises ParameterError.
    """
    w, _, _ = _node_columns(grid)
    log_c = np.log(c)
    gc = np.dot(c, p.G)  # (G c)_i at every node; G is symmetric
    dc = _face_difference(c, grid)
    mu = log_c + gc
    mu += np.dot(phi[:, None], p.z[None])  # z_i phi_j, one outer product
    mu -= (p.sigma / grid.dx) * _face_divergence(dc, w)

    gc *= 0.5
    gc += log_c
    gc -= 1.0 + np.log(p.cbar)
    dens = np.multiply(c, gc, out=gc)
    bulk = float(np.vdot(w, dens))
    if math.isnan(bulk):
        # 0 log 0 and a negative concentration both leave the entropy NaN:
        # only then is the sign looked at
        if (c < 0).any():
            raise ParameterError("concentrations must be nonnegative")
        dens[c == 0] = 0.0
        bulk = float(np.vdot(w, dens))
    dphi = _face_difference(phi, grid)
    energy = (
        bulk
        + float(grid.weights @ (rho * phi))
        + (0.5 * p.sigma * float(np.vdot(dc, dc)) - 0.5 * float(dphi @ dphi)) / grid.dx
    )
    return mu, energy


def _dmu_dc(
    c: np.ndarray, p: ModelParams, grid: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diag, up, down) of d mu / d c at the (n, 2) state c, nodes first.

    The one writer of mu's Jacobian, read by both exact Jacobians (_band
    and continuation._assemble). At column k of species i, diag = d
    mu_i,k / d c_i,k = 1/c + g_ii + 2 sigma/dx^2, and up, down = d
    mu_i,k-1 / d c_i,k, d mu_i,k+1 / d c_i,k are -sigma/dx^2 times
    _fd._laplacian_columns, the Neumann wall closure. The species couple
    only through g12, at the same node, which the callers add.
    """
    beta = -p.sigma / grid.dx**2
    up, down = beta * _node_columns(grid)[2]
    diag = 1.0 / c + np.array([p.g11, p.g22]) - 2.0 * beta
    return diag, up, down


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


def _flux_divergence(
    c: np.ndarray, mu: np.ndarray, grid: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, c_face, dmu): F interleaved like u, the face data as (n, 2)
    arrays, nodes first.

    Face f joins nodes f and f + 1 (mod n); on electrode grids face n - 1
    is the closed wall and carries nothing. Its flux is c_face dmu / dx,
    with c_face = (c_f + c_f+1) / 2, dmu = mu_f+1 - mu_f
    (_fd._face_difference), and F_j = (flux_j - flux_j-1) / w_j
    (_fd._face_divergence). Nodes first is u's interleaved order, in which a
    shift by whole nodes is a contiguous slice.
    """
    c_face = np.empty(c.shape)
    np.add(c[1:], c[:-1], out=c_face[:-1])
    np.add(c[:1], c[-1:], out=c_face[-1:])
    c_face *= 0.5
    if not grid.periodic:
        c_face[-1] = 0.0
    dmu = _face_difference(mu, grid)
    flux = c_face * dmu
    flux /= grid.dx
    return _face_divergence(flux, _node_columns(grid)[0]).reshape(-1), c_face, dmu


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


def _rhs(
    u: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, c_face, dmu): F = (c mu_x)_x at frozen phi, interleaved like u,
    and the face data of _flux_divergence, from which _band builds J."""
    c = u.reshape(grid.n, 2)
    mu = _mu_and_energy(c, _charge(c, p), phi, p, grid)[0]
    return _flux_divergence(c, mu, grid)


def _band(
    u: np.ndarray,
    c_face: np.ndarray,
    dmu: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> np.ndarray:
    """The exact Jacobian J of F at frozen phi, interleaved, from the face
    data (c_face, dmu) that _rhs returned for the same u.

    u and F interleave (c1_k, c2_k). The band holds band[4 - o, col] =
    J[col - o, col], indices mod 2n: scipy's solve_banded storage for
    electrode runs, whose wrapped corners are exactly zero, and circular
    band storage for periodic runs, which _factor_step folds into an
    ordinary band.

    The flux of face f (_flux_divergence), a_f dmu_f with a_f = c_face /
    dx, depends on the same species at nodes f - 1 ... f + 2, through the
    diagonal and off-diagonals of d mu / d c (_dmu_dc), and on the other
    species at nodes f, f + 1 through g12. F_j = (flux_j - flux_j-1) / w_j, so
    column k of J holds the differences of d flux_f / d c_k over the faces
    f = k - 3 ... k + 2, each over its row's weight: they telescope to
    zero against the weights.

    Everything is built nodes first, (n, 2) like u.reshape(n, 2), so node
    shifts are contiguous slices and the band comes out interleaved.

    Raises ValueError if the band is not finite; a non-finite c_face or
    dmu, the only way F can fail to be finite, reaches it too.
    """
    n = grid.n
    dx = grid.dx
    iw = _node_columns(grid)[1]

    diag, up, down = _dmu_dc(u.reshape(n, 2), p, grid)
    # row k of a holds a_f at faces f = k - 2 ... k + 1 in its slices [:-3],
    # [1:-2], [2:-1], [3:]; row k of h holds dmu_f / (2 dx) at faces
    # k - 1, k in [:-1], [1:]
    a = np.concatenate((c_face[-2:], c_face, c_face[:1])) / dx
    h = 0.5 * np.concatenate((dmu[-1:], dmu)) / dx
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
    # the one finiteness check per band: the factorisation skips its own
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    return band.reshape(2 * _BANDWIDTH + 1, 2 * n)


@lru_cache(maxsize=16)
def _folded_layout(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The circular band as an ordinary band: (fold, unfold, dest).

    In the folded order 0, N - 1, 1, N - 2, ... of the N unknowns the
    circular band of half-width 4 is an ordinary band of half-width 8
    (N >= 16, so it never overlaps itself). fold[p] is the unknown at
    position p and unfold its inverse; dest maps the raveled circular
    storage (9, N) of _band onto the raveled (N, 3 * 8 + 1) array
    whose transpose is dgbtrf's storage for kl = ku = 8.
    """
    b = _BANDWIDTH
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

    J is in _band's storage. -dt J goes straight into dgbtrf's
    column-major storage, the transpose of a (N, 3 kl + 1) array holding
    A[i, j] at [j, 2 kl + i - j]; its first kl rows are dgbtrf's workspace
    and need no zeroing. Electrode bands go in as they are (kl = 4);
    periodic bands are folded (kl = 8, _folded_layout). Raises LinAlgError
    when I - dt J is singular.
    """
    size = jac.shape[1]
    if periodic:
        kl = 2 * _BANDWIDTH
        store = np.zeros((size, 3 * kl + 1))
        store.reshape(-1)[_folded_layout(size)[2]] = -dt * jac.ravel()
    else:
        kl = _BANDWIDTH
        store = np.empty((size, 3 * kl + 1))
        np.multiply(jac.T, -dt, out=store[:, kl:])
    ab = store.T
    ab[2 * kl] += 1.0
    # ab is fresh, and _band checked J finite
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
        fold, unfold, _ = _folded_layout(f.size)
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
