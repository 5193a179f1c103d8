"""The discrete model: finite-difference stencils on uniform grids, the
Poisson solves, and the ion transport system written with them.

The time stepper (dynamics), Newton and continuation (continuation) and
the energy diagnostics all read the model here, so that every module
differentiates, integrates and evaluates it the same way. Electrode
grids include both endpoints; periodic grids wrap.

The evolution is a gradient flow for the free energy: each species obeys

    c_i,t = (c_i mu_i,x)_x,    mu_i = log c_i + (G c)_i + z_i phi - sigma c_i,xx,

with the potential slaved to the charge density through phi_xx = -(z . c
+ rho0). Two boundary setups are supported: "electrode" (zero flux
through the walls, Dirichlet potential, homogeneous Neumann closure
c_x = 0 for the gradient term) and "periodic". The Neumann wall closure
is the variational one: it makes mu_i, less the constant log cbar_i,
exactly (1/w_j) dE/dc_ij of the discrete energy E (discrete_energy), so
the semi-discrete flow dissipates that energy identically, wall activity
included. The constant is absorbed by the mass multipliers and reaches
no flux or Hessian. The alternative c_xx = 0 closure leaves an O(1)
sign-indefinite boundary term sigma [c_x c_t] in the energy balance,
which stalls the step controller whenever a double layer is still
charging.

Space is discretized with finite volumes: the flux through each interior
face uses the arithmetic mean of the neighboring concentrations times the
chemical-potential difference across the face, and wall faces carry zero
flux. With trapezoid quadrature weights this telescopes exactly, so the
discrete masses are conserved to roundoff by construction. Only
_flux_divergence writes F, and only _mu_and_energy writes mu and the
discrete energy; time_derivatives (through _rhs), chemical_potential,
discrete_energy, the stepper and the stationary residual all call them.
The Laplacian's Neumann wall closure lives here only: _face_difference
closes the wall face, second_derivative is the _face_divergence of those
differences, and _node_columns holds its matrix columns for _dmu_dc, the
d mu / d c behind both exact Jacobians: _band, the time stepper's, and
_assemble, the stationary solver's.

Stationary states have spatially constant chemical potentials. With the
potential slaved to the charge through Poisson and the total masses
pinned to the bulk averages, the discrete unknown vector on an n-node
wall-to-wall grid is (_pack, _unpack)

    u = [c1_0, c2_0, phi_0, ..., c1_{n-1}, c2_{n-1}, phi_{n-1}, lam1, lam2]

(3n + 2 entries), and the residual stacks, per node,

    log c_i + (G c)_i + z_i phi - sigma c_i,xx - lam_i = 0   (i = 1, 2)
    (phi_{j-1} - 2 phi_j + phi_{j+1})/dx^2 + z . c_j + rho0 = 0

with Dirichlet rows phi_0 - phi_left and phi_{n-1} - phi_right replacing
the wall Poisson rows, plus two mass rows sum_j w_j c_{i,j} - 2 L cbar_i.
Its mu rows are _mu_and_energy's mu, so converged states are exact fixed
points of the time stepper. _assemble writes the residual and its
Jacobian: banded (l = u = 3 in the node-interleaved ordering), bordered
by dense columns for the multipliers and dense mass rows.
_dresidual_dparam is the residual's derivative in the continuation
parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._deferred import Deferred
from .errors import ParameterError
from .model import Grid, ModelParams

# LAPACK's tridiagonal LDL^T, imported at the first Dirichlet Poisson solve
# (_deferred), so that importing the package loads no SciPy
dpttrf = Deferred("scipy.linalg.lapack", "dpttrf")
dpttrs = Deferred("scipy.linalg.lapack", "dpttrs")

_STEP_BAND = 4  # _band, interleaved (c1_j, c2_j): node offset 2, sigma reach 2 nodes
_STATIONARY_BAND = 3  # _assemble, interleaved (c1_j, c2_j, phi_j)


def gradient(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """First derivative on a wall-to-wall grid, O(dx^2), one-sided at the walls."""
    return np.gradient(arr, grid.dx, edge_order=2)


def _face_difference(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """arr[f + 1] - arr[f] across each face f, along the first (node) axis.

    Face n - 1 joins the last node to the first: on periodic grids it wraps,
    on electrode grids it is the closed wall and its difference is 0.
    """
    d = np.empty(arr.shape)
    np.subtract(arr[1:], arr[:-1], out=d[:-1])
    if grid.periodic:
        np.subtract(arr[:1], arr[-1:], out=d[-1:])
    else:
        d[-1] = 0.0
    return d


def _face_divergence(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(q[j] - q[j - 1]) / w[j] along the first axis, q[-1] on node 0's left.

    The net outflow of node j's cell, of width w[j], for face values q laid
    out as _face_difference's; a closed wall face carries q = 0.
    """
    out = np.empty(q.shape)
    np.subtract(q[1:], q[:-1], out=out[1:])
    np.subtract(q[:1], q[-1:], out=out[:1])
    out /= w
    return out


def second_derivative(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point second derivative along the last axis.

    The _face_divergence of _face_difference / dx over the quadrature cells.
    At an electrode wall the closed face makes it 2 (a1 - a0) / dx^2, an even
    reflection (ghost = a1): the discrete form of a homogeneous Neumann
    condition a_x = 0 and the variational closure of the face-difference
    gradient energy. Each row of a stacked (m, n) input gets the arithmetic
    of a 1-D call, bit for bit.
    """
    w = grid.weights if arr.ndim == 1 else grid.weights[:, None]
    return _face_divergence(_face_difference(arr.T, grid) / grid.dx, w).T


@lru_cache(maxsize=16)
def _dirichlet_factor(m: int) -> tuple[np.ndarray, np.ndarray]:
    """LDL^T factor (d, e) of the m x m interior matrix tridiag(-1, 2, -1)."""
    d, e, info = dpttrf(np.full(m, 2.0), np.full(m - 1, -1.0))
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrf failed with info={info}")
    d.setflags(write=False)
    e.setflags(write=False)
    return d, e


def solve_poisson_dirichlet(
    rhs: np.ndarray, grid: Grid, left: float, right: float
) -> np.ndarray:
    """Solve phi_xx = -rhs with phi(-L) = left, phi(L) = right.

    The interior matrix tridiag(-1, 2, -1) is symmetric positive definite
    and depends only on the size, so it is factored once per size (LAPACK
    pttrf, which loads scipy.linalg at the first solve) and each call runs
    only the triangular solves (pttrs). That is the same arithmetic as
    solveh_banded's ptsv, bit for bit. rhs is not checked for finiteness:
    a non-finite rhs gives a non-finite phi.
    """
    n = grid.n
    m = n - 2
    if m <= 0:
        raise ValueError("grid too small for a Poisson solve")
    # -phi_{j-1} + 2 phi_j - phi_{j+1} = dx^2 rhs_j, interior rows only
    b = grid.dx**2 * rhs[1:-1]
    b[0] += left
    b[-1] += right
    d, e = _dirichlet_factor(m)
    phi = np.empty(n)
    phi[0] = left
    phi[-1] = right
    # pttrs reports only illegal arguments, which the shapes here rule out
    phi[1:-1] = dpttrs(d, e, b, overwrite_b=True)[0]
    return phi


def solve_poisson_periodic(rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve phi_xx = -rhs on a periodic grid, zero-mean gauge.

    Uses the FFT diagonalization of the three-point Laplacian, so the answer
    is exact for the same discrete operator used elsewhere. The mean of rhs
    must vanish (net charge on a periodic cell); it is projected out to
    roundoff before solving.
    """
    n = grid.n
    dx2 = grid.dx**2
    f = rhs - rhs.mean()
    fh = np.fft.rfft(f)
    modes = np.arange(fh.size)
    sym = (2.0 - 2.0 * np.cos(2.0 * np.pi * modes / n)) / dx2
    sym[0] = 1.0  # zero mode handled by the gauge
    ph = fh / sym
    ph[0] = 0.0
    return np.fft.irfft(ph, n=n)


def trapz(arr: np.ndarray, grid: Grid) -> float:
    """Quadrature consistent with the grid (trapezoid / periodic rectangle)."""
    return float(grid.weights @ arr)


@dataclass(frozen=True)
class BoundaryConditions:
    """Wall treatment plus potential boundary data."""

    kind: str  # "electrode" | "periodic"
    phi_left: float = 0.0
    phi_right: float = 0.0

    def __post_init__(self):
        if self.kind not in ("electrode", "periodic"):
            raise ParameterError(f"unknown boundary kind {self.kind!r}")
        if not (math.isfinite(self.phi_left) and math.isfinite(self.phi_right)):
            raise ParameterError("electrode potentials must be finite")
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
    closure of second_derivative, mu_i - log cbar_i is exactly (1/w_j)
    dE/dc_ij of discrete_energy; the constant log cbar_i is absorbed by
    the mass multipliers and reaches no flux or Hessian.
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
    used by the fluxes (with the Neumann wall closure) less log cbar_i, a
    constant that no face difference sees, so along the semi-discrete
    flow, which conserves the masses, dE/dt = -sum_f c_f (dmu)^2 / dx <= 0
    identically.

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
    _face_divergence of dc / dx, the Neumann closure of
    second_derivative. The bulk density is h = sum_i c_i (log(c_i /
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
    and _assemble). At column k of species i, diag = d mu_i,k / d c_i,k =
    1/c + g_ii + 2 sigma/dx^2, and up, down = d mu_i,k-1 / d c_i,k, d
    mu_i,k+1 / d c_i,k are -sigma/dx^2 times the Laplacian's columns of
    _node_columns, the Neumann wall closure. The species couple only
    through g12, at the same node, which the callers add.
    """
    beta = -p.sigma / grid.dx**2
    up, down = beta * _node_columns(grid)[2]
    diag = 1.0 / c + np.array([p.g11, p.g22]) - 2.0 * beta
    return diag, up, down


def _flux_divergence(
    c: np.ndarray, mu: np.ndarray, grid: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, c_face, dmu): F interleaved like u, the face data as (n, 2)
    arrays, nodes first.

    Face f joins nodes f and f + 1 (mod n); on electrode grids face n - 1
    is the closed wall and carries nothing. Its flux is c_face dmu / dx,
    with c_face = (c_f + c_f+1) / 2, dmu = mu_f+1 - mu_f
    (_face_difference), and F_j = (flux_j - flux_j-1) / w_j
    (_face_divergence). Nodes first is u's interleaved order, in which a
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
    the band rows at nodes k + e, e = -2 ... 2, shape (5, n, 2). lap holds
    L[k - 1, k] and L[k + 1, k] of second_derivative's matrix L, times
    dx^2, shape (2, n, 2): 1 inside, 2 next to a wall (the mirror counts
    the neighbour twice), 0 beyond a wall, 1 everywhere on periodic grids.
    Repeating them for both species keeps every product full size: numpy's
    inner loop would otherwise run over the two species only. Per grid,
    read-only.
    """
    inv_w = 1.0 / grid.weights
    iw = np.stack([np.roll(inv_w, -e) for e in range(-2, 3)])
    lap = np.ones((2, grid.n))
    if not grid.periodic:
        lap[0, 0] = lap[1, -1] = 0.0
        lap[0, 1] = lap[1, -2] = 2.0
    out = tuple(np.repeat(x[..., None], 2, axis=-1) for x in (grid.weights, iw, lap))
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
    band storage for periodic runs, which dynamics._factor_step folds
    into an ordinary band.

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
    band = np.zeros((2 * _STEP_BAND + 1, n, 2))
    np.multiply(dflux[1:] - dflux[:-1], iw, out=band[0::2])
    cross *= iw[1:4]
    band[1:6:2, :, 1] = cross[:, :, 0]
    band[3:8:2, :, 0] = cross[:, :, 1]
    # the one finiteness check per band: the factorisation skips its own
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    return band.reshape(2 * _STEP_BAND + 1, 2 * n)


def _pack(
    c1: np.ndarray, c2: np.ndarray, phi: np.ndarray, lam1: float, lam2: float
) -> np.ndarray:
    m = 3 * c1.size
    u = np.empty(m + 2)
    u[0:m:3] = c1
    u[1:m:3] = c2
    u[2:m:3] = phi
    u[-2] = lam1
    u[-1] = lam2
    return u


def _unpack(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    m = u.size - 2
    return u[0:m:3], u[1:m:3], u[2:m:3], float(u[-2]), float(u[-1])


def _assemble(
    u: np.ndarray, p: ModelParams, grid: Grid, bc: BoundaryConditions
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Residual and Jacobian blocks at u.

    Returns (r, ab, C, D): full residual (3n + 2), the core band in
    solve_banded storage (2*_STATIONARY_BAND + 1, 3n), the dense
    multiplier columns C (3n, 2) and the mass rows D (2, 3n). The mass
    rows do not depend on the multipliers, so the 2 x 2 corner of the
    Jacobian is zero. The walls are Dirichlet in phi, so a periodic grid
    raises ParameterError.
    """
    if grid.periodic:
        raise ParameterError("the stationary solver needs a wall-to-wall grid")
    n = grid.n
    dx2 = grid.dx**2
    c1, c2, phi, lam1, lam2 = _unpack(u)
    if np.any(c1 <= 0.0) or np.any(c2 <= 0.0):
        raise ParameterError("stationary residual needs positive concentrations")
    c = np.column_stack((c1, c2))
    rho = _charge(c, p)
    w = grid.weights

    # residual nodes first: node j's rows mu1 - lam1, mu2 - lam2, Poisson
    m = 3 * n
    r = np.empty(m + 2)
    res = r[:m].reshape(n, 3)
    np.subtract(_mu_and_energy(c, rho, phi, p, grid)[0], (lam1, lam2), out=res[:, :2])
    res[1:-1, 2] = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx2 + rho[1:-1]
    res[0, 2] = phi[0] - bc.phi_left
    res[-1, 2] = phi[-1] - bc.phi_right
    r[m:] = w @ c - 2.0 * grid.L * p.cbar

    # Core band, ab[_STATIONARY_BAND + row - col, col] = J[row, col], nodes
    # first: jac[o + _STATIONARY_BAND, j, s] = J[3 j + s + o, 3 j + s],
    # column s of node j (c1, c2, phi) at row offset o
    ab = np.zeros((2 * _STATIONARY_BAND + 1, m))
    jac = ab.reshape(2 * _STATIONARY_BAND + 1, n, 3)
    # mu_i rows at nodes j, j - 1, j + 1 by c_i,j: _dmu_dc's diag, up, down
    jac[3, :, :2], jac[0, :, :2], jac[6, :, :2] = _dmu_dc(c, p, grid)
    jac[2, :, 1] = jac[4, :, 0] = p.g12  # mu1 by c2, mu2 by c1
    jac[1:3, :, 2] = p.z[:, None]  # mu1, mu2 by phi

    # Poisson rows at interior nodes j by c1_j, c2_j, phi_j, phi_j+-1;
    # Dirichlet rows at the walls
    jac[5, 1:-1, 0] = p.z1
    jac[4, 1:-1, 1] = p.z2
    jac[3, 1:-1, 2] = -2.0 / dx2
    jac[0, 2:, 2] = jac[6, :-2, 2] = 1.0 / dx2
    jac[3, [0, -1], 2] = 1.0

    C = np.zeros((m, 2))
    C[0:m:3, 0] = -1.0
    C[1:m:3, 1] = -1.0
    D = np.zeros((2, m))
    D[0, 0:m:3] = w
    D[1, 1:m:3] = w
    return r, ab, C, D


def _dresidual_dparam(
    u: np.ndarray, p: ModelParams, grid: Grid, param_name: str
) -> np.ndarray:
    """Analytic derivative of the residual in "sigma" or "voltage"."""
    n = grid.n
    m = 3 * n
    out = np.zeros(m + 2)
    if param_name == "sigma":
        c1, c2, _, _, _ = _unpack(u)
        out[0:m:3], out[1:m:3] = -second_derivative(np.array((c1, c2)), grid)
    else:
        # "voltage": Dirichlet rows phi_0 - (-V) and phi_{n-1} - V
        out[2] = 1.0
        out[m - 1] = -1.0
    return out
