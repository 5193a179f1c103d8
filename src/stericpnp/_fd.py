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
discrete masses are conserved to roundoff by construction. _Kernel, the
model at one (p, grid, bc), is the one writer of each quantity: charge
and potential write rho and phi (potential runs the Dirichlet solve of
solve_poisson_dirichlet or the periodic one of solve_poisson_periodic),
mu_and_energy writes mu and the discrete energy, and flux_divergence
writes F with the face data that _band reads. solve_potential,
time_derivatives, chemical_potential, discrete_energy and the stationary
residual each build a kernel per call, and the time stepper one per run.
The closing face lives here only: _faces pads each face array with it (0
at an electrode wall, the wrap on a periodic grid), and second_derivative,
mu, the energy and F all difference those arrays. _node_columns holds the
Laplacian's matrix columns for _dmu_dc, the d mu / d c behind both exact
Jacobians: _band, the time stepper's, and _assemble, the stationary solver's.

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
Its mu rows are _Kernel.mu_and_energy's mu, so converged states are
exact fixed points of the time stepper. _assemble writes the residual
and its Jacobian: banded (l = u = 3 in the node-interleaved ordering),
bordered by dense columns for the multipliers and dense mass rows.
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


def _faces(
    arr: np.ndarray, grid: Grid, op=np.subtract, out: np.ndarray | None = None
) -> np.ndarray:
    """op(arr[f + 1], arr[f]) at each face f along the first (node) axis,
    padded to n + 1 rows, row f + 1 for face f.

    Rows 0 and n both hold the closing face n - 1, from the last node to the
    first: op(arr[0], arr[-1]) on a periodic grid, 0 at an electrode wall.
    The outflow of the cells, of widths w, is then (q[1:] - q[:-1]) / w.
    out, if given, receives the faces; on an electrode grid its rows 0 and
    n must already hold 0 (a _Kernel buffer, zeroed once when made).
    """
    q = np.zeros((arr.shape[0] + 1,) + arr.shape[1:]) if out is None else out
    op(arr[1:], arr[:-1], out=q[1:-1])
    if grid.periodic:
        op(arr[:1], arr[-1:], out=q[-1:])
        q[0] = q[-1]
    return q


def second_derivative(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point second derivative along the last axis.

    The divergence of the _faces differences / dx over the quadrature cells.
    At an electrode wall the closed face makes it 2 (a1 - a0) / dx^2, an even
    reflection (ghost = a1): the discrete form of a homogeneous Neumann
    condition a_x = 0 and the variational closure of the face-difference
    gradient energy. Each row of a stacked (m, n) input gets the arithmetic
    of a 1-D call, bit for bit.
    """
    w = grid.weights if arr.ndim == 1 else grid.weights[:, None]
    d = _faces(arr.T, grid) / grid.dx
    return ((d[1:] - d[:-1]) / w).T


@lru_cache(maxsize=16)
def _dirichlet_factor(m: int) -> tuple[np.ndarray, np.ndarray]:
    """LDL^T factor (d, e) of the m x m interior matrix tridiag(-1, 2, -1)."""
    if m <= 0:
        raise ValueError("grid too small for a Poisson solve")
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
    return _solve_dirichlet(rhs, grid.dx**2, _dirichlet_factor(grid.n - 2), left, right)


def _solve_dirichlet(
    rhs: np.ndarray,
    dx2: float,
    factor: tuple[np.ndarray, np.ndarray],
    left: float,
    right: float,
) -> np.ndarray:
    """The Dirichlet solve, in place: the interior of the fresh phi takes
    the right-hand side, and pttrs overwrites it with the solution."""
    phi = np.empty(rhs.size)
    phi[0] = left
    phi[-1] = right
    # -phi_{j-1} + 2 phi_j - phi_{j+1} = dx^2 rhs_j, interior rows only
    b = np.multiply(rhs[1:-1], dx2, out=phi[1:-1])
    b[0] += left
    b[-1] += right
    # b is a contiguous float64 view, so pttrs solves in it; it reports only
    # illegal arguments, which the shapes here rule out
    dpttrs(*factor, b, overwrite_b=True)
    return phi


@lru_cache(maxsize=16)
def _periodic_symbol(n: int, dx: float) -> np.ndarray:
    """-(three-point Laplacian) on the rfft modes, 1 at the gauge's mode 0."""
    modes = np.arange(n // 2 + 1)
    sym = (2.0 - 2.0 * np.cos(2.0 * np.pi * modes / n)) / dx**2
    sym[0] = 1.0
    sym.setflags(write=False)
    return sym


def solve_poisson_periodic(rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve phi_xx = -rhs on a periodic grid, zero-mean gauge.

    Uses the FFT diagonalization of the three-point Laplacian, so the answer
    is exact for the same discrete operator used elsewhere; its symbol is
    built once per grid size and spacing (_periodic_symbol). The mean of
    rhs must vanish (net charge on a periodic cell); it is projected out to
    roundoff before solving.
    """
    return _solve_periodic(rhs, _periodic_symbol(grid.n, grid.dx))


def _solve_periodic(rhs: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    ph = np.fft.rfft(rhs - rhs.mean()) / symbol
    ph[0] = 0.0
    return np.fft.irfft(ph, n=rhs.size)


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
    kernel = _Kernel(p, grid, bc)
    return kernel.potential(kernel.charge(np.column_stack((c1, c2))))


def chemical_potential(
    c1: np.ndarray,
    c2: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> np.ndarray:
    """mu_i = log c_i + (G c)_i + z_i phi - sigma c_i,xx, as one (2, n) stack.

    The rows of _Kernel.mu_and_energy's mu, the only place mu is written:
    the time stepper and the stationary solver both take it from there
    (mu1, mu2 = chemical_potential(...) unpacks the rows). With the Neumann
    wall closure of second_derivative, mu_i - log cbar_i is exactly (1/w_j)
    dE/dc_ij of discrete_energy; the constant log cbar_i is absorbed by
    the mass multipliers and reaches no flux or Hessian.
    """
    kernel, c = _Kernel(p, grid), np.column_stack((c1, c2))
    return kernel.mu_and_energy(c, kernel.charge(c), phi)[0].T


def time_derivatives(
    c1: np.ndarray,
    c2: np.ndarray,
    phi: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    kernel, c = _Kernel(p, grid), np.column_stack((c1, c2))
    f = kernel.flux_divergence(c, kernel.mu_and_energy(c, kernel.charge(c), phi)[0])
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

    The energy of _Kernel.mu_and_energy, which writes it. Exact zeros are
    taken with the limit c log c -> 0; a negative concentration raises
    ParameterError.
    """
    kernel, c = _Kernel(p, grid), np.column_stack((c1, c2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return kernel.mu_and_energy(c, kernel.charge(c), phi)[1]


class _Kernel:
    """The discrete model at one (p, grid, bc): the one writer of the charge
    density and the potential (charge, potential), of mu and the discrete
    energy (mu_and_energy) and of F = (c mu_x)_x with its face data
    (flux_divergence).

    evolve builds one per run; the public functions above and _assemble
    build one per call. It holds what no state changes: z, G, rho0, sigma
    / dx, 1 + log cbar, the quadrature weights, and, when bc is given, the
    Dirichlet factor and wall potentials or the periodic symbol. It also
    holds a work buffer for every intermediate, each face buffer with its
    electrode closing rows zeroed once (_faces), so that an evaluation
    allocates nothing but the fresh phi that potential returns.

    A result held in a buffer (rho, mu, F and the face data c_face and
    dmu) stands until the next call of the method that wrote it. mu and
    the energy's face differences are separate from F's face data, so
    evaluating a candidate state leaves F, c_face and dmu of the current
    state, which a retried step solves again and builds _band from.
    """

    def __init__(self, p: ModelParams, grid: Grid, bc: BoundaryConditions | None = None):
        n = grid.n
        self.grid = grid
        self.dx = grid.dx
        self.weights = grid.weights
        self.w = _node_columns(grid)[0]
        self.z = p.z
        self.G = p.G
        self.rho0 = p.rho0
        self.half_sigma = 0.5 * p.sigma
        self.sigma_dx = p.sigma / grid.dx
        self.log_cbar1 = 1.0 + np.log(p.cbar)
        self.symbol = self.dirichlet = None
        if bc is not None and bc.kind == "periodic":
            self.symbol = _periodic_symbol(n, grid.dx)
        elif bc is not None:
            self.dirichlet = (grid.dx**2, _dirichlet_factor(n - 2), bc.phi_left, bc.phi_right)

        self.rho = np.empty(n)
        self._rho_phi = np.empty(n)
        self._log_c, self._gc, self.mu, self._zphi, self._lap = np.empty((5, n, 2))
        self._dc = np.zeros((n + 1, 2))
        self._dphi = np.zeros(n + 1)
        # c_face row k holds face k - 2 mod n, the layout _band reads; its
        # rows 1 ... n + 1 are the _faces padding of the sums
        self.c_face = np.zeros((n + 3, 2))
        self._c_sum = self.c_face[1:-1]
        self.dmu = np.zeros((n + 1, 2))
        self._flux = np.empty((n + 1, 2))
        self._f = np.empty((n, 2))
        self._f_flat = self._f.reshape(-1)

    def charge(self, c: np.ndarray) -> np.ndarray:
        """rho = z . c + rho0 of an (n, 2) state, nodes first."""
        rho = np.dot(c, self.z, out=self.rho)
        rho += self.rho0
        return rho

    def potential(self, rho: np.ndarray) -> np.ndarray:
        """A fresh phi from phi_xx = -rho; rho is not modified."""
        if self.symbol is not None:
            return _solve_periodic(rho, self.symbol)
        return _solve_dirichlet(rho, *self.dirichlet)

    def mu_and_energy(
        self, c: np.ndarray, rho: np.ndarray, phi: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """(mu, E) of the state c, shape (n, 2) nodes first, with charge rho.

        The one writer of the chemical potential and of the discrete energy
        (see chemical_potential and discrete_energy): log c, G c and the
        face differences dc (_faces) are computed once and shared. The
        Laplacian in mu is the divergence of dc / dx, the Neumann closure of
        second_derivative. The bulk density is h = sum_i c_i (log(c_i /
        cbar_i) - 1 + (G c)_i / 2), with h_i = 0 at c_i = 0 (0 log 0 -> 0);
        a negative concentration, which leaves it NaN, raises
        ParameterError.
        """
        w = self.w
        log_c = np.log(c, out=self._log_c)
        gc = np.dot(c, self.G, out=self._gc)  # (G c)_i at every node; G is symmetric
        dc = _faces(c, self.grid, out=self._dc)
        mu = np.add(log_c, gc, out=self.mu)
        mu += np.dot(phi[:, None], self.z[None], out=self._zphi)  # z_i phi_j, one outer product
        lap = np.subtract(dc[1:], dc[:-1], out=self._lap)
        lap /= w
        lap *= self.sigma_dx
        mu -= lap

        gc *= 0.5
        gc += log_c
        gc -= self.log_cbar1
        dens = np.multiply(c, gc, out=gc)
        bulk = float(np.vdot(w, dens))
        if math.isnan(bulk):
            # 0 log 0 and a negative concentration both leave the entropy NaN:
            # only then is the sign looked at
            if (c < 0).any():
                raise ParameterError("concentrations must be nonnegative")
            dens[c == 0] = 0.0
            bulk = float(np.vdot(w, dens))
        dc, dphi = dc[1:], _faces(phi, self.grid, out=self._dphi)[1:]  # the closing face once
        energy = (
            bulk
            + float(self.weights @ np.multiply(rho, phi, out=self._rho_phi))
            + (self.half_sigma * float(np.vdot(dc, dc)) - 0.5 * float(dphi @ dphi)) / self.dx
        )
        return mu, energy

    def flux_divergence(self, c: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """F of the state c with chemical potential mu, both (n, 2) nodes
        first; F comes interleaved like u.

        Face f joins nodes f and f + 1 (mod n); on electrode grids face n - 1
        is the closed wall and carries nothing. Its flux is c_face dmu / dx,
        with c_face = (c_f + c_f+1) / 2 and dmu = mu_f+1 - mu_f from _faces,
        and F_j = (flux_j - flux_j-1) / w_j. Nodes first is u's interleaved
        order, in which a shift by whole nodes is a contiguous slice.

        Leaves the face data that _band reads in the kernel: c_face, shape
        (n + 3, 2), holds face k - 2 mod n at row k, and dmu, shape (n + 1,
        2), face k - 1 mod n at row k (_faces' padding).
        """
        q = _faces(c, self.grid, np.add, out=self._c_sum)
        q *= 0.5
        c_face = self.c_face
        c_face[0] = c_face[-3]
        c_face[-1] = c_face[2]
        dmu = _faces(mu, self.grid, out=self.dmu)
        flux = np.multiply(q, dmu, out=self._flux)
        flux /= self.dx
        f = np.subtract(flux[1:], flux[:-1], out=self._f)
        f /= self.w
        return self._f_flat


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


@lru_cache(maxsize=16)
def _node_columns(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node constants at both species, nodes first: (w, iw, lap).

    w is the quadrature weight, shape (n, 2); iw[2 + e] = 1 / w_{k+e} for
    the band rows at nodes k + e, e = -2 ... 2, shape (5, n, 2). lap holds
    L[k - 1, k] and L[k + 1, k] of second_derivative's matrix L, times
    dx^2, shape (2, n, 2): 1 inside, 2 next to a wall (the _faces closure
    counts the neighbour twice), 0 beyond a wall, 1 on periodic grids.
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


def _band(
    u: np.ndarray,
    c_face: np.ndarray,
    dmu: np.ndarray,
    p: ModelParams,
    grid: Grid,
) -> np.ndarray:
    """The exact Jacobian J of F at frozen phi, interleaved, from the face
    data (c_face, dmu) that _Kernel.flux_divergence left for the same u,
    in its layout: row k of c_face holds face k - 2 mod n, row k of dmu
    face k - 1 mod n.

    u and F interleave (c1_k, c2_k). The band holds band[4 - o, col] =
    J[col - o, col], indices mod 2n: scipy's solve_banded storage for
    electrode runs, whose wrapped corners are exactly zero, and circular
    band storage for periodic runs, which dynamics._factor_step folds
    into an ordinary band.

    The flux of face f (_Kernel.flux_divergence), a_f dmu_f with a_f = c_face /
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
    a = c_face / dx
    h = 0.5 * dmu / dx
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
    kernel = _Kernel(p, grid)
    rho = kernel.charge(c)
    w = grid.weights

    # residual nodes first: node j's rows mu1 - lam1, mu2 - lam2, Poisson
    m = 3 * n
    r = np.empty(m + 2)
    res = r[:m].reshape(n, 3)
    np.subtract(kernel.mu_and_energy(c, rho, phi)[0], (lam1, lam2), out=res[:, :2])
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
