"""Second-order finite-difference building blocks on uniform grids.

Shared by the energy diagnostics, the time integrator, and the stationary
solver so that every module differentiates and integrates the same way.
Electrode grids include both endpoints; periodic grids wrap.
The Laplacian's Neumann wall closure lives here only: second_derivative
applies it, and _laplacian_columns gives it to the exact Jacobians.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .model import Grid


def gradient(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """First derivative on a wall-to-wall grid, O(dx^2), one-sided at the walls."""
    return np.gradient(arr, grid.dx, edge_order=2)


def second_derivative(arr: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point second derivative.

    Electrode grids reflect evenly at the walls (ghost = a1), the discrete
    form of a homogeneous Neumann condition a_x = 0 and the variational
    closure of the face-difference gradient energy.
    """
    dx2 = grid.dx**2
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - 2.0 * arr[1:-1] + arr[:-2]) / dx2
    if grid.periodic:
        out[0] = (arr[1] - 2.0 * arr[0] + arr[-1]) / dx2
        out[-1] = (arr[0] - 2.0 * arr[-1] + arr[-2]) / dx2
    else:
        out[0] = 2.0 * (arr[1] - arr[0]) / dx2
        out[-1] = 2.0 * (arr[-2] - arr[-1]) / dx2
    return out


@lru_cache(maxsize=16)
def _laplacian_columns(grid: Grid) -> np.ndarray:
    """L[k - 1, k] and L[k + 1, k] of second_derivative's matrix, times dx^2.

    1 inside, 2 next to a wall (the mirror counts the neighbour twice), 0
    beyond a wall, 1 everywhere on periodic grids; per grid, read-only.
    """
    cols = np.ones((2, grid.n))
    if not grid.periodic:
        cols[0, 0] = cols[1, -1] = 0.0
        cols[0, 1] = cols[1, -2] = 2.0
    cols.setflags(write=False)
    return cols


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
    pttrf) and each call runs only the triangular solves (pttrs). That is
    the same arithmetic as solveh_banded's ptsv, bit for bit. rhs is not
    checked for finiteness: a non-finite rhs gives a non-finite phi.
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
