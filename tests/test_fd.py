"""The Dirichlet and periodic Poisson solves, checked against direct solves,
and the Laplacian's column stencil, checked against the kernel's Laplacian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from stericpnp._fd import (
    _Kernel,
    _node_columns,
    _periodic_symbol,
    solve_poisson_dirichlet,
    solve_poisson_periodic,
)
from stericpnp.model import DomainSpec, make_grid, make_params, make_periodic_grid

P_SYM = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)


def _reference(rhs, grid, left, right):
    """phi_xx = -rhs with Dirichlet walls, by one solveh_banded call."""
    m = grid.n - 2
    ab = np.zeros((2, m))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    b = grid.dx**2 * rhs[1:-1]
    b[0] += left
    b[-1] += right
    return np.concatenate(([left], solveh_banded(ab, b), [right]))


@settings(max_examples=30)
@given(
    sizes=st.lists(st.integers(8, 400), min_size=2, max_size=3, unique=True),
    half=st.floats(0.5, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dirichlet_poisson_matches_a_direct_banded_solve(sizes, half, seed):
    rng = np.random.default_rng(seed)
    # the sizes alternate and repeat, so each size's factor is reused after
    # another size has been solved
    for n in sizes * 2:
        grid = make_grid(DomainSpec(half), n)
        rhs = rng.uniform(-10.0, 10.0, n)
        left, right = rng.uniform(-2.0, 2.0, 2)
        phi = solve_poisson_dirichlet(rhs, grid, left, right)
        assert np.array_equal(phi, _reference(rhs, grid, left, right))
        assert phi[0] == left and phi[-1] == right
        stencil = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / grid.dx**2
        assert np.max(np.abs(stencil + rhs[1:-1])) <= 1e-10 * np.max(np.abs(rhs))


@pytest.mark.parametrize("n", [8, 9, 64, 101])
def test_periodic_poisson_matches_a_dense_circulant_solve(n):
    """phi_xx = -rhs with the circulant three-point Laplacian, in the
    zero-mean gauge: the dense solve of L phi + lam = -rhs, sum phi = 0."""
    grid = make_periodic_grid(1.7, n)
    rng = np.random.default_rng(n)
    rhs = rng.uniform(-10.0, 10.0, n)
    rhs -= rhs.mean()
    eye = np.eye(n)
    bordered = np.ones((n + 1, n + 1))
    bordered[:n, :n] = (np.roll(eye, 1, axis=0) - 2.0 * eye + np.roll(eye, -1, axis=0)) / grid.dx**2
    bordered[n, n] = 0.0
    expected = np.linalg.solve(bordered, np.append(-rhs, 0.0))[:n]
    phi = solve_poisson_periodic(rhs, grid)
    assert np.max(np.abs(phi - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert abs(phi.mean()) <= 1e-15 * np.max(np.abs(phi))
    # the symbol is built once per size and spacing, read-only, and a
    # second solve returns the same bytes
    sym = _periodic_symbol(n, grid.dx)
    assert sym is _periodic_symbol(n, grid.dx) and not sym.flags.writeable
    assert solve_poisson_periodic(rhs, grid).tobytes() == phi.tobytes()


@pytest.mark.parametrize("n", [8, 9, 57])
@pytest.mark.parametrize("periodic", [False, True], ids=["electrode", "periodic"])
def test_laplacian_columns_rebuild_second_derivative(periodic, n):
    grid = make_periodic_grid(1.5, n) if periodic else make_grid(DomainSpec(1.5), n)
    kernel = _Kernel(P_SYM, grid)
    lap = _node_columns(grid)[2]
    assert lap is _node_columns(grid)[2]
    with pytest.raises(ValueError):
        lap[0, 0, 0] = 1.0
    # the same columns for both species
    assert np.array_equal(lap[..., 0], lap[..., 1])
    cols = lap[..., 0]
    # L[k - 1, k] and L[k + 1, k], wrapped; the walls' entries are zero
    L = np.diag(np.full(n, -2.0))
    for k in range(n):
        L[(k - 1) % n, k] += cols[0, k]
        L[(k + 1) % n, k] += cols[1, k]
    L /= grid.dx**2
    rng = np.random.default_rng(n)
    for _ in range(5):
        c = rng.uniform(-1.0, 1.0, (n, 2))
        expected = kernel.laplacian(c)
        assert np.max(np.abs(L @ c - expected)) <= 1e-13 * np.max(np.abs(c)) / grid.dx**2
    # C or Fortran ordered, each species column is its own: paired with
    # any other column, it gives the same bits
    state = rng.uniform(-1.0, 1.0, (n, 2))
    for arr in (state, np.asfortranarray(state)):
        cols = kernel.laplacian(arr)
        assert cols.shape == (n, 2)
        for s in range(2):
            other = np.column_stack((state[:, s], rng.uniform(-1.0, 1.0, n)))
            assert cols[:, s].tobytes() == kernel.laplacian(other)[:, 0].tobytes()
