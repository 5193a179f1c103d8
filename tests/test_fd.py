"""The Dirichlet Poisson solve, checked against a direct banded solve, and
the Laplacian's column stencil, checked against its apply form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from stericpnp._fd import _laplacian_columns, second_derivative, solve_poisson_dirichlet
from stericpnp.model import make_grid, make_periodic_grid


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
        grid = make_grid(half, n)
        rhs = rng.uniform(-10.0, 10.0, n)
        left, right = rng.uniform(-2.0, 2.0, 2)
        phi = solve_poisson_dirichlet(rhs, grid, left, right)
        assert np.array_equal(phi, _reference(rhs, grid, left, right))
        assert phi[0] == left and phi[-1] == right
        stencil = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / grid.dx**2
        assert np.max(np.abs(stencil + rhs[1:-1])) <= 1e-10 * np.max(np.abs(rhs))


@pytest.mark.parametrize("n", [8, 9, 57])
@pytest.mark.parametrize("periodic", [False, True], ids=["electrode", "periodic"])
def test_laplacian_columns_rebuild_second_derivative(periodic, n):
    grid = make_periodic_grid(1.5, n) if periodic else make_grid(1.5, n)
    cols = _laplacian_columns(grid)
    assert cols is _laplacian_columns(grid)
    with pytest.raises(ValueError):
        cols[0, 0] = 1.0
    # L[k - 1, k] and L[k + 1, k], wrapped; the walls' entries are zero
    L = np.diag(np.full(n, -2.0))
    for k in range(n):
        L[(k - 1) % n, k] += cols[0, k]
        L[(k + 1) % n, k] += cols[1, k]
    L /= grid.dx**2
    rng = np.random.default_rng(n)
    for _ in range(5):
        v = rng.uniform(-1.0, 1.0, n)
        expected = second_derivative(v, grid)
        assert np.max(np.abs(L @ v - expected)) <= 1e-13 * np.max(np.abs(v)) / grid.dx**2
