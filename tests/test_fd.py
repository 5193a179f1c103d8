"""The Dirichlet Poisson solve, checked against a direct banded solve."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from stericpnp._fd import solve_poisson_dirichlet
from stericpnp.model import make_grid


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
