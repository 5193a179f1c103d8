"""Dense references for the stationary Jacobian and the stability index.

They share _Kernel.jacobian with the library but not its band
eigensolve: the band is unpacked into a full matrix, and the inertia
counted by numpy's eigvalsh.
"""

import numpy as np

from stericpnp._fd import _Kernel


def dense_jacobian(ab, C, D):
    """[[B, C], [D, 0]] with B[col + k, col] = ab[2 b + k, col], gbsv storage
    (_Kernel.jacobian, whose first b rows are workspace); off-matrix slots must be 0."""
    m = ab.shape[1]
    b = (ab.shape[0] - 1) // 3
    J = np.zeros((m + 2, m + 2))
    cols = np.arange(m)
    for k in range(-b, b + 1):
        rows = cols + k
        inside = (rows >= 0) & (rows < m)
        J[rows[inside], cols[inside]] = ab[2 * b + k, inside]
        assert np.all(ab[2 * b + k, ~inside] == 0.0)
    J[:m, m:] = C
    J[m:, :m] = D
    return J


def dense_index(state, p, grid, bc):
    """Negative eigenvalues of the dense bordered weighted Hessian, less n:
    each node's rows of _Kernel.jacobian times w_j, with the Dirichlet phi
    rows and columns dropped, bordered by the mass rows (numpy's eigvalsh,
    which reads the lower triangle)."""
    ab, C, D = _Kernel(p, grid, bc).jacobian(state.pack())
    m = 3 * grid.n
    K = np.repeat(grid.weights, 3)[:, None] * dense_jacobian(ab, C, D)[:m, :m]
    inner = np.delete(np.arange(m), [2, m - 1])
    bordered = np.block(
        [[K[np.ix_(inner, inner)], D[:, inner].T], [D[:, inner], np.zeros((2, 2))]]
    )
    return int(np.sum(np.linalg.eigvalsh(bordered) < 0.0)) - grid.n
