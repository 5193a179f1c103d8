"""Linear stability of the homogeneous state: dispersion relation and onset.

The onset numbers for the symmetric parameter set have closed forms
(sigma_c = 1/32, k_c = 2 sqrt(2), g12 threshold 3) that the solver must hit
to rounding (sigma_c exactly); the asymmetric set is pinned by a 40-digit
double-root solve of det B = 0 (mpmath), and random parameters are checked
through the zero-growth locus and the growth rate, which do not use the
onset cubic, and by the cubic's sign change at the root.
On a periodic grid the same relation holds exactly for the uniform state's
discrete Jacobian, with k^2 replaced by the finite-difference symbol.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from stericpnp._fd import _band, _Kernel
from stericpnp.dynamics import periodic_bc, solve_potential
from stericpnp.energy import g12_critical, hessian_det
from stericpnp.errors import NoOnsetError
from stericpnp.model import homogeneous_profile, make_params, make_periodic_grid, with_sigma
from stericpnp.stability import (
    _onset_root,
    dispersion,
    find_onset,
    growth_matrix,
    interaction_matrix,
    max_growth_rate,
    sigma_zero_locus,
    verify_onset,
)

from _strategies import admissible_params

P_SYM = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
P_FIG10 = make_params(1, -1, 3.6, 0.4, 2.65, 1.0, 1.0)
P_FIG6 = make_params(1, -1, 3.4, 0.6, 2.65, 2.0, 2.01)


class TestOnsetSymmetric:
    def test_closed_forms(self):
        onset = find_onset(P_SYM)
        assert onset.sigma_c == 1.0 / 32.0
        assert onset.k_c == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-13)
        assert onset.g12_crit == pytest.approx(3.0, rel=1e-10)

    def test_null_vectors(self):
        onset = find_onset(P_SYM)
        # long-wave vector is symmetric, the critical one antisymmetric
        assert np.linalg.norm(onset.v0) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(onset.v_kc) == pytest.approx(1.0, rel=1e-12)
        assert onset.v0[0] == pytest.approx(onset.v0[1], rel=1e-9)
        assert onset.v_kc[0] == pytest.approx(-onset.v_kc[1], rel=1e-9)

    def test_residual_diagnostics(self):
        onset = find_onset(P_SYM)
        assert abs(onset.residual_rate) < 1e-8
        res = verify_onset(onset, P_SYM)
        assert set(res) == {"consistent", "as_printed"}
        assert abs(res["consistent"]) < 1e-10
        assert res["as_printed"] == pytest.approx(-42.0, rel=1e-8)


class TestOnsetAsymmetric:
    def test_frozen_values(self):
        onset = find_onset(P_FIG10)
        assert onset.sigma_c == pytest.approx(0.0012307602663980475, rel=1e-10)
        assert onset.k_c == pytest.approx(6.229788966886232, rel=1e-10)

    def test_null_vector_ratio(self):
        onset = find_onset(P_FIG10)
        assert onset.v_kc[0] / onset.v_kc[1] == pytest.approx(
            -0.5615096539013601, rel=1e-9
        )
        # same number quoted the other way up
        assert onset.v_kc[1] / onset.v_kc[0] == pytest.approx(-1.78091328, rel=1e-7)

    def test_as_printed_variant(self):
        onset = find_onset(P_FIG10)
        res = verify_onset(onset, P_FIG10)
        assert abs(res["consistent"]) < 1e-9
        assert res["as_printed"] == pytest.approx(-226.8616232727839, rel=1e-9)
        # the as-printed polynomial is inconsistent with the dispersion
        # relation away from special parameter points, by design
        assert abs(res["as_printed"]) > 1.0


def test_onset_needs_enough_cross_repulsion():
    with pytest.raises(NoOnsetError):
        find_onset(make_params(1, -1, 2.0, 2.0, 2.8, 1.0, 1.0))


@pytest.mark.parametrize(
    "g11, g22, g12",
    [(3.0, 1.0, 2.8284271247461907), (2.5, 1.5, 2.9580398915498085),
     (2.2, 1.8, 2.9933259094191533)],
)
def test_onset_one_ulp_above_threshold_is_no_onset(g11, g22, g12):
    # g12 is one ulp above g12_crit, so D(cbar) < 0 is pure rounding and
    # sigma_c would lie below it
    p = make_params(1, -1, g11, g22, g12, 1, 1)
    assert g12 > g12_critical(p)
    with pytest.raises(NoOnsetError, match=r"D\(cbar\)"):
        find_onset(p)


def test_dispersion_zero_mode_is_neutral():
    k = np.array([0.0, 0.5, 1.0, 2.0, 2.8284271247461903, 4.0])
    res = dispersion(k, P_SYM, sigma=1.0 / 32.0)
    assert res.rate[0] == 0.0
    assert res.rate.shape == k.shape
    # at onset the whole curve is nonpositive with a zero max at k_c
    assert res.rate.max() < 1e-8
    assert res.rate[4] == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize(
    "sigma, expected",
    [(0.02, 0.7200000000647577), (0.06, -1.840000000165496)],
)
def test_growth_rate_at_kc_is_linear_in_sigma(sigma, expected):
    # for the symmetric set the rate at k_c is exactly k_c^4 (sigma_c - sigma)
    kc = 2.0 * np.sqrt(2.0)
    rate = max_growth_rate(kc, P_SYM, sigma=sigma)
    assert rate == pytest.approx(expected, rel=1e-9)
    assert rate == pytest.approx(kc**4 * (1.0 / 32.0 - sigma), rel=1e-8)


def test_sigma_zero_locus_touches_onset():
    onset = find_onset(P_SYM)
    assert sigma_zero_locus(onset.k_c, P_SYM) == pytest.approx(onset.sigma_c, rel=1e-9)
    for k in (0.8 * onset.k_c, 1.7 * onset.k_c):
        assert sigma_zero_locus(k, P_SYM) < onset.sigma_c
    # long waves are held down by the electrostatic coupling at every sigma
    assert np.isnan(sigma_zero_locus(0.5 * onset.k_c, P_SYM))


def test_large_k_rate_dominated_by_regularization():
    sigma = 0.01
    k = 60.0
    rate = max_growth_rate(k, P_SYM, sigma=sigma)
    assert rate < 0
    assert rate == pytest.approx(-sigma * k**4, rel=0.15)


def test_growth_matrix_consistency():
    rng = np.random.default_rng(3)
    for _ in range(25):
        k = rng.uniform(0.1, 8.0)
        sigma = rng.uniform(0.0, 0.05)
        M = growth_matrix(k, P_FIG10, sigma=sigma)
        lam = np.linalg.eigvals(M)
        assert max_growth_rate(k, P_FIG10, sigma=sigma) == pytest.approx(
            float(np.max(lam.real)), rel=1e-10, abs=1e-12
        )


def test_interaction_matrix_singular_at_onset():
    onset = find_onset(P_FIG10)
    M = interaction_matrix(onset.k_c, P_FIG10, sigma=onset.sigma_c)
    assert abs(np.linalg.det(M)) < 1e-8


def _uniform_state_jacobian(p, n, half):
    """Dense Jacobian of evolve's right-hand side at the uniform state on an
    n-node periodic grid, unknowns interleaved (c1_j, c2_j), and the grid.

    _band is the Jacobian at frozen phi. The potential adds c_i z_i
    d(phi)_xx = -cbar_i z_i (z . dc - its mean), node-local apart from the
    mean, which the periodic Poisson solve drops.
    """
    grid = make_periodic_grid(half, n)
    prof = homogeneous_profile(grid, p)
    phi = solve_potential(prof.c1, prof.c2, p, grid, periodic_bc())
    c = np.column_stack((prof.c1, prof.c2))
    u = c.ravel()
    kernel = _Kernel(p, grid)
    kernel.flux_divergence(c, kernel.mu_and_energy(c, kernel.charge(c), phi)[0])
    band = _band(u, kernel.c_face, kernel.dmu, p, grid)
    size = 2 * n
    J = np.zeros((size, size))
    cols = np.arange(size)
    for o in range(-4, 5):
        J[(cols - o) % size, cols] += band[4 - o]
    J += np.kron(np.eye(n) - 1.0 / n, -np.outer(p.cbar * p.z, p.z))
    return J, grid


def _top_rate(p, n, half):
    return np.linalg.eigvals(_uniform_state_jacobian(p, n, half)[0]).real.max()


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_discrete_dispersion_relation_is_the_continuum_one_at_the_fd_symbol(sigma_term, data):
    """Mode m = 1 ... n - 1 (k_m = pi m / L) of the discrete Jacobian has
    the rates of growth_matrix(sqrt(s_m)), s_m = (4 / dx^2) sin^2(k_m dx / 2),
    the symbol of the three-point Laplacian; mode 0 has two zero rates."""
    p = data.draw(admissible_params(sigma_term))
    n = data.draw(st.integers(16, 64))
    J, grid = _uniform_state_jacobian(p, n, data.draw(st.floats(0.5, 3.0)))
    rates = np.linalg.eigvals(J)
    s = (4.0 / grid.dx**2) * np.sin(np.pi * np.arange(1, n) / n) ** 2
    expected = np.concatenate(
        [np.zeros(2)] + [np.linalg.eigvals(growth_matrix(np.sqrt(x), p, p.sigma)) for x in s]
    )
    scale = np.abs(rates).max()
    assert np.abs(rates.imag).max() <= 1e-10 * scale
    assert np.abs(np.sort(rates.real) - np.sort(expected.real)).max() <= 1e-10 * scale


@pytest.mark.parametrize("p", [P_SYM, P_FIG6], ids=["sym", "fig6"])
def test_discrete_top_rate_grows_as_one_over_dx2_at_sigma_zero_and_is_bounded_above_it(p):
    """The paper's contrast on the grid. In a concave bulk at sigma = 0 the
    top rate is about s_max lambda + a with s_max = 4 / dx^2, so each
    doubling of n multiplies it by 4 - 3 a / (s_max lambda + a): 4.19 from
    16 to 32 nodes on P_FIG6, within 2 % of 4 from 32 nodes on. At sigma > 0
    every grid's top rate is a sample of the continuum relation, so none
    exceeds its supremum."""
    half = 2.0
    assert hessian_det(p.cbar1, p.cbar2, p) < 0
    tops = [_top_rate(p, n, half) for n in (32, 64, 128)]
    for coarse, fine in zip(tops, tops[1:]):
        assert fine / coarse == pytest.approx(4.0, rel=0.02)

    q = with_sigma(p, 0.01)
    k = np.linspace(0.0, 2.0 * 128 / (2.0 * half), 4001)
    rate = dispersion(k, q, q.sigma).rate
    i = int(np.argmax(rate))
    best = minimize_scalar(
        lambda x: -max_growth_rate(x, q, q.sigma),
        bounds=(k[max(i - 1, 0)], k[i + 1]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    sup = max(rate[i], -best.fun)
    tops = [_top_rate(q, n, half) for n in (16, 32, 64, 128)]
    assert all(0.0 < top <= sup * (1.0 + 1e-9) for top in tops)


@given(
    z1=st.floats(0.5, 3.0),
    z2=st.floats(-3.0, -0.5),
    g11=st.floats(0.0, 4.0),
    g22=st.floats(0.0, 4.0),
    cbar1=st.floats(0.2, 3.0),
    cbar2=st.floats(0.2, 3.0),
    eps=st.floats(1e-3, 1.0),
)
def test_onset_exists_and_is_marginal_over_random_couplings(z1, z2, g11, g22, cbar1, cbar2, eps):
    g12 = g12_critical(make_params(z1, z2, g11, g22, 0.0, cbar1, cbar2)) * (1.0 + eps)
    p = make_params(z1, z2, g11, g22, g12, cbar1, cbar2)
    onset = find_onset(p)
    k_c, sigma_c = onset.k_c, onset.sigma_c
    assert sigma_c > 0
    assert k_c > 0
    scale = abs(max_growth_rate(2.0 * k_c, p, sigma_c)) + 1.0
    assert abs(max_growth_rate(k_c, p, sigma_c)) <= 1e-10 * scale
    # k_c is the maximizer of the zero-growth locus, sigma_c its maximum
    assert sigma_zero_locus(k_c, p) == pytest.approx(sigma_c, rel=1e-10)
    for k in (k_c * (1.0 - 1e-3), k_c * (1.0 + 1e-3)):
        assert sigma_zero_locus(k, p) < sigma_c
    res = dispersion(np.linspace(0.0, 3 * k_c, 400), p, sigma=sigma_c)
    assert res.rate.max() < 1e-10
    assert res.rate.max() > -1e-3
    # the root is the float at which the onset cubic changes sign
    t, S, w = _onset_root(p, g12_critical(p))
    a1, a2 = 1.0 / cbar1 + g11, 1.0 / cbar2 + g22
    zz = z1**2 + z2**2
    coeffs = (2.0 * zz, zz * S + 3.0 * w, 2.0 * w * S, w * (a1 * a2 - g12**2))
    signs = [np.sign(np.polyval(coeffs, x)) for x in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0))]
    assert signs[1] == 0 or signs[0] != signs[1] or signs[2] != signs[1]


@given(
    z1=st.floats(0.5, 3.0),
    z2=st.floats(-3.0, -0.5),
    g11=st.floats(0.0, 4.0),
    g22=st.floats(0.0, 4.0),
    cbar1=st.floats(0.2, 3.0),
    cbar2=st.floats(0.2, 3.0),
    eps=st.floats(1e-3, 1.0),
    stretch=st.floats(0.05, 10.0),
)
def test_sigma_zero_locus_is_the_marginal_sigma_off_onset(
    z1, z2, g11, g22, cbar1, cbar2, eps, stretch
):
    g12 = g12_critical(make_params(z1, z2, g11, g22, 0.0, cbar1, cbar2)) * (1.0 + eps)
    p = make_params(z1, z2, g11, g22, g12, cbar1, cbar2)
    # sigma_0(k) > 0 exactly for k^2 > -w / D, where det B(k; 0) < 0
    a1, a2 = 1.0 / cbar1 + g11, 1.0 / cbar2 + g22
    w = a1 * z2**2 + a2 * z1**2 - 2.0 * g12 * z1 * z2
    k = np.sqrt(-w / (a1 * a2 - g12**2)) * (1.0 + stretch)
    assume(abs(k / find_onset(p).k_c - 1.0) > 1e-2)
    s0 = sigma_zero_locus(k, p)
    assert s0 > 0
    scale = np.abs(growth_matrix(k, p, s0)).max()
    assert abs(max_growth_rate(k, p, s0)) <= 1e-10 * scale
    # the larger root: growing just below it, decaying just above it
    assert max_growth_rate(k, p, s0 * (1.0 - 1e-6)) > 0
    assert max_growth_rate(k, p, s0 * (1.0 + 1e-6)) < 0
