"""Free-energy landscape checks: Hessian determinant, convexity, segregation.

Point values were frozen from runs of the implementation after the formulas
were checked against independent derivations (direct 2x2 determinant of
diag(1/c) + G on one side, the expanded rational identity on the other).
"""

import numpy as np
import pytest
from scipy.integrate import trapezoid

from stericpnp.dynamics import discrete_energy
from stericpnp.energy import (
    concave_window_bounds,
    convexity_class,
    free_energy_density,
    g12_critical,
    hessian,
    hessian_det,
    hessian_det_via_identity,
    segregated_comparison,
    segregated_pattern,
)
from stericpnp.errors import ParameterError, RegimeError
from stericpnp.model import DomainSpec, make_grid, make_params, make_periodic_grid

P_SYM = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
P_FIG10 = make_params(1, -1, 3.6, 0.4, 2.65, 1.0, 1.0)
P_FIG3 = make_params(1, -1, 2.25, 0.75, 2.5, 1.0, 1.0)


@pytest.mark.parametrize(
    "p, c1, c2, expected",
    [
        (P_SYM, 0.65, 0.42, 3.2518315018315),
        (P_SYM, 2.0, 2.01, -6.006218905472637),
        (P_FIG10, 0.65, 0.42, 7.267316849816851),
        (P_FIG3, 1.8, 2.4, -2.976851851851852),
    ],
)
def test_hessian_det_frozen_points(p, c1, c2, expected):
    assert hessian_det(c1, c2, p) == pytest.approx(expected, rel=1e-12)


def test_hessian_det_routes_agree():
    """Direct determinant and the expanded identity match on random input."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        g11, g22 = rng.uniform(0.3, 4.0, 2)
        g12 = rng.uniform(0.0, 4.0)
        p = make_params(1, -1, g11, g22, g12, 1.0, 1.0)
        c1, c2 = rng.uniform(0.05, 5.0, 2)
        a = hessian_det(c1, c2, p)
        b = hessian_det_via_identity(c1, c2, p)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_hessian_matrix_matches_det():
    H = hessian(0.65, 0.42, P_SYM)
    assert H.shape == (2, 2)
    assert H[0, 1] == H[1, 0]
    assert np.linalg.det(H) == pytest.approx(hessian_det(0.65, 0.42, P_SYM), rel=1e-12)
    assert H[0, 0] == pytest.approx(1 / 0.65 + 2.0)


def test_hessian_det_broadcasts():
    c = np.linspace(0.2, 3.0, 17)
    d = hessian_det(c, c[::-1], P_SYM)
    assert d.shape == c.shape
    assert d[0] == pytest.approx(hessian_det(c[0], c[-1], P_SYM))


def test_convexity_class_symmetric():
    cc = convexity_class(P_SYM)
    assert not cc.is_convex
    assert cc.eig_min == pytest.approx(-1.5, abs=1e-13)
    assert cc.eig_max == pytest.approx(5.5, abs=1e-13)


def test_convexity_class_asymmetric_and_convex_case():
    cc = convexity_class(P_FIG10)
    assert not cc.is_convex
    assert cc.eig_min == pytest.approx(-1.0955613384328213, rel=1e-12)
    assert cc.eig_max == pytest.approx(5.095561338432821, rel=1e-12)
    weak = make_params(1, -1, 2.0, 2.0, 1.0, 1.0, 1.0)
    assert convexity_class(weak).is_convex


def test_concave_window_bounds_frozen():
    p = make_params(1, -1, 3.4, 0.6, 2.65, 1.0, 1.0)
    lo, hi = concave_window_bounds(p)
    assert lo == pytest.approx(0.12042147516307075, rel=1e-12)
    assert hi == pytest.approx(0.6823883592574009, rel=1e-12)
    # the window is where the infinite-concentration limit of D is negative:
    # g22/(g12^2 - g11 g22) and g11/(g12^2 - g11 g22)
    gap = 2.65**2 - 3.4 * 0.6
    assert lo == pytest.approx(0.6 / gap, rel=1e-12)
    assert hi == pytest.approx(3.4 / gap, rel=1e-12)


def test_concave_window_needs_sign_change():
    weak = make_params(1, -1, 2.0, 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(RegimeError):
        concave_window_bounds(weak)


def test_g12_critical():
    assert g12_critical(P_SYM) == pytest.approx(3.0, rel=1e-10)
    assert g12_critical(P_FIG10) == pytest.approx(2.537715508089904, rel=1e-10)


def test_segregated_pattern_breakdown():
    g = make_grid(DomainSpec(1.0), 801)
    seg = segregated_pattern(1, 1.0, g)
    # hard segregation kills the cross term but doubles the diagonal ones:
    # entropy 4 (ln 2 - 1), steric 8, field 1/12, and grounded walls do no work
    total = discrete_energy(seg.c1, seg.c2, seg.phi, P_SYM, g)
    assert total == pytest.approx(4 * (np.log(2) - 1) + 8.0 + 1.0 / 12.0, abs=2e-5)


class TestSegregatedComparison:
    def test_frozen_single_period(self):
        seg = segregated_comparison(1, 1.0, 3.5)
        assert seg.entropy_seg == pytest.approx(-1.2274112777602197, rel=1e-10)
        assert seg.steric_seg == 0.0
        assert seg.electrostatic_seg == pytest.approx(0.0833335000000105, rel=1e-10)
        assert seg.entropy_hom == pytest.approx(-4.0, abs=1e-12)
        assert seg.steric_hom == pytest.approx(14.0, abs=1e-12)
        assert seg.electrostatic_hom == 0.0
        assert seg.total_seg == pytest.approx(-1.1440777777602094, rel=1e-10)
        assert seg.total_hom == pytest.approx(10.0, abs=1e-12)

    def test_entropy_closed_form(self):
        seg = segregated_comparison(1, 1.0, 3.5)
        assert seg.entropy_seg == pytest.approx(4 * 1.0 * (np.log(2) - 1), abs=1e-9)

    @pytest.mark.parametrize("n_freq", [1, 2, 3])
    def test_electrostatic_penalty_scales_like_inverse_square(self, n_freq):
        seg = segregated_comparison(n_freq, 1.0, 3.5)
        assert seg.electrostatic_seg == pytest.approx(1.0 / (12 * n_freq**2), rel=1e-3)

    def test_segregation_wins_only_past_threshold(self):
        # the homogeneous state pays 4 g12 cbar^2 in cross repulsion while the
        # segregated state pays none, so the comparison flips with g12
        low = segregated_comparison(1, 1.0, 0.5)
        high = segregated_comparison(1, 1.0, 3.5)
        assert low.total_seg > low.total_hom
        assert high.total_seg < high.total_hom
        assert low.total_seg == pytest.approx(high.total_seg, rel=1e-12)


def test_free_energy_density_matches_quadrature():
    g = make_grid(DomainSpec(1.0), 2001)
    c1 = 1.0 + 0.3 * np.cos(np.pi * g.x)
    c2 = 1.0 - 0.2 * np.cos(np.pi * g.x)
    dens = free_energy_density(c1, c2, P_SYM)
    direct = trapezoid(dens, g.x)
    by_parts = c1 * (np.log(c1) - 1) + c2 * (np.log(c2) - 1)
    by_parts += 0.5 * (2.0 * c1**2 + 2 * 3.5 * c1 * c2 + 2.0 * c2**2)
    assert direct == pytest.approx(trapezoid(by_parts, g.x), rel=1e-12)


@pytest.mark.parametrize("periodic", [False, True], ids=["electrode", "periodic"])
def test_discrete_energy_without_field_or_gradient_is_the_quadrature_of_the_density(periodic):
    # phi = 0 and sigma = 0 leave only the bulk term, which dynamics writes
    # from its own log c and G c; exact zeros take the limit 0 log 0 = 0 there too
    g = make_periodic_grid(1.0, 16) if periodic else make_grid(DomainSpec(1.0), 16)
    c1 = np.linspace(0.5, 1.5, 16)
    c2 = 2.0 - c1**2 / 2.0
    c1[3] = 0.0
    p = make_params(1, -2, 3.4, 0.6, 2.65, 2.0, 0.7)
    expected = float(g.weights @ free_energy_density(c1, c2, p))
    got = discrete_energy(c1, c2, np.zeros(16), p, g)
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("periodic", [False, True], ids=["electrode", "periodic"])
def test_energies_take_exact_zeros_and_reject_negative_concentrations(periodic):
    g = make_periodic_grid(1.0, 16) if periodic else make_grid(DomainSpec(1.0), 16)
    c1 = np.linspace(0.5, 1.5, 16)
    c2 = c1[::-1].copy()
    c1[::4] = 0.0
    c2[5] = 0.0
    phi = np.sin(np.pi * g.x)
    # the limit c ln c -> 0 at c = 0
    assert free_energy_density(0.0, 0.0, P_SYM) == 0.0
    assert np.all(np.isfinite(free_energy_density(c1, c2, P_SYM)))
    assert np.isfinite(discrete_energy(c1, c2, phi, P_SYM, g))
    for arr in (c1, c2):
        arr[7] = -1e-300
        with pytest.raises(ParameterError, match="nonnegative"):
            free_energy_density(c1, c2, P_SYM)
        with pytest.raises(ParameterError, match="nonnegative"):
            discrete_energy(c1, c2, phi, P_SYM, g)
        arr[7] = 0.0
