"""Stuart-Landau coefficients at onset and the criticality map.

beta0_sq for the symmetric set has the closed form 240/7; the asymmetric
set flips the bifurcation subcritical. Signs follow the convention that
sigma_c - sigma > 0 measures the distance below onset, so beta0_sq > 0
means a saturating (supercritical) branch.
"""

import numpy as np
import pytest

from stericpnp.errors import ParameterError, RegimeError
from stericpnp.model import make_params
from stericpnp.stability import find_onset
from stericpnp.weakly_nonlinear import (
    amplitude_coefficients,
    criticality_map,
    predicted_amplitude,
    second_harmonic,
)

P_SYM = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
P_FIG10 = make_params(1, -1, 3.6, 0.4, 2.65, 1.0, 1.0)


def symmetric_beta0_sq(g: float, g12: float, cbar: float) -> float:
    """Closed-form saturated amplitude coefficient, symmetric case."""
    gcrit = g + 1.0 / cbar
    delta = g12 - gcrit
    if delta <= 0:
        raise RegimeError("symmetric closed form needs g12 > g + 1/cbar")
    return 32.0 * cbar**3 / delta * (3.0 * g12 - gcrit) / (3.0 * delta + 3.0 * g12 + g)


@pytest.fixture(scope="module")
def sym_coeffs():
    return amplitude_coefficients(find_onset(P_SYM), P_SYM)


@pytest.fixture(scope="module")
def fig10_coeffs():
    return amplitude_coefficients(find_onset(P_FIG10), P_FIG10)


class TestSymmetricCoefficients:
    def test_beta0_sq_closed_form(self, sym_coeffs):
        assert sym_coeffs.beta0_sq == pytest.approx(240.0 / 7.0, rel=1e-6)
        assert sym_coeffs.beta0_sq == pytest.approx(34.28571428724152, rel=1e-9)
        assert sym_coeffs.criticality == "supercritical"

    def test_null_vector_normalization(self, sym_coeffs):
        # first component pinned to one, antisymmetric partner
        assert sym_coeffs.v_kc[0] == pytest.approx(1.0, abs=0.0)
        assert sym_coeffs.v_kc[1] == pytest.approx(-1.0, rel=1e-9)

    def test_quadratic_and_cubic_pieces(self, sym_coeffs):
        assert sym_coeffs.a[0] == pytest.approx(32.0, rel=1e-6)
        assert sym_coeffs.a[1] == pytest.approx(-32.0, rel=1e-6)
        assert sym_coeffs.b[0] == pytest.approx(-14.0 / 15.0, rel=1e-6)
        assert sym_coeffs.b[1] == pytest.approx(+14.0 / 15.0, rel=1e-6)
        assert sym_coeffs.gamma[0] == pytest.approx(1.0 / 30.0, rel=1e-6)
        assert sym_coeffs.gamma[1] == pytest.approx(1.0 / 30.0, rel=1e-6)

    def test_second_harmonic(self):
        h = second_harmonic(find_onset(P_SYM), P_SYM)
        assert h[0] == pytest.approx(1.0 / 30.0, abs=1e-9)
        assert h[1] == pytest.approx(1.0 / 30.0, abs=1e-9)


def test_asymmetric_set_is_subcritical(fig10_coeffs):
    assert fig10_coeffs.beta0_sq == pytest.approx(-48.23109412202471, rel=1e-8)
    assert fig10_coeffs.criticality == "subcritical"


@pytest.mark.parametrize("g", [1.5, 2.0, 2.7])
def test_closed_form_matches_projection_route(g):
    g12 = g + 1.6
    p = make_params(1, -1, g, g, g12, 1.0, 1.0)
    coeffs = amplitude_coefficients(find_onset(p), p)
    assert coeffs.beta0_sq == pytest.approx(symmetric_beta0_sq(g, g12, 1.0), rel=1e-8)
    assert coeffs.criticality == "supercritical"


class TestPredictedAmplitude:
    def test_square_root_law(self, sym_coeffs):
        sc = sym_coeffs.sigma_c
        amp = predicted_amplitude(sc / 2, sym_coeffs)
        assert amp == pytest.approx(0.7319250547277016, rel=1e-9)
        assert amp == pytest.approx(np.sqrt((sc - sc / 2) * sym_coeffs.beta0_sq), rel=1e-12)
        # vanishes at onset like a pitchfork
        assert predicted_amplitude(sc * (1 - 1e-8), sym_coeffs) < 1e-3

    def test_rejects_sigma_above_onset(self, sym_coeffs):
        with pytest.raises(RegimeError):
            predicted_amplitude(sym_coeffs.sigma_c * 1.01, sym_coeffs)

    def test_rejects_subcritical_coefficients(self, fig10_coeffs):
        with pytest.raises(RegimeError):
            predicted_amplitude(fig10_coeffs.sigma_c / 2, fig10_coeffs)


def test_criticality_map_mini():
    cm = criticality_map(
        np.array([0.0, 1.6]), np.array([2.6, 3.2, 3.6]), g_sum=4.0, cbar=1.0
    )
    assert cm.tags.tolist() == [
        ["no_onset", "supercritical", "supercritical"],
        ["subcritical", "supercritical", "supercritical"],
    ]
    assert np.isnan(cm.sigma_c[0, 0]) and np.isnan(cm.beta0_sq[0, 0])
    assert cm.sigma_c[0, 1] == pytest.approx(0.005, rel=1e-9)
    assert cm.beta0_sq[1, 0] == pytest.approx(-34.2063943, rel=1e-6)
    assert cm.beta0_sq[0, 2] == pytest.approx(
        symmetric_beta0_sq(2.0, 3.6, 1.0), rel=1e-8
    )
    # rows follow the asymmetry axis, columns the coupling axis
    assert cm.tags.shape == (2, 3)
    assert cm.asymmetry.tolist() == [0.0, 1.6]
    assert cm.g12.tolist() == [2.6, 3.2, 3.6]


@pytest.mark.parametrize(
    "asym, g12s, name",
    [(0.5, [3.0, 3.5], "asym_values"), ([0.0, 0.5], [[3.0, 3.5]], "g12_values")],
    ids=["scalar", "2d"],
)
def test_criticality_map_rejects_an_axis_that_is_not_1d(asym, g12s, name):
    # a scalar axis used to fail on iterating a 0-d array, a 2-D one inside make_params
    with pytest.raises(ParameterError, match=name):
        criticality_map(asym, g12s)


def test_criticality_map_defers_to_find_onset_at_the_threshold():
    # g11 = 3, g22 = 1: g12 one ulp above g12_crit = sqrt(8), where
    # find_onset raises NoOnsetError because sigma_c lies below rounding
    cm = criticality_map([1.0], [2.8284271247461907])
    assert cm.tags.tolist() == [["no_onset"]]
    assert np.isnan(cm.sigma_c[0, 0]) and np.isnan(cm.beta0_sq[0, 0])
