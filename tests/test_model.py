"""Grid, profile, and parameter container checks."""

import numpy as np
import pytest

from stericpnp.errors import ParameterError
from stericpnp.model import (
    DomainSpec,
    ModelParams,
    Profile,
    homogeneous_profile,
    make_grid,
    make_params,
    make_periodic_grid,
    with_sigma,
)


def test_make_params_packs_matrices():
    p = make_params(1, -1, 2.25, 0.75, 2.5, 1.0, 1.0)
    assert p.z.tolist() == [1.0, -1.0]
    assert p.cbar.tolist() == [1.0, 1.0]
    assert p.G.tolist() == [[2.25, 2.5], [2.5, 0.75]]
    assert p.sigma == 0.0


def test_default_background_charge_is_electroneutral():
    p = make_params(1, -1, 2.0, 2.0, 3.5, 1.3, 0.7)
    # rho0 balances z . cbar so the homogeneous state carries no net charge
    assert p.rho0 == pytest.approx(-(1.3 - 0.7), abs=0.0)
    # it is derived, so a ModelParams built without make_params has it too
    raw = ModelParams(1, -1, 3.4, 0.6, 2.65, 2.0, 2.01)
    assert raw.rho0 == make_params(1, -1, 3.4, 0.6, 2.65, 2.0, 2.01).rho0
    assert raw.rho0 == 0.009999999999999787


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_with_sigma_rejects_non_admissible_sigma(sigma):
    with pytest.raises(ParameterError, match="sigma"):
        with_sigma(make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0), sigma)


def test_with_sigma_does_not_mutate():
    p = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
    q = with_sigma(p, 0.05)
    assert q.sigma == 0.05
    assert p.sigma == 0.0
    assert q.G is not p.G or np.array_equal(q.G, p.G)


def test_parameter_arrays_are_built_once_and_read_only():
    p = make_params(1, -1, 2.25, 0.75, 2.5, 1.0, 1.0)
    q = with_sigma(p, 0.05)
    for name in ("z", "cbar", "G"):
        arr = getattr(p, name)
        assert getattr(p, name) is arr
        with pytest.raises(ValueError):
            arr.flat[0] = 7.0
        # a copy from with_sigma builds its own, equal arrays
        assert getattr(q, name) is not arr
        assert np.array_equal(getattr(q, name), arr)
    assert p.G[0, 0] == 2.25


def test_electrode_grid_covers_closed_interval():
    g = make_grid(DomainSpec(2.0), 9)
    assert g.n == 9
    assert g.x[0] == -2.0 and g.x[-1] == 2.0
    assert g.dx == pytest.approx(0.5)
    assert g.length == pytest.approx(4.0)
    # trapezoid weights resolve the length exactly
    assert g.weights.sum() == pytest.approx(4.0, abs=1e-14)


def test_periodic_grid_drops_duplicate_endpoint():
    g = make_periodic_grid(2.0, 8)
    assert g.n == 8
    assert g.x[0] == -2.0
    assert g.x[-1] == pytest.approx(2.0 - g.dx)
    assert g.weights.sum() == pytest.approx(4.0, abs=1e-14)


@pytest.mark.parametrize(
    "grid",
    [make_grid(DomainSpec(2.0), 9), make_periodic_grid(2.0, 8)],
    ids=["electrode", "periodic"],
)
def test_weights_are_built_once_and_read_only(grid):
    assert grid.weights is grid.weights
    with pytest.raises(ValueError):
        grid.weights[0] = 1.0


def test_min_points_guard():
    with pytest.raises(ParameterError):
        make_grid(DomainSpec(1.0), 4)


def test_homogeneous_profile_masses_and_potential():
    p = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
    g = make_grid(DomainSpec(1.0), 41)
    prof = homogeneous_profile(g, p)
    w = g.weights
    assert w @ prof.c1 / g.length == pytest.approx(1.0, abs=1e-14)
    assert w @ prof.c2 / g.length == pytest.approx(1.0, abs=1e-14)
    assert np.all(prof.phi == 0.0)


def test_profile_positivity_guard():
    p = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
    g = make_grid(DomainSpec(1.0), 41)
    with pytest.raises(ParameterError):
        neg = np.ones(g.n)
        neg[3] = -1e-4
        Profile(g, neg, np.ones(g.n))
    tiny = np.ones(g.n)
    tiny[3] = 1e-14
    prof = Profile(g, tiny, np.ones(g.n))
    with pytest.raises(ParameterError):
        prof.require_positive()


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_domain_half_length_must_be_positive(bad):
    with pytest.raises(ParameterError, match="half-length"):
        make_grid(DomainSpec(bad), 16)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_periodic_half_length_must_be_positive_and_finite(bad):
    # a NaN or infinite L used to give a grid of NaN nodes
    with pytest.raises(ParameterError, match="half-length"):
        make_periodic_grid(bad, 16)
