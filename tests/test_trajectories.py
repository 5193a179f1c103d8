"""Phase-plane trajectories, crossing behavior, and periodic stationary orbits."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from stericpnp import trajectories
from stericpnp.energy import hessian_det
from stericpnp.errors import NumericsError, ParameterError
from stericpnp.model import ModelParams, make_params
from stericpnp.trajectories import (
    _brackets,
    _first_root,
    _orbit_maps,
    _wrightomega,
    build_periodic,
    classify_trajectory,
    compute_trajectory,
    cross_d_zero,
    crossing_f,
    d_zero_c1,
    integrate_field_ivp,
    phi_of_c,
    slope_bounds,
    stationary_residual_fd,
)

P_SYM = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
# binary mixture with unequal diagonal repulsion, the classification workhorse
P_FIG3 = make_params(1, -1, 2.25, 0.75, 2.5, 1.0, 1.0)


def trajectory_slope(c1, c2, p: ModelParams):
    """dc1/dc2 along an orbit; finite and negative for c1, c2 > 0."""
    br1, br2 = _brackets(c1, c2, p)
    return br1 / br2


@pytest.mark.parametrize(
    "start, expected_class, expected_d",
    [
        ((0.05, 0.08), "I", 294.7273621558627),
        ((0.55, 1.25), "I", 0.4787840692227636),
        ((0.5, 1.35), "II", 0.42751107066736616),
        ((0.45, 1.5), "II", 0.24943669321487505),
        ((0.6, 1.4), "III", -0.1395547947773803),
        ((1.8, 2.4), "III", -2.858765222553834),
    ],
)
def test_classification_table(start, expected_class, expected_d):
    res = compute_trajectory(P_FIG3, *start)
    assert classify_trajectory(res) == expected_class
    assert res.d_at_neutral == pytest.approx(expected_d, rel=1e-6)


def test_class_semantics():
    # type I never crosses D = 0, type III is concave right at the neutral
    # intersection, type II dips into D < 0 away from it
    one = compute_trajectory(P_FIG3, 0.05, 0.08)
    two = compute_trajectory(P_FIG3, 0.5, 1.35)
    three = compute_trajectory(P_FIG3, 0.6, 1.4)
    assert len(one.d_zero_points) == 0 and one.d_at_neutral > 0
    assert len(two.d_zero_points) == 2 and two.d_at_neutral > 0
    assert len(three.d_zero_points) == 2 and three.d_at_neutral < 0


def test_neutral_point_on_diagonal_for_symmetric_electrolyte():
    res = compute_trajectory(P_SYM, 2.0, 2.01)
    assert classify_trajectory(res) == "III"
    assert res.d_at_neutral == pytest.approx(-6.0062322148620435, rel=1e-9)
    c1n, c2n = res.neutral_points[0]
    assert c1n == pytest.approx(c2n, rel=1e-13)


_G = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
_SEED = st.floats(0.05, 2.5)


@given(
    z1=st.floats(0.5, 3.0),
    z2=st.floats(-3.0, -0.5),
    g11=_G,
    g22=_G,
    g12=_G,
    cbar1=st.floats(0.2, 2.0),
    cbar2=st.floats(0.2, 2.0),
    c1_0=_SEED,
    c2_0=_SEED,
)
# a subnormal g11 makes s = b/a, and w = s c1, subnormal in the inverse of psi_1
@example(z1=1.0, z2=-1.0, g11=1e-320, g22=0.0, g12=0.0, cbar1=1.0, cbar2=1.0, c1_0=0.5, c2_0=2.0)
def test_orbit_matches_the_invariant_and_an_rk45_reference(
    z1, z2, g11, g22, g12, cbar1, cbar2, c1_0, c2_0
):
    p = make_params(z1, z2, g11, g22, g12, cbar1, cbar2)
    res = compute_trajectory(p, c1_0, c2_0)
    c1, c2 = res.c1, res.c2
    assert np.all(np.diff(c2) > 0) and np.all(np.diff(c1) < 0)

    # the potential drops out of z2 mu1 - z1 mu2, so it is constant along
    # every stationary orbit; compare against the sum of the term sizes
    def invariant(c1, c2):
        t1 = z2 * np.array([np.log(c1), g11 * c1, g12 * c2])
        t2 = -z1 * np.array([np.log(c2), g12 * c1, g22 * c2])
        return t1.sum(0) + t2.sum(0), np.abs(t1).sum(0) + np.abs(t2).sum(0)

    level, size0 = invariant(c1_0, c2_0)
    inv, size = invariant(c1, c2)
    assert np.all(np.abs(inv - level) <= 1e-13 * np.maximum(size, size0))

    # RK45 on the slope field in (log c2, log c1), where the orbit stays
    # smooth as c2 -> 0, with events for the two crossings; at rtol 1e-10
    # its own error reaches 2e-7 on some draws, at 1e-12 about 1e-8
    def slope(s, y):
        c1, c2 = np.exp(y[0]), np.exp(s)
        return [trajectory_slope(c1, c2, p) * c2 / c1]

    def neutral(s, y):
        return z1 * (np.exp(y[0]) - cbar1) + z2 * (np.exp(s) - cbar2)

    def degenerate(s, y):
        return hessian_det(np.exp(y[0]), np.exp(s), p)

    c2_lo, c2_hi = res.c2_span
    ref_c1 = np.empty_like(c1)
    events = {"neutral": [], "degenerate": []}
    for target, side in ((c2_hi, c2 >= c2_0), (c2_lo, c2 < c2_0)):
        sol = solve_ivp(
            slope,
            (np.log(c2_0), np.log(target)),
            [np.log(c1_0)],
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
            events=[neutral, degenerate],
        )
        assert sol.status == 0
        ref_c1[side] = np.exp(sol.sol(np.log(c2[side]))[0])
        events["neutral"].extend(sol.t_events[0])
        events["degenerate"].extend(sol.t_events[1])
    mid = (c1 > 1e-6) & (c1 < 1e6)
    assert np.max(np.abs(c1[mid] - ref_c1[mid]) / ref_c1[mid]) <= 1e-7
    # a crossing at the seed is reported by both legs
    assert len(res.neutral_points) == np.unique(events["neutral"]).size
    assert len(res.d_zero_points) == np.unique(events["degenerate"]).size

    for c1n, c2n in res.neutral_points:
        size = z1 * (c1n + cbar1) - z2 * (c2n + cbar2)
        assert abs(z1 * (c1n - cbar1) + z2 * (c2n - cbar2)) <= 1e-14 * size
    for c1d, c2d in res.d_zero_points:
        assert c1d == pytest.approx(d_zero_c1(c2d, p), rel=1e-12)


def test_crossings_agree_with_a_brentq_polish():
    # the polish the Newton pair replaced: brentq on the crossing function
    # along the exact orbit, between the same two samples
    from scipy.optimize import brentq

    rng = np.random.default_rng(7)
    fl = np.finfo(float)
    found = {"neutral": 0, "degenerate": 0}
    for _ in range(100):
        g11, g22, g12 = (0.0 if rng.random() < 0.2 else rng.uniform(0.0, 4.0) for _ in range(3))
        p = make_params(
            rng.uniform(0.5, 3.0), rng.uniform(-3.0, -0.5), g11, g22, g12,
            rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
        )
        c1_0, c2_0 = rng.uniform(0.05, 2.5, 2)
        res = compute_trajectory(p, c1_0, c2_0)
        c1_of = _orbit_maps(p, c1_0, c2_0)[0]

        def neutral(c1, c2):
            return p.z1 * (c1 - p.cbar1) + p.z2 * (c2 - p.cbar2)

        for kind, rows, fn in (
            ("neutral", res.neutral_points, neutral),
            ("degenerate", res.d_zero_points, lambda c1, c2: hessian_det(c1, c2, p)),
        ):
            vals = fn(res.c1, res.c2)
            idx = np.flatnonzero((vals[:-1] >= 0) != (vals[1:] >= 0))
            assert len(rows) == idx.size
            for i, row in zip(idx, rows):
                root = brentq(
                    lambda x: fn(c1_of(x), x), res.c2[i], res.c2[i + 1],
                    xtol=fl.tiny, rtol=4 * fl.eps,
                )
                ref = np.array([c1_of(root), root])
                assert np.all(np.abs(row - ref) <= 1e-13 * ref)
            found[kind] += idx.size
    # every orbit meets the neutral line once; 70 of the crossings are of D = 0
    assert found == {"neutral": 100, "degenerate": 70}


def test_wrightomega_matches_scipy_and_never_warns():
    from scipy.special import wrightomega

    x = np.concatenate([
        np.linspace(-800.0, 800.0, 64001),
        -np.geomspace(1e-300, 800.0, 4001),
        np.geomspace(1e-300, 1e25, 4001),
        [-745.2, -50.0, -2.0, 1.0, 1e20, -0.0, 0.0],
    ])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        ours = _wrightomega(x)
    assert np.all(np.isfinite(ours))
    # wright.cc's own arithmetic, up to numpy's exp and log against libm's
    ref = wrightomega(x)
    assert np.all(np.abs(ours - ref) <= 2e-15 * np.maximum(np.abs(ref), np.finfo(float).tiny))
    special = np.array([-np.inf, np.inf, np.nan])
    np.testing.assert_array_equal(_wrightomega(special), wrightomega(special))


def test_first_root_is_the_smallest_in_range():
    # cos has three roots on [0, 10]; the first is pi / 2
    assert _first_root(np.cos, 10.0, 1e-13) == pytest.approx(np.pi / 2, rel=1e-13)


@pytest.mark.parametrize(
    "fn", [lambda x: x * x + 1.0, lambda x: x - 2.0], ids=["complex", "beyond"]
)
def test_first_root_needs_a_root_in_range(fn):
    with pytest.raises(NumericsError, match="no root"):
        _first_root(fn, 1.0, 1e-13)


def test_orbit_cutoff_beyond_the_float_range_does_not_warn():
    # with g12 = g22 = 0, c2(c1) = exp(.) at the cutoff c1 = 1e-12 exceeds
    # the largest float; the suite turns the overflow warning into an error
    res = compute_trajectory(make_params(1, -1, 8.03, 0, 0, 1, 1), 118.3, 20.7)
    assert res.c2_span == (1e-6, 1e6)
    assert classify_trajectory(res) == "I"


def test_seed_on_the_neutral_line_is_its_one_crossing():
    res = compute_trajectory(P_FIG3, 1.0, 1.0)
    assert res.neutral_points.shape == (1, 2)
    assert np.allclose(res.neutral_points, 1.0, rtol=0, atol=4e-16)


@pytest.mark.parametrize("c1_0", [0.0, 1e-12, 1e12, 1e13])
def test_orbit_seed_must_lie_inside_the_c1_cutoffs(c1_0):
    with pytest.raises(ParameterError, match="orbit seed"):
        compute_trajectory(P_FIG3, c1_0, 1.0)


def test_trajectory_slope_frozen():
    assert trajectory_slope(0.6, 1.4, P_FIG3) == pytest.approx(
        -0.6178107606679035, rel=1e-12
    )


def test_exponential_envelopes_hold_along_orbit():
    m, M = slope_bounds(0.6, 1.4, P_FIG3)
    assert m == pytest.approx(-3.9642857142857144, rel=1e-12)
    assert M == pytest.approx(-0.8441558441558442, rel=1e-12)
    assert m < M < 0
    res = compute_trajectory(P_FIG3, 0.6, 1.4)
    sel = res.c2 >= 1.4
    lower = 0.6 * np.exp(m * (res.c2[sel] - 1.4))
    upper = 0.6 * np.exp(M * (res.c2[sel] - 1.4))
    assert np.min(res.c1[sel] - lower) >= -1e-9
    assert np.min(upper - res.c1[sel]) >= -1e-9


def test_d_zero_c1_is_exact_rational():
    # (1/c1 + g11)(1/c2 + g22) = g12^2 at c2 = 1/2 gives 1/c1 = 1/44
    assert d_zero_c1(0.5, P_FIG3) == pytest.approx(44.0, rel=1e-9)


def test_crossing_ratio_approaches_sqrt_f():
    c_star = (d_zero_c1(0.5, P_FIG3), 0.5)
    cs = cross_d_zero(P_FIG3, c_star)
    assert cs.f_value == pytest.approx(1.0027437751577746, rel=1e-9)
    assert cs.sqrt_f == pytest.approx(np.sqrt(cs.f_value), rel=1e-12)
    assert cs.f_value == pytest.approx(crossing_f(*c_star, P_FIG3), rel=1e-12)
    i0 = int(np.argmin(np.abs(cs.ratio_x)))
    assert abs(cs.ratio[i0] - cs.sqrt_f) / cs.sqrt_f < 1e-4
    # concentrations stay positive and finite through the degeneracy
    assert np.all(cs.c1 > 0) and np.all(cs.c2 > 0)
    assert np.all(np.isfinite(cs.E))


def _rk45_to_neutral(p, turning, x_max):
    """(x, |E|) where RK45 from a turning point first meets z.(c - cbar) = 0.

    The reference integrates the spatial system written out here, c_i,x =
    -br_i E / D and E_x = -z.(c - cbar), from E = 0 at the turning point,
    so it shares no code with the closed-form construction it checks.
    """

    def neutral(x, y):
        return p.z1 * (y[0] - p.cbar1) + p.z2 * (y[1] - p.cbar2)

    def rhs(x, y):
        c1, c2, E = y
        a1, a2 = 1.0 / c1 + p.g11, 1.0 / c2 + p.g22
        r = E / (a1 * a2 - p.g12**2)
        return [-(p.z1 * a2 - p.z2 * p.g12) * r, -(p.z2 * a1 - p.z1 * p.g12) * r, -neutral(x, y)]

    neutral.terminal = True
    sol = solve_ivp(rhs, (0.0, x_max), [*turning, 0.0], rtol=1e-12, atol=1e-14, events=neutral)
    assert sol.status == 1 and sol.t_events[0].size == 1
    return sol.t_events[0][0], abs(sol.y_events[0][0][2])


class TestPeriodicOrbit:
    def test_frozen_period_and_amplitudes(self):
        sol = build_periodic(P_SYM, amplitude=0.3)
        assert sol.period == pytest.approx(3.0884630588032227, rel=1e-11)
        assert sol.amp_a == pytest.approx(0.3, abs=1e-12)
        assert sol.amp_b == pytest.approx(0.28636110400152587, rel=1e-11)
        assert sol.e_peak == pytest.approx(0.28292632718774763, rel=1e-11)
        # swapping the species maps P_SYM's orbit onto itself, so equal
        # field peaks put the turning points at each other's mirror image
        assert sol.turning_b[1] == pytest.approx(sol.turning_a[0], rel=1e-15)
        assert sol.turning_b[0] == pytest.approx(sol.turning_a[1], rel=1e-15)

    def test_orbit_mean_near_bulk(self):
        sol = build_periodic(P_SYM, amplitude=0.3)
        _, c1, c2, _, _ = sol.sample(n_per_period=4096)
        m1, m2 = c1.mean(), c2.mean()
        assert m1 == pytest.approx(1.003288857567737, rel=1e-9)
        assert m1 == pytest.approx(m2, rel=1e-12)
        assert abs(m1 - 1.0) < 0.01

    def test_sampled_orbit_is_stationary(self):
        sol = build_periodic(P_SYM, amplitude=0.3)
        x, c1, c2, E, phi = sol.sample(n_per_period=2048)
        res = stationary_residual_fd(x, c1, c2, E, phi, P_SYM, periodic=True)
        assert res["c1"] < 1e-8
        assert res["c2"] < 1e-8
        assert res["field"] < 1e-9
        assert res["potential_gradient"] < 1e-7
        # second-order Poisson residual is a discretization diagnostic only;
        # it converges at the sampling rate, not the integration tolerance
        assert res["poisson"] < 1e-4

    def test_residual_between_walls_trims_the_stencil_ends(self):
        # 1.3 periods do not tile, so only the wall form, which drops two
        # samples at each end, sees a stationary profile
        sol = build_periodic(P_SYM, amplitude=0.3)
        x = np.linspace(0.0, 1.3 * sol.period, 2001)
        samples = sol.evaluate(x)
        res = stationary_residual_fd(x, *samples, P_SYM, periodic=False)
        assert max(res.values()) < 1e-8
        assert stationary_residual_fd(x, *samples, P_SYM, periodic=True)["c1"] > 1.0

    @pytest.mark.parametrize("periodic", [True, False])
    def test_residual_needs_the_stencil_width(self, periodic):
        sol = build_periodic(P_SYM, amplitude=0.3)
        with pytest.raises(ParameterError, match="at least 5 samples"):
            stationary_residual_fd(*sol.sample(n_per_period=4), P_SYM, periodic=periodic)

    def test_evaluate_is_periodic(self):
        sol = build_periodic(P_SYM, amplitude=0.3)
        xs = np.linspace(-0.7, 0.7, 23)
        a = np.array(sol.evaluate(xs))
        b = np.array(sol.evaluate(xs + sol.period))
        assert np.allclose(a, b, rtol=1e-8, atol=1e-9)

    def test_potential_recovered_from_conserved_multipliers(self):
        sol = build_periodic(P_SYM, amplitude=0.3)
        _, c1, c2, _, phi = sol.sample(n_per_period=1024)
        p = P_SYM
        p1 = phi_of_c(c1, c2, p)
        # the same potential from the conserved mu_2, bulk gauged to 0
        p2 = (np.log(p.cbar2 / c2) + p.g22 * (p.cbar2 - c2) + p.g12 * (p.cbar1 - c1)) / p.z2
        assert np.max(np.abs(p1 - p2)) < 1e-8
        shift = phi - p1
        assert np.ptp(shift) < 1e-10



@pytest.mark.parametrize("amplitude", [float("nan"), 0.0, -0.1])
def test_periodic_amplitude_must_be_positive(amplitude):
    with pytest.raises(ParameterError, match="amplitude must be positive"):
        build_periodic(P_SYM, amplitude)


# P_SYM's orbit through the bulk has D < 0 for 0.364 < c2 < 1.721: at 0.9
# both turning points lie outside (D = 3.26 and 17.3)
@pytest.mark.parametrize("amplitude", [0.9])
def test_periodic_outside_the_concave_window_names_it(amplitude):
    with pytest.raises(NumericsError, match="concavity region"):
        build_periodic(P_SYM, amplitude)


def test_periodic_shrinks_the_side_outside_the_concave_window():
    # at 0.7 only the lower turning point lies outside (D = -0.26 at
    # c2 = 1.7, +1.36 at c2 = 0.3); the upper one keeps the full amplitude,
    # and the species swap, which maps P_SYM's orbit onto itself, puts the
    # matched lower one at c2 = c1(1.7), inside the window
    sol = build_periodic(P_SYM, 0.7)
    assert sol.amp_a == 0.7
    assert sol.turning_b[1] == pytest.approx(0.3796256890131222, rel=1e-12)
    assert sol.turning_b[1] == pytest.approx(sol.turning_a[0], rel=1e-14)
    assert sol.period == pytest.approx(2.883189554856995, rel=1e-9)
    for turning, length in ((sol.turning_a, sol.x_a), (sol.turning_b, sol.x_b)):
        x_end, _ = _rk45_to_neutral(P_SYM, turning, 2.0 * sol.period)
        assert x_end == pytest.approx(length, rel=1e-9)
    # the upper turning point sits 0.021 from the window edge, where the
    # profile steepens: the fourth-order differences' truncation error falls
    # as h^4 (c1: 3.9e-6 at 2048 samples, 1.5e-8 at 8192, 9.7e-10 at 16384)
    x, c1, c2, E, phi = sol.sample(n_per_period=16384)
    res = stationary_residual_fd(x, c1, c2, E, phi, P_SYM, periodic=True)
    assert res["c1"] < 1e-8
    assert res["c2"] < 1e-8
    assert res["field"] < 1e-9
    assert res["potential_gradient"] < 1e-7
    assert res["poisson"] < 1e-4


def test_periodic_side_that_cannot_match_names_the_window():
    # on this orbit D < 0 for 0.790 < c2 < 5.83: at amplitude 1.3 the upper
    # turning point c2 = 3.31 lies inside, the lower one, 0.71, outside, and
    # even the lower window edge builds a smaller field peak than c2 = 3.31
    p = make_params(1, -1, 3.4, 0.6, 2.65, 2.0, 2.01)
    build_periodic(p, 1.2)
    with pytest.raises(NumericsError, match="between the turning point c2 = 0.71 "):
        build_periodic(p, 1.3)


def test_small_amplitude_period_tends_to_the_linear_one():
    # linearising mu = const and Poisson about the bulk gives
    # omega^2 = -(z1^2 a2 - 2 z1 z2 g12 + z2^2 a1) / D = 13 / 3.25 on P_SYM,
    # and the period moves by O(amplitude^2) from 2 pi / omega; at 1e-6
    # the rounding of z.(c - cbar) limits how far the series resolve
    for amplitude, gap in ((1e-2, 2e-5), (1e-3, 2e-7), (1e-4, 2e-9), (1e-6, 2e-11)):
        sol = build_periodic(P_SYM, amplitude)
        assert abs(sol.period / np.pi - 1.0) < gap


@settings(max_examples=120)
@given(
    z1=st.floats(0.5, 3.0),
    z2=st.floats(-3.0, -0.5),
    g11=_G,
    g22=_G,
    excess=st.floats(0.02, 0.5),
    cbar1=st.floats(0.2, 2.0),
    cbar2=st.floats(0.2, 2.0),
    reach=st.floats(0.05, 0.9),
)
# past the nearer end of the window, where the side whose turning point
# lies outside must be the one shrunk: two that build, one that cannot
@example(z1=2.83, z2=-1.37, g11=0.45, g22=2.16, excess=0.45, cbar1=0.25, cbar2=0.2, reach=0.9)
@example(z1=2.66, z2=-2.42, g11=2.52, g22=2.93, excess=0.33, cbar1=0.33, cbar2=0.31, reach=0.85)
@example(z1=1.72, z2=-1.09, g11=0.23, g22=2.95, excess=0.34, cbar1=1.56, cbar2=0.48, reach=0.9)
def test_periodic_orbit_keeps_the_first_integral_and_matches_rk45(
    z1, z2, g11, g22, excess, cbar1, cbar2, reach
):
    # g12 past the threshold sqrt(a1 a2) puts the bulk point inside D < 0
    g12 = (1.0 + excess) * np.sqrt((1.0 / cbar1 + g11) * (1.0 / cbar2 + g22))
    p = make_params(z1, z2, g11, g22, g12, cbar1, cbar2)
    # the amplitude is a share of the distance from cbar2 to the farther
    # end of the concave window on the orbit through the bulk point (c2
    # stays positive), so past the nearer end a turning point lies outside
    edges = compute_trajectory(p, cbar1, cbar2).d_zero_points[:, 1]
    above, below = edges[edges > cbar2], edges[edges < cbar2]
    up = above.min() - cbar2 if above.size else np.inf
    down = cbar2 - below.max() if below.size else cbar2
    amplitude = reach * min(max(up, down), cbar2)
    try:
        sol = build_periodic(p, amplitude)
    except NumericsError:
        # the outside side builds the smaller field peak there, so the side
        # kept at full amplitude would have to be it: no closed orbit
        assert amplitude > min(up, down)
        return
    # a turning point past its window end is pulled back inside
    assert sol.amp_a < up and sol.amp_b < down

    # independent route: RK45 on the full spatial system from each turning
    # point to the bulk crossing
    for turning, length in ((sol.turning_a, sol.x_a), (sol.turning_b, sol.x_b)):
        x_end, e_end = _rk45_to_neutral(p, turning, 2.0 * sol.period)
        assert x_end == pytest.approx(length, rel=1e-9)
        assert e_end == pytest.approx(sol.e_peak, rel=1e-9)

    # stress first integral: E^2 / 2 - (c1 + c2 + c.Gc / 2 - rho0 phi)
    x, c1, c2, E, phi = sol.sample(n_per_period=8192)
    pressure = c1 + c2 + 0.5 * (g11 * c1**2 + 2.0 * g12 * c1 * c2 + g22 * c2**2)
    assert np.ptp(0.5 * E**2 - pressure + p.rho0 * phi) <= 1e-12

    # 8192 samples keep the fourth-order differences' own truncation error
    # below the bounds of test_sampled_orbit_is_stationary while each
    # turning point stays within 0.9 of the way to its window end; nearer
    # D = 0 the profile steepens past what they resolve
    if sol.amp_a > 0.9 * up or sol.amp_b > 0.9 * down:
        return
    res = stationary_residual_fd(x, c1, c2, E, phi, p, periodic=True)
    assert res["c1"] < 1e-8
    assert res["c2"] < 1e-8
    assert res["field"] < 1e-9
    assert res["potential_gradient"] < 1e-7
    assert res["poisson"] < 1e-4


def test_field_ivp_frozen_endpoint():
    f = integrate_field_ivp(P_SYM, (1.3, 1.3), E0=0.2, x_span=(0.0, 6.0))
    assert f.status == "span"
    assert not f.blow_up
    assert f.x_end == pytest.approx(6.0)
    c1e, c2e, Ee, pe = (float(v[-1]) for v in f.at(f.x_end))
    assert c1e == pytest.approx(1.2183322638848908, rel=1e-8)
    assert c2e == pytest.approx(1.3823031128083605, rel=1e-8)
    assert Ee == pytest.approx(-0.17376110249502622, rel=1e-8)
    assert pe == pytest.approx(-1.9722083493333322, rel=1e-8)


def test_field_ivp_answers_only_inside_its_span():
    # a launch from a turning point is still flagged, but a query on the far
    # side of the start is not answered by reflection
    f = integrate_field_ivp(P_SYM, (1.3, 1.3), E0=0.0, x_span=(0.0, 3.0))
    assert f.symmetric
    assert f.at([f.x_start, f.x_end]).shape == (4, 2)
    for x in (-1.2, f.x_end + 0.5):
        with pytest.raises(ParameterError, match="outside the computed span"):
            f.at(x)


@pytest.mark.parametrize(
    "c0, E0, x_span",
    [
        ((np.nan, 1.3), 0.0, (0.0, 5.0)),
        ((1.3, np.inf), 0.0, (0.0, 5.0)),
        ((1.3, 1.3), np.nan, (0.0, 5.0)),
        ((1.3, 1.3), -np.inf, (0.0, 5.0)),
        ((1.3, 1.3), 0.0, (0.0, np.nan)),
        ((1.3, 1.3), 0.0, (0.0, np.inf)),
        ((1.3, 1.3), 0.0, (-np.inf, 5.0)),
    ],
    ids=["nan_c1", "inf_c2", "nan_E0", "inf_E0", "nan_end", "inf_end", "inf_start"],
)
def test_field_ivp_rejects_non_finite_launch_data(monkeypatch, c0, E0, x_span):
    # a non-finite span never ends RK45's run, and SciPy itself rejects a
    # non-finite y0 with a ValueError: both are caught before solve_ivp
    def unreachable(*args, **kwargs):
        raise AssertionError("solve_ivp was called")

    monkeypatch.setattr(trajectories, "solve_ivp", unreachable)
    with pytest.raises(ParameterError, match="finite"):
        integrate_field_ivp(P_SYM, c0, E0=E0, x_span=x_span)


def test_field_ivp_stops_at_every_guard_of_a_seeded_batch():
    # near a blow-up D^2 falls like the distance to it, so with |D| = 1e-8
    # as the guard 31 of these launches raised NumericsError (RK45's step
    # collapsed first) and 19 raised ParameterError (a stage at c <= 0)
    rng = np.random.default_rng(0)
    statuses = []
    for p in (P_SYM, P_FIG3):
        for _ in range(40):
            c0 = tuple(rng.uniform(0.2, 2.0, 2))
            f = integrate_field_ivp(p, c0, E0=float(rng.uniform(-1.0, 1.0)), x_span=(0.0, 20.0))
            c1, c2, _, _ = f.at(f.x_end)[:, 0]
            if f.status == "degenerate":
                assert abs(hessian_det(c1, c2, p)) == pytest.approx(1e-6, rel=0.05)
            elif f.status == "positivity":
                assert min(c1, c2) == pytest.approx(1e-12, rel=1e-9)
            else:
                assert f.status == "span" and f.x_end == 20.0
            statuses.append(f.status)
    assert statuses.count("degenerate") + statuses.count("positivity") == 54
