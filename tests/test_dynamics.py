"""Dissipative time stepping: mass conservation, energy decay, steady detection,
and the exact Jacobian of the linearly implicit step."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import trapezoid

import stericpnp
from stericpnp import _fd, dynamics
from stericpnp._fd import _Kernel, _pack
from stericpnp.dynamics import (
    _ENERGY_TOL,
    _MAX_HALVINGS,
    _factor_step,
    chemical_potential,
    discrete_energy,
    electrode_bc,
    evolve,
    periodic_bc,
    solve_potential,
    time_derivatives,
)
from stericpnp.errors import ParameterError
from stericpnp.model import (
    DomainSpec,
    Profile,
    homogeneous_profile,
    make_grid,
    make_params,
    make_periodic_grid,
    with_sigma,
)
from stericpnp.stability import max_growth_rate

from _strategies import admissible_params

P_SYM = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)


def test_homogeneous_state_is_a_fixed_point():
    g = make_grid(DomainSpec(2.0), 65)
    prof = homogeneous_profile(g, P_SYM)
    res = evolve(with_sigma(P_SYM, 0.05), prof, electrode_bc(), t_end=5.0)
    assert res.verdict == "Steady"
    assert res.t == 0.0
    assert res.steps == 0
    assert res.reason == "initial state already stationary"
    # a steady start factors nothing and records only the start
    assert res.factorizations == 0
    assert len(res.times) == len(res.energy) == len(res.mass1) == len(res.mass2) == 1


def test_discrete_energy_closed_form_on_homogeneous_state():
    g = make_grid(DomainSpec(2.0), 65)
    prof = homogeneous_profile(g, P_SYM)
    phi = solve_potential(prof.c1, prof.c2, P_SYM, g, electrode_bc())
    # length 4 domain, density c log c - c summed with the quadratic term:
    # 2 (0 - 1) + (g11 + 2 g12 + g22)/2 = 3.5 per unit length
    assert discrete_energy(prof.c1, prof.c2, phi, P_SYM, g) == pytest.approx(
        14.0, abs=1e-10
    )


def test_chemical_potential_constant_on_bulk():
    g = make_grid(DomainSpec(2.0), 65)
    prof = homogeneous_profile(g, P_SYM)
    bc = electrode_bc()
    phi = solve_potential(prof.c1, prof.c2, P_SYM, g, bc)
    mu1, mu2 = chemical_potential(prof.c1, prof.c2, phi, P_SYM, g)
    assert np.ptp(mu1) == pytest.approx(0.0, abs=1e-12)
    assert mu1[0] == pytest.approx(np.log(1.0) + 2.0 + 3.5, abs=1e-12)
    assert np.ptp(mu2) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("arg", ["t_end", "dt0", "dt_max", "steady_tol"])
def test_evolve_takes_only_finite_positive_step_settings(arg, bad):
    g = make_grid(DomainSpec(2.0), 33)
    bump = 0.1 * np.cos(np.pi * g.x / 2.0)
    prof = Profile(g, 1.0 + bump, 1.0 - bump)
    kwargs = {"t_end": 1.0, arg: bad}
    with pytest.raises(ParameterError, match=f"{arg} must be finite and positive"):
        evolve(with_sigma(P_SYM, 0.05), prof, electrode_bc(), **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("wall", ["phi_left", "phi_right"])
def test_non_finite_wall_potentials_are_parameter_errors(wall, bad):
    with pytest.raises(ParameterError, match="electrode potentials must be finite"):
        electrode_bc(**{wall: bad})


def _perturbed_periodic(p, sigma, n=64, amp=1e-3, modes=(1, 2)):
    kc = 2.0 * np.sqrt(2.0)
    L = 2.0 * np.pi / kc  # box holding two critical wavelengths
    g = make_periodic_grid(L, n)
    c1 = np.ones(g.n)
    c2 = np.ones(g.n)
    for m in modes:
        k = np.pi * m / L
        c1 += amp / m * np.cos(k * g.x)
        c2 -= amp / m * np.cos(k * g.x)
    return with_sigma(p, sigma), g, Profile(g, c1, c2)


@pytest.mark.parametrize("sigma", [0.02, 0.06])
def test_mass_and_energy_discipline_periodic(sigma):
    p, g, prof = _perturbed_periodic(P_SYM, sigma)
    res = evolve(p, prof, periodic_bc(), t_end=15.0)
    m1, m2 = res.mass1, res.mass2
    assert abs(m1[-1] - m1[0]) < 1e-10
    assert abs(m2[-1] - m2[0]) < 1e-10
    steps = np.diff(res.energy)
    # every accepted step dissipates, up to the controller's tolerance
    assert steps.max() <= 1e-10
    assert res.energy[-1] < res.energy[0]


def test_subcritical_sigma_grows_pattern():
    p, g, prof = _perturbed_periodic(P_SYM, 0.02)
    hom = np.ones(g.n)
    res = evolve(p, prof, periodic_bc(), t_end=25.0)
    dev0 = np.max(np.abs(prof.c1 - hom))
    dev1 = np.max(np.abs(res.profile.c1 - hom))
    assert dev1 > 20 * dev0
    # dissipation holds even while the linear instability is expressed
    assert np.diff(res.energy).max() <= 1e-10


def test_supercritical_sigma_relaxes_back():
    p, g, prof = _perturbed_periodic(P_SYM, 0.06)
    res = evolve(p, prof, periodic_bc(), t_end=400.0, steady_tol=1e-9)
    assert res.verdict == "Steady"
    assert res.reason == "max |c_t| fell below 1e-09"
    assert 0 < res.t < 400.0
    assert np.max(np.abs(res.profile.c1 - 1.0)) < 1e-5
    assert res.dcdt_norm < 1e-9


def test_running_verdict_at_short_horizon():
    p, g, prof = _perturbed_periodic(P_SYM, 0.02)
    res = evolve(p, prof, periodic_bc(), t_end=0.5)
    assert res.verdict == "Running"
    assert res.reason == "reached time horizon"
    assert res.t == pytest.approx(0.5)
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(res.t)
    assert len(res.times) == len(res.energy) == len(res.mass1)


def test_steady_test_takes_precedence_over_the_horizon():
    """A state that meets steady_tol exactly at t_end is Steady, not Running."""
    p, g, prof = _perturbed_periodic(P_SYM, 0.06)
    dt0 = 1e-3
    first = evolve(p, prof, periodic_bc(), t_end=dt0, dt0=dt0)
    assert (first.verdict, first.steps, first.rejects) == ("Running", 1, 0)
    tol = float(np.nextafter(first.dcdt_norm, np.inf))
    res = evolve(p, prof, periodic_bc(), t_end=dt0, dt0=dt0, steady_tol=tol)
    assert res.verdict == "Steady"
    assert res.reason == f"max |c_t| fell below {tol:g}"
    assert res.steps == 1
    assert res.t == dt0
    assert res.dcdt_norm == first.dcdt_norm


def test_electrode_walls_with_bias_still_dissipate():
    g = make_grid(DomainSpec(2.0), 81)
    rng = np.random.default_rng(5)
    bump = 1e-2 * rng.standard_normal(g.n)
    bump -= trapezoid(bump, g.x) / g.length
    prof = Profile(g, 1.0 + bump, np.ones(g.n))
    p = with_sigma(P_SYM, 0.05)
    res = evolve(p, prof, electrode_bc(-0.5, 0.5), t_end=30.0)
    assert np.diff(res.energy).max() <= 1e-10
    assert abs(res.mass1[-1] - res.mass1[0]) < 1e-10
    assert abs(res.mass2[-1] - res.mass2[0]) < 1e-10
    # cations crowd the negative wall on the left, anions the positive one
    final = res.profile
    assert final.c1[0] > final.c1[-1]
    assert final.c2[0] < final.c2[-1]


def test_observer_collects_custom_series():
    p, g, prof = _perturbed_periodic(P_SYM, 0.06)
    res = evolve(
        p,
        prof,
        periodic_bc(),
        t_end=5.0,
        observer=lambda t, c1, c2, phi: float(np.max(c1)),
    )
    assert len(res.observables) == len(res.times)
    assert res.observables[0] == pytest.approx(float(np.max(prof.c1)), rel=1e-12)


@st.composite
def _linearization_case(draw, kind, sigma_term):
    """Admissible parameters, a grid of 8-24 nodes and a positive profile."""
    p = draw(admissible_params(sigma_term))
    n = draw(st.integers(8, 24))
    half = draw(st.floats(0.5, 5.0))
    if kind == "periodic":
        grid, bc = make_periodic_grid(half, n), periodic_bc()
    else:
        grid = make_grid(DomainSpec(half), n)
        bc = electrode_bc(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    scale = arrays(np.float64, n, elements=st.floats(0.2, 2.0))
    return p, grid, bc, p.cbar1 * draw(scale), p.cbar2 * draw(scale)


def _face_loop_divergence(c, mu, grid):
    """(c mu_x)_x face by face: the face average of c times the difference of
    mu across it, no face through an electrode wall, the wrapped face on a
    periodic grid, and each node's net inflow over its cell (dx/2 at a wall)."""
    n = c.size
    dx = grid.dx
    out = np.zeros(n)
    for f in range(n if grid.periodic else n - 1):
        g = (f + 1) % n
        flux = 0.5 * (c[f] + c[g]) * (mu[g] - mu[f]) / dx
        out[f] += flux
        out[g] -= flux
    cell = np.full(n, dx)
    if not grid.periodic:
        cell[0] = cell[-1] = 0.5 * dx
    return out / cell


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
@settings(max_examples=25)
@given(data=st.data())
def test_time_derivatives_match_a_per_face_loop(kind, sigma_term, data):
    p, grid, bc, c1, c2 = data.draw(_linearization_case(kind, sigma_term))
    phi = solve_potential(c1, c2, p, grid, bc)
    mu = chemical_potential(c1, c2, phi, p, grid)
    for c, m, f in zip((c1, c2), mu, time_derivatives(c1, c2, phi, p, grid)):
        ref = _face_loop_divergence(c, m, grid)
        assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
@settings(max_examples=25)
@given(data=st.data())
def test_mu_is_the_energy_gradient_up_to_log_cbar(kind, sigma_term, data):
    """(1/w_j) dE/dc_ij of discrete_energy at fixed phi is mu_ij - log cbar_i,
    by central differences: the constant comes from the bulk density's
    log(c_i / cbar_i), and the mass multipliers absorb it."""
    p, grid, bc, c1, c2 = data.draw(_linearization_case(kind, sigma_term))
    phi = solve_potential(c1, c2, p, grid, bc)
    expected = chemical_potential(c1, c2, phi, p, grid) - np.log(p.cbar)[:, None]
    c = np.array((c1, c2))
    grad = np.empty_like(c)
    for i, j in np.ndindex(c.shape):
        h = 3e-4 * c[i, j]
        up, um = c.copy(), c.copy()
        up[i, j] += h
        um[i, j] -= h
        diff = discrete_energy(*up, phi, p, grid) - discrete_energy(*um, phi, p, grid)
        grad[i, j] = diff / (2.0 * h * grid.weights[j])
    assert np.max(np.abs(grad - expected)) <= 1e-6 * (1.0 + np.max(np.abs(expected)))


def _face_loop_energy(c1, c2, phi, p, grid):
    """discrete_energy written out: sum_j w_j h_j + sum_j w_j rho_j phi_j over
    the nodes (cells dx/2 at a wall), then (sigma/2) dc^2 / dx - (1/2)
    dphi^2 / dx face by face, no face through an electrode wall and the
    wrapped face on a periodic grid. Returns the sum and the sum of the
    terms' magnitudes."""
    n = grid.n
    dx = grid.dx
    terms = []
    for j in range(n):
        w = 0.5 * dx if not grid.periodic and j in (0, n - 1) else dx
        c = np.array((c1[j], c2[j]))
        gc = p.G @ c
        h = sum(c[i] * (np.log(c[i] / p.cbar[i]) - 1.0 + 0.5 * gc[i]) for i in range(2))
        rho = p.z @ c + p.rho0
        terms += [w * h, w * rho * phi[j]]
    for f in range(n if grid.periodic else n - 1):
        g = (f + 1) % n
        dc2 = (c1[g] - c1[f]) ** 2 + (c2[g] - c2[f]) ** 2
        terms += [0.5 * p.sigma * dc2 / dx, -0.5 * (phi[g] - phi[f]) ** 2 / dx]
    return sum(terms), sum(abs(t) for t in terms)


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
@settings(max_examples=25)
@given(data=st.data())
def test_discrete_energy_matches_a_per_face_loop(kind, sigma_term, data):
    """The constant log cbar and the closing face, which the gradient test
    cannot see, checked term by term."""
    p, grid, bc, c1, c2 = data.draw(_linearization_case(kind, sigma_term))
    phi = solve_potential(c1, c2, p, grid, bc)
    ref, scale = _face_loop_energy(c1, c2, phi, p, grid)
    assert abs(discrete_energy(c1, c2, phi, p, grid) - ref) <= 1e-13 * scale


def _interleaved(a, b):
    u = np.empty(2 * a.size)
    u[0::2] = a
    u[1::2] = b
    return u


def _f_and_band(u, phi, p, grid):
    """F and the band J of the state u, as evolve builds them at a refresh."""
    c = u.reshape(grid.n, 2)
    kernel = _Kernel(p, grid)
    f = kernel.flux_divergence(c, kernel.mu_and_energy(c, kernel.charge(c), phi)[0])
    return f, kernel.band(u)


def _dense_from_band(band, periodic):
    """J[(col - o) mod N, col] = band[4 - o, col]; off-matrix slots must be 0."""
    size = band.shape[1]
    cols = np.arange(size)
    J = np.zeros((size, size))
    for o in range(-4, 5):
        rows = cols - o
        inside = periodic | ((rows >= 0) & (rows < size))
        J[rows[inside] % size, cols[inside]] = band[4 - o, inside]
        assert np.all(band[4 - o, ~inside] == 0.0)
    return J


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
@settings(max_examples=25)
@given(data=st.data())
def test_exact_band_is_the_jacobian_of_the_rhs(kind, sigma_term, data):
    p, grid, bc, c1, c2 = data.draw(_linearization_case(kind, sigma_term))
    phi = solve_potential(c1, c2, p, grid, bc)

    def rhs(u):
        return _interleaved(*time_derivatives(u[0::2], u[1::2], phi, p, grid))

    u = _interleaved(c1, c2)
    f, band = _f_and_band(u, phi, p, grid)
    np.testing.assert_array_equal(f, rhs(u))
    J = _dense_from_band(band, grid.periodic)

    J_fd = np.empty_like(J)
    for k in range(u.size):
        h = 1e-6 * u[k]
        up, um = u.copy(), u.copy()
        up[k] += h
        um[k] -= h
        J_fd[:, k] = (rhs(up) - rhs(um)) / (2.0 * h)
    assert np.max(np.abs(J - J_fd)) <= 1e-6 * np.max(np.abs(J_fd))

    # weighted column sums vanish: the linear step conserves both masses
    w = np.repeat(grid.weights, 2)
    assert np.all(np.abs(w @ J) <= 1e-12 * (w @ np.abs(J)))


@st.composite
def _relaxation_case(draw, kind, sigma_term):
    """Admissible parameters, a grid of 8-24 nodes on L in [0.5, 3] (walls
    at |V| <= 0.5, or periodic) and log-normal positive profiles."""
    p = draw(admissible_params(sigma_term))
    n = draw(st.integers(8, 24))
    half = draw(st.floats(0.5, 3.0))
    if kind == "periodic":
        grid, bc = make_periodic_grid(half, n), periodic_bc()
    else:
        grid = make_grid(DomainSpec(half), n)
        bc = electrode_bc(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.floats(0.01, 0.5))
    c1 = p.cbar1 * rng.lognormal(0.0, spread, n)
    c2 = p.cbar2 * rng.lognormal(0.0, spread, n)
    return p, grid, bc, Profile(grid, c1, c2)


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
@settings(max_examples=20)
@given(data=st.data())
def test_relaxation_conserves_mass_and_dissipates_energy(kind, sigma_term, data):
    p, grid, bc, prof = data.draw(_relaxation_case(kind, sigma_term))
    res = evolve(p, prof, bc, t_end=2.0)
    assert res.verdict != "Unstable"
    for mass in (res.mass1, res.mass2):
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]
    assert np.all(np.diff(res.energy) <= _ENERGY_TOL)
    final = res.profile
    recomputed = discrete_energy(final.c1, final.c2, final.phi, p, grid)
    assert res.energy[-1] == pytest.approx(recomputed, rel=1e-12)


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
@settings(max_examples=10)
@given(data=st.data())
def test_evolve_steps_with_the_public_time_derivatives(kind, sigma_term, data):
    """The F that evolve steps with and tests for steadiness is
    time_derivatives' F, bit for bit: a second writer of mu or F in the
    stepper would show here as a rounding difference."""
    p, grid, bc, prof = data.draw(_relaxation_case(kind, sigma_term))
    res = evolve(p, prof, bc, t_end=2.0)
    final = res.profile
    f = time_derivatives(final.c1, final.c2, final.phi, p, grid)
    assert res.dcdt_norm == np.abs(f).max()


@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_a_boundary_kind_that_does_not_suit_the_grid_is_a_parameter_error(kind):
    """Periodic conditions on a wall-to-wall grid, or electrode conditions on
    a periodic one, are refused by the Poisson solve as by evolve, before
    any potential is computed."""
    if kind == "electrode":
        grid, bc = make_periodic_grid(2.0, 32), electrode_bc()
    else:
        grid, bc = make_grid(DomainSpec(2.0), 33), periodic_bc()
    prof = homogeneous_profile(grid, P_SYM)
    with pytest.raises(ParameterError, match="boundary conditions need"):
        solve_potential(prof.c1, prof.c2, P_SYM, grid, bc)
    with pytest.raises(ParameterError, match="boundary conditions need"):
        evolve(P_SYM, prof, bc, t_end=1.0)


def _reflect(u):
    """x -> -x on the nodes of an interleaved u, (c1_j, c2_j) kept together."""
    return u.reshape(-1, 2)[::-1].ravel()


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
@settings(max_examples=15)
@given(data=st.data())
def test_the_dynamics_commute_with_reflection(kind, sigma_term, data):
    """x -> -x maps the state on a grid with walls (a, b) to the reflected
    state with walls (b, a), and reverses the nodes of a periodic grid. F,
    the discrete energy, the potential and one step's du of the reflected
    state are the reflections of the originals to 1e-12 relative (du to 10
    eps cond(I - dt J) where the step system is that ill-conditioned), and a
    short evolve takes the same steps and rejects to the same verdict, its
    final concentrations reflections to 1e-9 relative. The parameters are well posed on
    the grid: no mode the grid carries, k = m pi / (2 L) for m = 1 ... n,
    grows at the uniform state, so the rounding in which the two runs
    differ is not amplified."""
    p, grid, bc, prof = data.draw(_relaxation_case(kind, sigma_term))
    assume(
        max(max_growth_rate(m * np.pi / (2.0 * grid.L), p, p.sigma) for m in range(1, grid.n + 1))
        <= 0.0
    )
    mirror_bc = bc if grid.periodic else electrode_bc(bc.phi_right, bc.phi_left)
    c1, c2 = prof.c1, prof.c2
    r1, r2 = c1[::-1], c2[::-1]

    phi = solve_potential(c1, c2, p, grid, bc)
    phi_r = solve_potential(r1, r2, p, grid, mirror_bc)
    assert np.max(np.abs(phi_r - phi[::-1])) <= 1e-12 * np.max(np.abs(phi))
    phi_r = phi[::-1]

    f = _interleaved(*time_derivatives(c1, c2, phi, p, grid))
    f_r = _interleaved(*time_derivatives(r1, r2, phi_r, p, grid))
    assert np.max(np.abs(f_r - _reflect(f))) <= 1e-12 * np.max(np.abs(f))
    energy, scale = _face_loop_energy(c1, c2, phi, p, grid)
    assert abs(discrete_energy(r1, r2, phi_r, p, grid) - discrete_energy(c1, c2, phi, p, grid)) <= (
        1e-12 * scale
    )

    # the two factorisations eliminate in opposite orders, so their du
    # differ by rounding times the condition of I - dt J, as in
    # test_step_solve_matches_a_dense_solve
    dt = data.draw(st.floats(1e-3, 0.25))
    u = _interleaved(c1, c2)
    band = _f_and_band(u, phi, p, grid)[1]
    du = _factor_step(band, dt, grid.periodic)(f)
    band_r = _f_and_band(_reflect(u), phi_r, p, grid)[1]
    du_r = _factor_step(band_r, dt, grid.periodic)(f_r)
    system = np.eye(u.size) - dt * _dense_from_band(band, grid.periodic)
    tol = max(1e-12, 10.0 * np.finfo(float).eps * np.linalg.cond(system))
    assert np.max(np.abs(du_r - _reflect(du))) <= tol * np.max(np.abs(du))

    res = evolve(p, prof, bc, t_end=2.0)
    res_r = evolve(p, Profile(grid, r1, r2), mirror_bc, t_end=2.0)
    assert (res_r.steps, res_r.rejects, res_r.verdict) == (res.steps, res.rejects, res.verdict)
    for name in ("c1", "c2"):
        a, b = getattr(res.profile, name), getattr(res_r.profile, name)
        assert np.max(np.abs(b - a[::-1])) <= 1e-9 * np.max(np.abs(a)), name


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_evolve_rejects_non_finite_profiles(kind, bad):
    n = 24
    if kind == "periodic":
        grid, bc = make_periodic_grid(2.0, n), periodic_bc()
    else:
        grid, bc = make_grid(DomainSpec(2.0), n), electrode_bc()
    c1 = np.ones(n)
    c1[5] = bad
    with pytest.raises(ParameterError, match="c1 must be finite"):
        evolve(with_sigma(P_SYM, 0.02), Profile(grid, c1, np.ones(n)), bc, t_end=1.0)
    # written into a built profile, neither NaN nor inf may pass evolve's
    # start check
    prof = Profile(grid, np.ones(n), np.ones(n))
    prof.c1[5] = bad
    with pytest.raises(ParameterError):
        evolve(with_sigma(P_SYM, 0.02), prof, bc, t_end=1.0)


def _rough_start(kind):
    """A rough lognormal profile on n = 48: a first step of dt = 2 from it
    is halved 11 times before it is accepted."""
    p = with_sigma(P_SYM, 0.02)
    n = 48
    if kind == "periodic":
        grid, bc = make_periodic_grid(3.0, n), periodic_bc()
    else:
        grid, bc = make_grid(DomainSpec(3.0), n), electrode_bc(-0.5, 0.5)
    rng = np.random.default_rng(1)
    prof = Profile(grid, rng.lognormal(0.0, 0.8, n), rng.lognormal(0.0, 0.8, n))
    return p, grid, bc, prof


@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_rejected_attempts_leave_the_step_system_intact(kind):
    """The accepted first step must still be the linearly implicit step
    (I - dt J0) du = dt F0 from the F0 and J0 of the initial state, so no
    rejected attempt may have overwritten them."""
    p, grid, bc, prof = _rough_start(kind)
    seen = []

    def observer(t, c1, c2, phi):
        seen.append(_interleaved(c1, c2))
        return 0.0

    res = evolve(p, prof, bc, t_end=2.0, dt0=5.0, dt_max=5.0, observer=observer)
    assert res.rejects > 0
    for mass in (res.mass1, res.mass2):
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]
    assert np.all(np.diff(res.energy) <= _ENERGY_TOL)

    u0 = _interleaved(prof.c1, prof.c2)
    phi0 = solve_potential(prof.c1, prof.c2, p, grid, bc)
    f0, band = _f_and_band(u0, phi0, p, grid)
    dt = res.times[1]
    system = np.eye(u0.size) - dt * _dense_from_band(band, grid.periodic)
    expected = u0 + np.linalg.solve(system, dt * f0)
    assert np.max(np.abs(seen[1] - expected)) <= 1e-12 * np.max(np.abs(expected))


def _smooth_start(kind):
    """P_SYM at sigma = 0.05, where the bulk is stable, on n = 48 with a
    1 % cosine perturbation: no attempt from it is rejected at step sizes
    up to 0.25."""
    p = with_sigma(P_SYM, 0.05)
    n = 48
    if kind == "periodic":
        grid, bc = make_periodic_grid(3.0, n), periodic_bc()
    else:
        grid, bc = make_grid(DomainSpec(3.0), n), electrode_bc()
    bump = 0.01 * np.cos(np.pi * grid.x / 3.0)
    return p, grid, bc, Profile(grid, 1.0 + bump, 1.0 - bump)


def _step_size_changes(res):
    """How often the step size changes along a run; the sizes are compared
    at a relative 1e-9, since the times are cumulative sums."""
    h = np.diff(res.times)
    return np.count_nonzero(~np.isclose(h[1:], h[:-1], rtol=1e-9, atol=0.0))


def _halvings(res, dt0, dt_max, t_end):
    """The m of each accepted size h_k = min(H_k, t_end - t_k) / 2**m_k,
    where H_0 = min(dt0, dt_max) and H_k = min(1.3 h_k-1, dt_max) after
    it; an m that is not an integer (at a relative 1e-9) fails the test."""
    h = np.diff(res.times)
    grown = np.minimum(1.3 * h[:-1], dt_max)
    nominal = np.minimum(np.concatenate(([min(dt0, dt_max)], grown)), t_end - res.times[:-1])
    m = np.log2(nominal / h)
    whole = np.round(m)
    assert np.allclose(2.0**m, 2.0**whole, rtol=1e-9, atol=0.0), m
    return whole.astype(int)


@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_each_accepted_step_grows_the_next_by_1_3_up_to_dt_max(kind):
    """After every accepted step, rejected attempts or not, the next step
    size is 1.3 times the accepted one, capped at dt_max; halvings divide
    it by powers of two, one per reject, and only the last step is cut
    short to land on t_end."""
    p, grid, bc, prof = _smooth_start(kind)
    res = evolve(p, prof, bc, t_end=6.0, dt0=1e-3, dt_max=0.25)
    assert res.rejects == 0 and res.t == pytest.approx(6.0)
    assert np.all(_halvings(res, 1e-3, 0.25, 6.0) == 0)
    assert np.diff(res.times).max() == pytest.approx(0.25)

    p, grid, bc, prof = _rough_start(kind)
    res = evolve(p, prof, bc, t_end=2.0, dt0=5.0, dt_max=5.0)
    m = _halvings(res, 5.0, 5.0, 2.0)
    assert res.rejects > 0 and m[0] > 0
    assert np.all(m >= 0) and m.sum() == res.rejects


@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_the_first_step_is_capped_at_dt_max(kind):
    """dt0 above dt_max starts at dt_max: the first accepted step equals
    it, and no step exceeds it (the sizes are differences of cumulative
    times, so compared at a relative 1e-9)."""
    p, grid, bc, prof = _smooth_start(kind)
    res = evolve(p, prof, bc, t_end=2.0, dt0=5.0, dt_max=0.05)
    h = np.diff(res.times)
    assert h[0] == 0.05
    assert np.all(h <= 0.05 * (1.0 + 1e-9))
    assert np.all(_halvings(res, 5.0, 0.05, 2.0) == 0)


@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_a_run_at_constant_step_size_factors_once(kind):
    p, grid, bc, prof = _smooth_start(kind)
    res = evolve(p, prof, bc, t_end=4.0, dt0=0.25, dt_max=0.25)
    assert res.steps == 16 and res.rejects == 0
    assert res.factorizations == 1


@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_each_step_size_change_refactors(kind):
    """On a ramp from dt0 = 1e-3 with no rejects, the first attempt and
    every change of the step size (each 1.3x growth, the cap at dt_max and
    the shortened last step) factor I - dt J, and nothing else does."""
    p, grid, bc, prof = _smooth_start(kind)
    res = evolve(p, prof, bc, t_end=6.0, dt0=1e-3, dt_max=0.25)
    assert res.rejects == 0 and res.t == pytest.approx(6.0)
    changes = _step_size_changes(res)
    assert changes > 20
    assert res.factorizations == 1 + changes


@pytest.mark.parametrize("start", ["rough", "ramp"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_each_step_solves_with_the_jacobian_of_the_last_step_size_change(kind, start):
    """Every accepted step k is the linearly implicit Euler step with a
    lagged Jacobian, u_k+1 = u_k + (I - h_k J(u_r))^-1 h_k F(u_k): u_r is
    u_k itself on the first step and whenever the step size h_k differs
    from h_k-1 (a step after rejected attempts always does), and otherwise
    the u_r of step k - 1. The rough start has rejects; the ramp grows dt
    from 1e-3. Both cap dt at 0.05, so that most steps run at dt_max and
    reuse their factors: dt grows after every step below the cap."""
    if start == "rough":
        p, grid, bc, prof = _rough_start(kind)
        opts = {"t_end": 2.0, "dt0": 5.0, "dt_max": 0.05}
    else:
        p, grid, bc, prof = _smooth_start(kind)
        opts = {"t_end": 6.0, "dt0": 1e-3, "dt_max": 0.05}
    states = []

    def observer(t, c1, c2, phi):
        states.append((_interleaved(c1, c2), phi.copy()))
        return 0.0

    res = evolve(p, prof, bc, observer=observer, **opts)
    assert (res.rejects > 0) == (start == "rough")
    h = np.diff(res.times)
    reused = 0
    for k in range(res.steps):
        u, phi = states[k]
        if k == 0 or not np.isclose(h[k], h[k - 1], rtol=1e-9, atol=0.0):
            ref = states[k]
        else:
            reused += 1
        f, _ = _f_and_band(u, phi, p, grid)
        band = _f_and_band(*ref, p, grid)[1]
        system = np.eye(u.size) - h[k] * _dense_from_band(band, grid.periodic)
        expected = u + np.linalg.solve(system, h[k] * f)
        assert np.max(np.abs(states[k + 1][0] - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert reused > res.steps // 2


def _perfbench_tracer():
    """perfbench's Tracer, loaded from its file: perfbench is a script
    directory, not a package. Every module it measures is imported first,
    as install looks each one up on the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in module.MEASURED:
        importlib.import_module(f"stericpnp.{name}")
    return module.Tracer()


@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_each_attempted_step_makes_one_solver_call(kind):
    """perfbench cross-checks solve_banded + splu calls == steps + rejects,
    counting the calls at the module attributes dynamics.solve_banded and
    dynamics.splu: every attempt of either kind, accepted or rejected,
    makes its one dgbtrs solve through solve_banded (the dgbtrf
    factorisations are not counted there), and splu is never called."""
    tracer = _perfbench_tracer()
    tracer.install(stericpnp)
    try:
        p, grid, bc, prof = _rough_start(kind)
        res = dynamics.evolve(p, prof, bc, t_end=2.0, dt0=5.0, dt_max=5.0)
        metrics = tracer.aggregate(tracer.take())
    finally:
        tracer.uninstall()
    assert res.rejects > 0
    assert metrics["dynamics.evolve.steps"] == res.steps
    assert metrics["dynamics.evolve.rejects"] == res.rejects
    assert metrics["dynamics.solve_banded.calls"] == res.steps + res.rejects
    assert metrics["dynamics.splu.calls"] == 0


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
@settings(max_examples=25)
@given(data=st.data())
def test_step_solve_matches_a_dense_solve(kind, sigma_term, data):
    """One dgbtrf/dgbtrs step solve, through the folded band on periodic grids
    (n >= 8, so N >= 16 and the fold never overlaps itself), solves
    (I - dt J) du = dt F: its residual is at roundoff, and it is the dense
    solution to 1e-12 relative, or to 10 eps cond where the system is that
    ill-conditioned (small dx, large dt and sigma reach cond ~ 1e6)."""
    p, grid, bc, c1, c2 = data.draw(_linearization_case(kind, sigma_term))
    dt = data.draw(st.floats(1e-3, 5.0))
    phi = solve_potential(c1, c2, p, grid, bc)
    f, band = _f_and_band(_interleaved(c1, c2), phi, p, grid)
    system = np.eye(f.size) - dt * _dense_from_band(band, grid.periodic)
    du = _factor_step(band, dt, grid.periodic)(f)
    scale = np.max(np.abs(system).sum(axis=1)) * np.max(np.abs(du)) + dt * np.max(np.abs(f))
    assert np.max(np.abs(system @ du - dt * f)) <= 1e-14 * scale
    expected = np.linalg.solve(system, dt * f)
    tol = max(1e-12, 10.0 * np.finfo(float).eps * np.linalg.cond(system))
    assert np.max(np.abs(du - expected)) <= tol * np.max(np.abs(expected))


@pytest.mark.parametrize("periodic", [False, True], ids=["electrode", "periodic"])
def test_singular_step_system_raises(periodic):
    """J = I / dt makes I - dt J exactly zero: dgbtrf reports the zero pivot
    through info, and the factorisation raises instead of returning garbage."""
    dt, size = 0.5, 48
    band = np.zeros((9, size))
    band[4] = 1.0 / dt
    with pytest.raises(np.linalg.LinAlgError, match="dgbtrf"):
        _factor_step(band, dt, periodic)


@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_monitored_energy_is_the_discrete_energy_of_each_accepted_state(kind):
    p, grid, bc, prof = _rough_start(kind)
    states = []

    def observer(t, c1, c2, phi):
        states.append((c1.copy(), c2.copy(), phi.copy()))
        return 0.0

    res = evolve(p, prof, bc, t_end=2.0, dt0=5.0, dt_max=5.0, observer=observer)
    assert res.rejects > 0 and len(states) == res.steps + 1 == len(res.energy)
    for e, (c1, c2, phi) in zip(res.energy, states):
        assert e == discrete_energy(c1, c2, phi, p, grid)


@pytest.mark.parametrize("kind", ["electrode", "periodic"])
def test_observed_states_are_never_overwritten(kind):
    """evolve reuses its work buffers from attempt to attempt, but never one
    that an observer or the result sees: references to (c1, c2, phi) kept
    at every step still hold, at the end, the values copied at that step."""
    p, grid, bc, prof = _rough_start(kind)
    kept, copied = [], []

    def observer(t, c1, c2, phi):
        kept.append((c1, c2, phi))
        copied.append((c1.copy(), c2.copy(), phi.copy()))
        return 0.0

    res = evolve(p, prof, bc, t_end=2.0, dt0=5.0, dt_max=5.0, observer=observer)
    assert res.rejects > 0 and len(kept) == res.steps + 1
    for refs, copies in zip(kept, copied):
        for ref, copy in zip(refs, copies):
            assert np.array_equal(ref, copy)
    final = res.profile
    for ref, arr in zip(kept[-1], (final.c1, final.c2, final.phi)):
        assert np.array_equal(ref, arr) and not np.shares_memory(ref, arr)


def _assert_same_run(res, ref):
    for name in ("t", "verdict", "reason", "steps", "rejects", "factorizations", "dcdt_norm"):
        assert getattr(res, name) == getattr(ref, name), name
    for name in ("times", "energy", "mass1", "mass2", "observables"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    for name in ("c1", "c2", "phi"):
        assert np.array_equal(getattr(res.profile, name), getattr(ref.profile, name)), name


def test_a_run_inside_another_runs_observer_shares_no_state():
    """A periodic run started from the observer of an electrode run, on a
    grid of the same size, and the electrode run itself give the results
    of the same runs made alone: each run owns its buffers."""
    pa, _, bc_a, prof_a = _rough_start("electrode")
    pb, _, bc_b, prof_b = _rough_start("periodic")
    opts = {"t_end": 2.0, "dt0": 5.0, "dt_max": 5.0}
    nested = []

    def observer(t, c1, c2, phi):
        if len(nested) < 3:
            nested.append(evolve(pb, prof_b, bc_b, **opts))
        return float(c1.max())

    res_a = evolve(pa, prof_a, bc_a, observer=observer, **opts)
    alone_a = evolve(pa, prof_a, bc_a, observer=lambda t, c1, c2, phi: float(c1.max()), **opts)
    alone_b = evolve(pb, prof_b, bc_b, **opts)
    assert res_a.rejects > 0 and len(nested) == 3
    _assert_same_run(res_a, alone_a)
    for res_b in nested:
        _assert_same_run(res_b, alone_b)


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@pytest.mark.parametrize("kind", ["electrode", "periodic"])
@settings(max_examples=10)
@given(data=st.data())
def test_a_kernel_evaluation_depends_on_its_state_alone(kind, sigma_term, data):
    """A kernel that has evaluated state A gives, at state B, the rho, phi,
    mu, energy, F, face data, band, Laplacian, stationary residual and
    Jacobian of a fresh kernel at B, bit for bit, even with every method
    but flux_divergence run at A between B's F and its band: no method
    reads another's leftover buffer, and band reads only the face data of
    the last F."""
    p, grid, bc, a1, a2 = data.draw(_linearization_case(kind, sigma_term))
    scale = arrays(np.float64, grid.n, elements=st.floats(0.2, 2.0))
    state_a = np.column_stack((a1, a2))
    state_b = np.column_stack((p.cbar1 * data.draw(scale), p.cbar2 * data.draw(scale)))

    def stationary(kernel, c, phi):
        if grid.periodic:  # the stationary system needs Dirichlet walls
            return []
        u = _pack(c[:, 0], c[:, 1], phi, 0.5, -0.5)
        return [x.tobytes() for x in (kernel.residual(u), *kernel.jacobian(u))]

    def evaluate(kernel, c, other=None):
        rho = kernel.charge(c)
        phi = kernel.potential(rho)
        mu, energy = kernel.mu_and_energy(c, rho, phi)
        out = [x.tobytes() for x in (rho, phi, mu)] + [energy]
        f = kernel.flux_divergence(c, mu)
        # c_face's wrap rows are band's, written at each band before it reads them
        out += [x.tobytes() for x in (f, kernel.c_face[1:-1], kernel.dmu)]
        if other is not None:
            rho_o = kernel.charge(other)
            phi_o = kernel.potential(rho_o)
            kernel.mu_and_energy(other, rho_o, phi_o)
            kernel.laplacian(other)
            stationary(kernel, other, phi_o)
        out += [kernel.band(c.ravel()).tobytes(), kernel.laplacian(c).tobytes()]
        return out + stationary(kernel, c, phi)

    kernel = _Kernel(p, grid, bc)
    evaluate(kernel, state_a)
    assert evaluate(kernel, state_b, state_a) == evaluate(_Kernel(p, grid, bc), state_b)


def test_evolve_gives_up_when_no_halving_lowers_the_energy(monkeypatch):
    # an energy that rises on every evaluation rejects every candidate step, so
    # the first step is abandoned after _MAX_HALVINGS halvings
    # (evolve takes mu and the energy from one _Kernel.mu_and_energy call)
    calls = iter(range(1000))
    real = _fd._Kernel.mu_and_energy
    monkeypatch.setattr(
        _fd._Kernel, "mu_and_energy", lambda *args: (real(*args)[0], float(next(calls)))
    )
    g = make_grid(DomainSpec(2.0), 33)
    bump = 0.1 * np.cos(np.pi * g.x / 2.0)
    prof = Profile(g, 1.0 + bump, 1.0 - bump)
    res = evolve(with_sigma(P_SYM, 0.05), prof, electrode_bc(), t_end=1.0)
    assert res.verdict == "Unstable"
    assert res.steps == 0 and res.rejects == _MAX_HALVINGS + 1
    assert res.t == 0.0 and np.array_equal(res.profile.c1, prof.c1)
