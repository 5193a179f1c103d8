"""Stationary solves, branch tracing, and the combined continuation loop.

The expensive bifurcation surveys live in the acceptance suite; these tests
pin the machinery on small boxes where every answer has a closed form.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stericpnp.continuation import (
    _SAME_TOL,
    _apply_param,
    _assemble,
    _dresidual_dparam,
    _pack,
    l2_norm,
    load_branchset,
    mirror_state,
    newton_solve,
    run_combined,
    save_branchset,
    states_at,
    stationary_residual,
    trace_branch,
    weighted_norm,
)
from stericpnp.dynamics import (
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

from _strategies import admissible_params

P_SYM = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
SIGMA_C = 1.0 / 32.0
K_C = 2.0 * np.sqrt(2.0)


def _hom_state(grid, sigma=0.25):
    prof = homogeneous_profile(grid, P_SYM)
    return newton_solve(prof, P_SYM, grid, electrode_bc(), "sigma", sigma)


def test_newton_on_homogeneous_recovers_multipliers():
    grid = make_grid(DomainSpec(2.0), 48)
    st = _hom_state(grid)
    # lam_i = log cbar_i + sum_j g_ij cbar_j with phi = 0
    assert st.lam1 == pytest.approx(5.5, abs=1e-11)
    assert st.lam2 == pytest.approx(5.5, abs=1e-11)
    r = stationary_residual(st.pack(), with_sigma(P_SYM, 0.25), grid, electrode_bc())
    assert float(np.max(np.abs(r))) < 1e-10
    assert np.ptp(st.c1) < 1e-11 and np.ptp(st.phi) < 1e-11


def test_weighted_norm_closed_forms():
    g = make_grid(DomainSpec(1.0), 801)
    assert weighted_norm(np.ones(g.n), g) == pytest.approx(3.0, abs=1e-12)
    # c1 = x has slope 1 everywhere: 3 sqrt(2)
    assert weighted_norm(g.x.copy(), g) == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-12)
    gl = make_grid(DomainSpec(5.0), 801)
    assert weighted_norm(np.ones(gl.n), gl) == pytest.approx(15.0, abs=1e-11)


def test_weighted_norm_rejects_periodic_grids():
    g = make_periodic_grid(1.0, 64)
    with pytest.raises(ParameterError):
        weighted_norm(np.ones(g.n), g)


def test_mirror_state_is_an_isometry_in_l2_but_not_weighted():
    grid = make_grid(DomainSpec(2.0), 97)
    st = _hom_state(grid)
    # synthetic asymmetric deformation of the homogeneous state
    st.c1[:] = 1.0 + 0.3 * np.exp(-((grid.x - 1.1) ** 2) / 0.1)
    st.c2[:] = 1.0 - 0.2 * np.exp(-((grid.x - 1.1) ** 2) / 0.1)
    mir = mirror_state(st)
    back = mirror_state(mir)
    assert np.array_equal(back.c1, st.c1)
    assert np.array_equal(back.phi, st.phi)
    assert l2_norm(mir.c1, mir.c2, grid) == pytest.approx(
        l2_norm(st.c1, st.c2, grid), rel=1e-13
    )
    w0 = weighted_norm(st.c1, grid)
    w1 = weighted_norm(mir.c1, grid)
    assert abs(w0 - w1) > 1e-3


def _periodic_probe(sigma, seed=0, t_end=60.0, noise=1e-3):
    """Noise-kick the homogeneous state on a periodic box and relax it."""
    L = 2.0 * np.pi / K_C  # two critical wavelengths
    g = make_periodic_grid(L, 48)
    rng = np.random.default_rng(seed)
    c1 = np.ones(g.n)
    c2 = np.ones(g.n)
    for arr in (c1, c2):
        delta = noise * rng.standard_normal(g.n)
        delta -= delta.mean()
        arr += delta
    res = evolve(with_sigma(P_SYM, sigma), Profile(g, c1, c2), periodic_bc(), t_end=t_end)
    return float(np.max(np.abs(res.profile.c1 - 1.0)))


def test_probe_flips_across_onset_on_periodic_box():
    # one continuation step below onset the noise grows into a pattern,
    # one step above it relaxes back to the homogeneous state
    assert _periodic_probe(SIGMA_C - 0.002) > 1e-2
    assert _periodic_probe(SIGMA_C + 0.002) < 2e-4


class TestRunCombined:
    def _run(self, param_start=None):
        d = DomainSpec(2.0)
        grid = make_grid(d, 48)
        prof = homogeneous_profile(grid, P_SYM)
        return run_combined(
            [prof],
            P_SYM,
            d,
            "sigma",
            (0.2, 0.3),
            grid.n,
            param_start=param_start,
            ds0=0.02,
            max_points=12,
            probe_stride=1,
            probe_t_end=30.0,
        ), grid

    def test_far_above_onset_is_a_single_stable_branch(self):
        bs, grid = self._run()
        assert len(bs.branches) == 1
        branch = bs.branches[0]
        assert all(pt.stable for pt in branch.points)
        assert not branch.truncated
        for pt in branch.points:
            # homogeneous all the way: flat weighted norm 3 L with L = 2
            assert pt.wnorm == pytest.approx(6.0, abs=1e-9)
            r = stationary_residual(
                pt.state.pack(),
                with_sigma(P_SYM, pt.param),
                grid,
                electrode_bc(),
            )
            assert float(np.max(np.abs(r))) < 1e-10

    def test_deterministic_replay(self):
        a, _ = self._run()
        b, _ = self._run()
        assert len(a.branches) == len(b.branches)
        for ba, bb in zip(a.branches, b.branches):
            assert [p.param for p in ba.points] == [p.param for p in bb.points]
            assert [p.l2 for p in ba.points] == [p.l2 for p in bb.points]
            assert [p.stable for p in ba.points] == [p.stable for p in bb.points]

    def test_interior_profile_seed_is_traced_both_ways(self):
        bs, _ = self._run(param_start=0.25)
        params = np.concatenate([b.params() for b in bs.branches])
        assert params.min() < 0.25 < params.max()

    @pytest.mark.parametrize(
        "seed",
        [
            np.ones(17),
            homogeneous_profile(make_grid(DomainSpec(2.0), 17), P_SYM),
        ],
        ids=["vector", "profile_on_17_nodes"],
    )
    def test_rejects_malformed_seed_vector(self, seed):
        d = DomainSpec(2.0)
        grid = make_grid(d, 48)
        with pytest.raises(ParameterError):
            run_combined(
                [seed], P_SYM, d, "sigma", (0.2, 0.3), grid.n, max_points=4
            )


def test_trace_branch_walks_both_directions_from_interior_seed():
    d = DomainSpec(2.0)
    grid = make_grid(d, 48)
    st = _hom_state(grid, sigma=0.25)
    br = trace_branch(st, P_SYM, d, grid, "sigma", (0.2, 0.3), max_points=10,
                      directions=(-1, 1))
    params = [pt.param for pt in br.points]
    assert min(params) < 0.25 < max(params)
    assert not br.truncated
    # plain tracing leaves stability to the combined loop
    assert {pt.stable for pt in br.points} == {None}


def test_states_at_refines_to_requested_parameter():
    d = DomainSpec(2.0)
    grid = make_grid(d, 48)
    prof = homogeneous_profile(grid, P_SYM)
    bs = run_combined(
        [prof], P_SYM, d, "sigma", (0.2, 0.3), grid.n,
        ds0=0.02, max_points=12, probe_stride=1, probe_t_end=30.0,
    )
    got = states_at(bs.branches, 0.27, P_SYM, d, grid, "sigma")
    assert len(got) == 1
    assert got[0].param_value == pytest.approx(0.27, abs=0.0)
    assert np.ptp(got[0].c1) < 1e-10


@pytest.mark.parametrize("factor, same", [(0.5, True), (2.0, False)])
def test_same_as_is_a_relative_max_norm_test(factor, same):
    # c2 dominates, so a scale taken from c1 alone would call 0.5x different
    p = make_params(1, -1, 2.0, 2.0, 3.5, 0.2, 2.0)
    grid = make_grid(DomainSpec(2.0), 24)
    state = newton_solve(homogeneous_profile(grid, p), p, grid, electrode_bc(0.0, 0.0), "sigma", 0.0)
    step = factor * _SAME_TOL * (1.0 + max(state.c1.max(), state.c2.max()))
    moved = replace(state, c2=state.c2 + step * np.eye(1, grid.n, 5)[0])
    assert state.same_as(moved) is same
    assert state.same_as(moved.as_profile(grid)) is same
    assert state.same_as(state)


def test_branchset_roundtrip(tmp_path):
    d = DomainSpec(2.0)
    grid = make_grid(d, 48)
    prof = homogeneous_profile(grid, P_SYM)
    bs = run_combined(
        [prof], P_SYM, d, "sigma", (0.2, 0.3), grid.n,
        ds0=0.02, max_points=8, probe_stride=1, probe_t_end=30.0,
    )
    save_branchset(bs, grid, tmp_path / "run")
    loaded, lgrid = load_branchset(tmp_path / "run")
    assert lgrid.n == grid.n
    assert lgrid.L == pytest.approx(grid.L)
    assert loaded.param_name == bs.param_name
    assert len(loaded.branches) == len(bs.branches)
    for ba, bb in zip(bs.branches, loaded.branches):
        assert ba.origin == bb.origin
        assert [p.param for p in ba.points] == pytest.approx(
            [p.param for p in bb.points], rel=1e-15
        )
        assert [p.wnorm for p in ba.points] == pytest.approx(
            [p.wnorm for p in bb.points], rel=1e-12
        )
        assert [p.stable for p in ba.points] == [p.stable for p in bb.points]
        for pa, pb in zip(ba.points, bb.points):
            for name in ("c1", "c2", "phi"):
                np.testing.assert_array_equal(getattr(pa.state, name), getattr(pb.state, name))


@st.composite
def _stationary_case(draw, sigma_term, equal_walls=False):
    """Parameters, an electrode domain, an 8-24 node grid and a packed vector
    with positive concentrations, a random potential and random multipliers."""
    p = draw(admissible_params(sigma_term))
    left = draw(st.floats(-1.0, 1.0))
    right = left if equal_walls else draw(st.floats(-1.0, 1.0))
    d = DomainSpec(draw(st.floats(0.5, 5.0)), phi_left=left, phi_right=right)
    n = draw(st.integers(8, 24))
    scale = arrays(np.float64, n, elements=st.floats(0.2, 2.0))
    phi = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    lam = draw(arrays(np.float64, 2, elements=st.floats(-5.0, 5.0)))
    u = _pack(p.cbar1 * draw(scale), p.cbar2 * draw(scale), phi, *lam)
    return p, d, make_grid(d, n), u


def _dense_jacobian(ab, C, D):
    """[[B, C], [D, 0]] with B[col + k, col] = ab[b + k, col]; off-matrix slots must be 0."""
    m = ab.shape[1]
    b = (ab.shape[0] - 1) // 2
    J = np.zeros((m + 2, m + 2))
    cols = np.arange(m)
    for k in range(-b, b + 1):
        rows = cols + k
        inside = (rows >= 0) & (rows < m)
        J[rows[inside], cols[inside]] = ab[b + k, inside]
        assert np.all(ab[b + k, ~inside] == 0.0)
    J[:m, m:] = C
    J[m:, :m] = D
    return J


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@settings(max_examples=25)
@given(data=st.data())
def test_assembled_jacobian_is_the_derivative_of_the_residual(sigma_term, data):
    p, d, grid, u = data.draw(_stationary_case(sigma_term))
    bc = electrode_bc(d.phi_left, d.phi_right)
    r, ab, C, D = _assemble(u, p, grid, bc)
    np.testing.assert_array_equal(r, stationary_residual(u, p, grid, bc))
    # the finite differences check the zero multiplier corner too
    J = _dense_jacobian(ab, C, D)

    J_fd = np.empty_like(J)
    for k in range(u.size):
        h = 1e-6 * (1.0 + abs(u[k]))
        up, um = u.copy(), u.copy()
        up[k] += h
        um[k] -= h
        J_fd[:, k] = (
            stationary_residual(up, p, grid, bc) - stationary_residual(um, p, grid, bc)
        ) / (2.0 * h)
    assert np.max(np.abs(J - J_fd)) <= 1e-6 * np.max(np.abs(J_fd))

    # the residual is affine in sigma and in the applied voltage, so a
    # forward difference in the parameter is exact up to rounding
    for name, value in (("sigma", p.sigma), ("voltage", d.phi_right)):
        def residual_at(v):
            pv, bcv = _apply_param(p, d, name, v)
            return stationary_residual(u, pv, grid, bcv)

        dv = 1e-3
        fd = (residual_at(value + dv) - residual_at(value)) / dv
        exact = _dresidual_dparam(u, p, grid, name)
        assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@settings(max_examples=25)
@given(data=st.data())
def test_residual_is_mirror_equivariant(sigma_term, data):
    p, d, grid, u = data.draw(_stationary_case(sigma_term, equal_walls=True))
    bc = electrode_bc(d.phi_left, d.phi_right)
    m = 3 * grid.n

    def reverse_nodes(v):
        out = v.copy()
        out[:m] = v[:m].reshape(grid.n, 3)[::-1].ravel()
        return out

    r = stationary_residual(u, p, grid, bc)
    r_mirror = stationary_residual(reverse_nodes(u), p, grid, bc)
    assert np.max(np.abs(r_mirror - reverse_nodes(r))) <= 1e-12 * np.max(np.abs(r))


@settings(max_examples=20)
@given(data=st.data())
def test_newton_states_are_fixed_points_of_evolve(data):
    p = data.draw(admissible_params(True))
    voltage = data.draw(st.floats(-0.5, 0.5))
    grid = make_grid(DomainSpec(data.draw(st.floats(0.5, 5.0))), data.draw(st.integers(16, 32)))
    bc = electrode_bc(-voltage, voltage)
    # run_combined's path: relax the uniform state, then Newton-polish it
    relaxed = evolve(p, homogeneous_profile(grid, p), bc, t_end=50.0)
    state = newton_solve(relaxed.profile, p, grid, bc, "voltage", voltage)

    again = evolve(p, state.as_profile(grid), bc, t_end=50.0)
    assert again.verdict == "Steady"
    assert again.steps == 0

    # F_j = (flux_j - flux_j-1) / w_j with flux_f = c_f (mu_f+1 - mu_f) / dx
    # and w_j >= dx / 2, while mu - lam is the residual's chemical-potential
    # rows: |F| <= 8 max(c) max|mu - lam| / dx^2, up to the rounding of
    # mu - lam. A chemical potential that differed between Newton and the
    # dynamics would break this bound at the first node where they differ.
    phi = solve_potential(state.c1, state.c2, p, grid, bc)
    f = np.concatenate(time_derivatives(state.c1, state.c2, phi, p, grid))
    r = stationary_residual(_pack(state.c1, state.c2, phi, state.lam1, state.lam2), p, grid, bc)
    r_mu = np.max(np.abs(r[: 3 * grid.n].reshape(grid.n, 3)[:, :2]))
    rounding = 4.0 * np.finfo(float).eps * max(abs(state.lam1), abs(state.lam2))
    c_max = max(state.c1.max(), state.c2.max())
    assert np.max(np.abs(f)) <= 8.0 * c_max * (r_mu + rounding) / grid.dx**2
