"""Stationary solves, branch tracing, and the combined continuation loop.

The expensive bifurcation surveys live in the acceptance suite; these tests
pin the machinery on small boxes where every answer has a closed form.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stericpnp import _fd, continuation
from stericpnp._fd import _Kernel, _pack
from stericpnp.continuation import (
    _NEWTON_TOL,
    _SAME_TOL,
    Branch,
    BranchPoint,
    BranchSet,
    _apply_param,
    _dresidual_dparam,
    _initial_vector,
    _kernel_at,
    _solve_bordered,
    l2_norm,
    load_branchset,
    mirror_state,
    newton_solve,
    run_combined,
    save_branchset,
    stability_index,
    stability_probe,
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
from stericpnp.errors import NumericsError, ParameterError
from stericpnp.model import (
    DomainSpec,
    Profile,
    homogeneous_profile,
    make_grid,
    make_params,
    make_periodic_grid,
    with_sigma,
)
from stericpnp.stability import find_onset

from _dense import dense_index, dense_jacobian
from _strategies import admissible_params

P_SYM = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
P_FIG10 = make_params(1, -1, 3.6, 0.4, 2.65, 1.0, 1.0)
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

    def test_every_probed_flag_is_index_zero(self):
        bs, grid = self._run()
        for pt in bs.branches[0].points:
            p = with_sigma(P_SYM, pt.param)
            assert pt.index == stability_index(pt.state, p, grid, electrode_bc())
            assert pt.stable == (pt.index == 0)

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

    @pytest.mark.parametrize("stride", [0, -1])
    def test_rejects_probe_stride_below_one(self, stride):
        # 0 divided by zero and -1 probed like 1
        d = DomainSpec(2.0)
        grid = make_grid(d, 48)
        with pytest.raises(ParameterError, match="probe_stride"):
            run_combined(
                [homogeneous_profile(grid, P_SYM)], P_SYM, d, "sigma", (0.2, 0.3), grid.n,
                max_points=4, probe_stride=stride,
            )

    @pytest.mark.parametrize(
        "name, count", [("max_points", 0), ("max_points", -3), ("max_branches", 0)]
    )
    def test_rejects_point_and_branch_counts_below_one(self, name, count):
        # max_points <= 0 gave a one-point map and max_branches 0 an empty one
        d = DomainSpec(2.0)
        grid = make_grid(d, 48)
        opts = {"max_points": 4, name: count}
        with pytest.raises(ParameterError, match=name):
            run_combined(
                [homogeneous_profile(grid, P_SYM)], P_SYM, d, "sigma", (0.2, 0.3), grid.n, **opts
            )

    @pytest.mark.parametrize("ds0", [0.0, -0.01, np.nan, np.inf])
    def test_trace_branch_rejects_ds0_outside_zero_to_inf(self, ds0):
        # a NaN or infinite ds never falls below its floor, 0 makes a NaN
        # tangent, and a negative one walks against the directions
        d = DomainSpec(2.0)
        grid = make_grid(d, 48)
        with pytest.raises(ParameterError, match="ds0"):
            trace_branch(_hom_state(grid), P_SYM, d, grid, "sigma", (0.2, 0.3), ds0=ds0,
                         max_points=4, directions=(-1, 1))


def _fig10_asymmetric_state(grid):
    """Criterion 11's stable mirror-asymmetric state at sigma = 0.003, from
    the cosine seed m = 1, a = 0.9, c2/c1 ratio -1 of its census."""
    wave = 0.9 * np.cos(np.pi * (grid.x + grid.L) / (2.0 * grid.L))
    c1, c2 = np.exp(wave), np.exp(-wave)
    c1 *= P_FIG10.cbar1 * grid.length / (grid.weights @ c1)
    c2 *= P_FIG10.cbar2 * grid.length / (grid.weights @ c2)
    p = with_sigma(P_FIG10, 0.003)
    return newton_solve(Profile(grid, c1, c2), p, grid, electrode_bc(), "sigma", 0.003)


def test_trace_branch_walks_both_directions_from_interior_seed():
    """A two-way trace is the reversed (1,) trace, less its seed, followed
    by the (-1,) trace, bit for bit: each direction starts from the same
    seed tangent, signed by the direction. Checked on a homogeneous state
    and on criterion 11's asymmetric one."""
    d_sym = DomainSpec(2.0)
    d_fig10 = DomainSpec(3 * np.pi / (2 * find_onset(P_FIG10).k_c))
    grid_sym, grid_fig10 = make_grid(d_sym, 48), make_grid(d_fig10, 96)
    cases = [
        (_hom_state(grid_sym, sigma=0.25), P_SYM, d_sym, grid_sym, (0.2, 0.3)),
        (_fig10_asymmetric_state(grid_fig10), P_FIG10, d_fig10, grid_fig10, (0.0005, 0.0055)),
    ]
    for st, p, d, grid, param_range in cases:
        args = (st, p, d, grid, "sigma", param_range)
        br = trace_branch(*args, ds0=0.01, max_points=10, directions=(-1, 1))
        down = trace_branch(*args, ds0=0.01, max_points=10, directions=(-1,))
        up = trace_branch(*args, ds0=0.01, max_points=10, directions=(1,))
        joined = up.points[:0:-1] + down.points
        assert len(br.points) == len(joined)
        for pt, ref in zip(br.points, joined):
            assert pt.param == ref.param
            assert np.array_equal(pt.state.pack(), ref.state.pack())
        params = br.params()
        assert min(params) < st.param_value < max(params)
        assert not br.truncated
        # plain tracing leaves stability to the combined loop
        assert {pt.stable for pt in br.points} == {None}


def test_trace_branch_truncates_when_ds_falls_below_its_floor():
    # the predictors below sigma = 0 leave the admissible set, and ds halves
    # until it falls below 1e-6
    d = DomainSpec(1.0)
    grid = make_grid(d, 16)
    st = _hom_state(grid, sigma=0.01)
    br = trace_branch(st, P_SYM, d, grid, "sigma", (0.0, 0.01), ds0=0.01, max_points=50)
    params = br.params()
    assert br.truncated
    assert len(params) == 29
    assert np.all(np.diff(params) < 0)
    assert params[-1] == pytest.approx(1.220703125e-8, rel=1e-9)


def test_stability_probe_reports_an_abandoned_relaxation(monkeypatch):
    # an energy that rises on every evaluation makes evolve give up
    # (evolve takes mu and the energy from one _Kernel.mu_and_energy call);
    # only an unstable state is relaxed at all
    d = DomainSpec(2.0)
    grid = make_grid(d, 24)
    state = _hom_state(grid, sigma=0.02)  # below sigma_c = 1/32
    assert stability_index(state, with_sigma(P_SYM, 0.02), grid, electrode_bc()) >= 1
    calls = iter(range(1000))
    real = _fd._Kernel.mu_and_energy
    monkeypatch.setattr(
        _fd._Kernel, "mu_and_energy", lambda *args: (real(*args)[0], float(next(calls)))
    )
    probe = stability_probe(state, P_SYM, d, grid, "sigma")
    assert (probe.stable, probe.target, probe.verdict) == (False, None, "Unstable")


def test_an_index_zero_probe_runs_no_dynamics(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evolve called for a constrained energy minimum")

    monkeypatch.setattr(continuation, "evolve", refuse)
    d = DomainSpec(2.0)
    grid = make_grid(d, 24)
    probe = stability_probe(_hom_state(grid), P_SYM, d, grid, "sigma")
    assert probe == continuation.ProbeResult(True, None, "Minimum", 0)


def _fig10_cases():
    """Criterion 11's states: the three at sigma = 0.003 (the uniform one, the
    mirror-asymmetric pair), then the uniform state down the census range,
    with their indices. sigma = 0.0053 is weakly unstable, its growing mode
    at a rate of about 2e-5."""
    d = DomainSpec(3 * np.pi / (2 * find_onset(P_FIG10).k_c))
    grid = make_grid(d, 96)
    bc = electrode_bc()
    asym = _fig10_asymmetric_state(grid)
    cases = [(asym, 0), (mirror_state(asym), 0)]
    for sigma, index in (
        (0.003, 1), (0.0005, 4), (0.001, 1), (0.0049, 1), (0.0053, 1),
        (0.0055, 1), (0.006, 0), (0.0075, 0),
    ):
        p = with_sigma(P_FIG10, sigma)
        cases.append((newton_solve(homogeneous_profile(grid, p), p, grid, bc, "sigma", sigma), index))
    return [(st, with_sigma(P_FIG10, st.param_value), grid, bc, index) for st, index in cases]


def test_stability_index_is_the_dense_inertia_count():
    for state, p, grid, bc, index in _fig10_cases():
        assert stability_index(state, p, grid, bc) == dense_index(state, p, grid, bc) == index


def test_stability_index_counts_densely_on_a_singular_band(monkeypatch):
    # dgbsv reports an exactly zero pivot with info > 0
    cases = _fig10_cases()
    monkeypatch.setattr(continuation, "solve_banded", lambda *args, **kwargs: (None, None, None, 1))
    for state, p, grid, bc, index in cases:
        assert stability_index(state, p, grid, bc) == index


@pytest.mark.parametrize("bc", [electrode_bc(), periodic_bc()], ids=["electrode", "periodic"])
def test_stationary_solver_rejects_periodic_grids(bc):
    # its phi rows are Dirichlet walls; on a periodic grid Newton stalled
    # and the failure read as a numerical one
    p = with_sigma(P_SYM, 0.02)
    grid = make_periodic_grid(np.pi / np.sqrt(2.0), 64)
    wave = 0.05 * np.cos(np.sqrt(2.0) * grid.x)
    prof = Profile(grid, 1.0 + wave, 1.0 - wave)
    with pytest.raises(ParameterError, match="wall-to-wall"):
        newton_solve(prof, p, grid, bc, "sigma", 0.02)
    u = _pack(prof.c1, prof.c2, np.zeros(grid.n), 5.5, 5.5)
    with pytest.raises(ParameterError, match="wall-to-wall"):
        stationary_residual(u, p, grid, bc)


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


def test_states_at_skips_an_empty_branch():
    d = DomainSpec(2.0)
    grid = make_grid(d, 24)
    assert states_at([Branch()], 0.25, P_SYM, d, grid, "sigma") == []


def test_states_at_starts_a_one_point_branch_from_its_point():
    # one point brackets no interval, so it is the only start there is
    d = DomainSpec(2.0)
    grid = make_grid(d, 24)
    state = _hom_state(grid)
    one = Branch([BranchPoint(state, l2=0.0, wnorm=0.0)])  # the norms play no part
    got = states_at([Branch(), one], 0.25, P_SYM, d, grid, "sigma")
    assert len(got) == 1
    assert got[0].param_value == 0.25
    assert got[0].same_as(state)


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


def test_branchset_roundtrip_keeps_the_index(tmp_path):
    # an index at probed points, None at the others
    grid = make_grid(DomainSpec(2.0), 24)
    state = _hom_state(grid)
    points = [
        BranchPoint(state, l2=1.0, wnorm=2.0, stable=stable, index=index)
        for stable, index in ((None, None), (True, 0), (False, 2))
    ]
    save_branchset(BranchSet([Branch(points)]), grid, tmp_path / "run")
    loaded, _ = load_branchset(tmp_path / "run")
    got = [(pt.stable, pt.index) for pt in loaded.branches[0].points]
    assert got == [(None, None), (True, 0), (False, 2)]


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


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@settings(max_examples=25)
@given(data=st.data())
def test_assembled_jacobian_is_the_derivative_of_the_residual(sigma_term, data):
    p, d, grid, u = data.draw(_stationary_case(sigma_term))
    bc = electrode_bc(d.phi_left, d.phi_right)
    kernel = _Kernel(p, grid, bc)
    r = kernel.residual(u)
    ab, C, D = kernel.jacobian(u)
    np.testing.assert_array_equal(r, stationary_residual(u, p, grid, bc))
    # the finite differences check the zero multiplier corner too
    J = dense_jacobian(ab, C, D)

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
        exact = _dresidual_dparam(_kernel_at(p, d, grid, name, value), u, name)
        assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("walls", ["grounded", "biased"])
@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@settings(max_examples=20)
@given(data=st.data())
def test_weighted_stationary_jacobian_is_symmetric(sigma_term, walls, data):
    """w_j times node j's mu rows is dE/dc_j of discrete_energy plus w_j
    (log cbar - lam), constant in c and phi, and w_j times its interior
    Poisson row is dE/dphi_j, so the band with each node's three rows scaled
    by w_j is a Hessian once the Dirichlet phi rows and columns are
    dropped. The wall potentials reach only the Dirichlet rows' constants,
    not the Jacobian (_Kernel.jacobian reads no bc), so both walls settings
    read the same band."""
    p, d, grid, u = data.draw(_stationary_case(sigma_term))
    ab, C, D = _Kernel(p, grid).jacobian(u)
    m = 3 * grid.n
    K = np.repeat(grid.weights, 3)[:, None] * dense_jacobian(ab, C, D)[:m, :m]
    inner = np.delete(np.arange(m), [2, m - 1])
    K = K[np.ix_(inner, inner)]
    assert np.max(np.abs(K - K.T)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(K))


@pytest.mark.parametrize("sigma_term", [False, True], ids=["sigma0", "sigma"])
@settings(max_examples=20)
@given(data=st.data())
def test_evolve_band_is_the_flux_operator_on_the_assembled_mu_block(sigma_term, data):
    """With the drift term dropped (dmu = 0), evolve's band is -W^-1 Dl^T A Dl M:
    M is the mu-row, c-column block of _Kernel.jacobian at the same state, Dl the
    face difference of each species (zero across the wall face), A =
    c_face / dx, and F_j = (flux_j - flux_j-1) / w_j."""
    p, d, grid, u = data.draw(_stationary_case(sigma_term))
    n = grid.n
    kernel = _Kernel(p, grid)
    ab, C, D = kernel.jacobian(u)
    # (c1_j, c2_j) interleaved, evolve's order
    conc = np.arange(3 * n).reshape(n, 3)[:, :2].ravel()
    M = dense_jacobian(ab, C, D)[np.ix_(conc, conc)]

    # F at mu = 0 leaves the face data of the state with dmu = 0
    c = u[conc].reshape(n, 2)
    kernel.flux_divergence(c, np.zeros((n, 2)))
    band = kernel.band(u[conc])
    size = 2 * n
    J = sum(np.diag(band[4 - o, max(o, 0) : size + min(o, 0)], o) for o in range(-4, 5))

    face_diff = np.eye(n, k=1) - np.eye(n)
    face_diff[-1] = 0.0
    Dl = np.kron(face_diff, np.eye(2))
    # c_face row k holds face k - 2: faces 0 ... n - 1 are rows 2 ... n + 1
    A = kernel.c_face[2:-1].ravel() / grid.dx
    J_ref = -(Dl.T @ (A[:, None] * (Dl @ M))) / np.repeat(grid.weights, 2)[:, None]
    assert np.max(np.abs(J - J_ref)) <= 1e-13 * np.max(np.abs(J_ref))


@pytest.mark.parametrize("corner", [False, True], ids=["no_corner", "corner"])
@settings(max_examples=25)
@given(data=st.data())
def test_bordered_solve_matches_a_dense_solve(corner, data):
    """_solve_bordered, one dgbsv call on the band in gbsv storage and a
    Schur complement for the borders, is np.linalg.solve of the dense
    [[B, C], [D, E]] (E = 0 without the corner) to 1e-12 relative. B is
    strictly diagonally dominant by rows and the bordered matrix has
    condition below 1e3; the workspace rows of the storage hold NaN,
    which dgbsv must not read."""
    b = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(3 * b + 2, 40))
    k = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    B = np.triu(np.tril(rng.uniform(-1.0, 1.0, (m, m)), b), -b)
    np.fill_diagonal(B, 0.0)
    np.fill_diagonal(B, (1.0 + np.abs(B).sum(axis=1)) * rng.choice([-1.0, 1.0], m))
    ab = np.zeros((m, 3 * b + 1)).T  # column-major, gbsv's storage
    ab[:b] = np.nan
    for j in range(m):
        for i in range(max(0, j - b), min(m, j + b + 1)):
            ab[2 * b + i - j, j] = B[i, j]
    C = rng.standard_normal((m, k))
    D = rng.standard_normal((k, m))
    E = rng.standard_normal((k, k)) if corner else None
    A = np.block([[B, C], [D, np.zeros((k, k)) if E is None else E]])
    assume(np.linalg.cond(A) < 1e3)
    rhs = rng.standard_normal(m + k)
    expected = np.linalg.solve(A, rhs)
    x = _solve_bordered(rhs[:m], rhs[m:], ab, C, D, E)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def _newton_assembling_every_trial(u, p, grid, bc):
    """The damped Newton loop of _damped_newton with the residual and the
    Jacobian built together at every trial, the accepted trial's blocks
    solving the next step. At each iterate it checks that the residual is
    stationary_residual's and that neither a Jacobian build nor the solve,
    which overwrites the band, changes the residual of the iterate."""
    m = 3 * grid.n
    kernel = _Kernel(p, grid, bc)

    def system(v):
        return kernel.residual(v), kernel.jacobian(v)

    r, blocks = system(u)
    rnorm = float(np.max(np.abs(r)))
    for _ in range(40):
        if rnorm < _NEWTON_TOL:
            return u
        np.testing.assert_array_equal(r, stationary_residual(u, p, grid, bc))
        step = _solve_bordered(-r[:m], -r[m:], *blocks)
        np.testing.assert_array_equal(r, kernel.residual(u))
        t = 1.0
        while True:
            u_try = u + t * step
            if np.all(u_try[0:m:3] > 0.0) and np.all(u_try[1:m:3] > 0.0):
                r_try, blocks_try = system(u_try)
                rn_try = float(np.max(np.abs(r_try)))
                if rn_try < rnorm * (1.0 - 0.25 * t) or rn_try < _NEWTON_TOL:
                    u, r, blocks, rnorm = u_try, r_try, blocks_try, rn_try
                    break
            t *= 0.5
            if t < 1.0 / 1024.0:
                raise NumericsError(f"Newton stalled at residual {rnorm:.3e} (no damped decrease)")
    raise NumericsError(f"Newton did not converge: residual {rnorm:.3e}")


@settings(max_examples=15)
@given(data=st.data())
def test_newton_takes_the_steps_of_a_loop_that_assembles_every_trial(data):
    """newton_solve tests each line-search trial on the residual alone and
    builds the Jacobian once per iterate that needs a step; a loop that
    builds both at every trial reaches the same state bit for bit, or the
    same failure."""
    p = data.draw(admissible_params(True))
    voltage = data.draw(st.floats(-0.5, 0.5))
    grid = make_grid(DomainSpec(data.draw(st.floats(0.5, 5.0))), data.draw(st.integers(12, 32)))
    bc = electrode_bc(-voltage, voltage)
    bump = data.draw(st.floats(0.0, 0.3)) * np.cos(np.pi * grid.x / grid.L)
    prof = Profile(grid, p.cbar1 * (1.0 + bump), p.cbar2 * (1.0 - bump))
    u0 = _initial_vector(prof, _Kernel(p, grid, bc), grid)
    try:
        state = newton_solve(prof, p, grid, bc, "voltage", voltage)
    except NumericsError as exc:
        with pytest.raises(NumericsError, match=f"^{re.escape(str(exc))}$"):
            _newton_assembling_every_trial(u0, p, grid, bc)
        return
    np.testing.assert_array_equal(state.pack(), _newton_assembling_every_trial(u0, p, grid, bc))


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


def _stress_ptp(state, p, grid):
    """ptp over the interior nodes of the stress first integral Q.

    Q = E^2/2 - Pi + rho0 phi with Pi = c1 + c2 + c.Gc/2
    - sigma sum_i c_i c_i,xx + (sigma/2) sum_i c_i,x^2 and E = phi_x is
    constant on every exact stationary state: sum_i c_i mu_i,x = 0 is its
    derivative. Derivatives are centred differences, so on Newton states
    the ptp falls like dx^2.
    """
    h = grid.dx
    c = np.array([state.c1, state.c2])
    mid = c[:, 1:-1]
    c_x = (c[:, 2:] - c[:, :-2]) / (2.0 * h)
    c_xx = (c[:, 2:] - 2.0 * mid + c[:, :-2]) / h**2
    E = (state.phi[2:] - state.phi[:-2]) / (2.0 * h)
    pressure = (
        mid.sum(0)
        + 0.5 * np.einsum("in,ij,jn->n", mid, p.G, mid)
        - p.sigma * (mid * c_xx).sum(0)
        + 0.5 * p.sigma * (c_x**2).sum(0)
    )
    return np.ptp(0.5 * E**2 - pressure + p.rho0 * state.phi[1:-1])


def _stress_ratios(state, p, d, grid, bc, param_name, param_value):
    """ptp(Q) on a grid over ptp(Q) on one with twice the nodes, twice over.

    Each finer state is Newton's from the coarser state interpolated onto
    the finer grid, so it stays on the same branch.
    """
    ptps = [_stress_ptp(state, p, grid)]
    for _ in range(2):
        fine = make_grid(d, 2 * grid.n)
        guess = Profile(
            fine, np.interp(fine.x, grid.x, state.c1), np.interp(fine.x, grid.x, state.c2)
        )
        state = newton_solve(guess, p, fine, bc, param_name, param_value)
        grid = fine
        ptps.append(_stress_ptp(state, p, grid))
    return [a / b for a, b in zip(ptps[:-1], ptps[1:])]


def test_stress_first_integral_of_the_criterion_11_state_falls_like_dx2():
    p = with_sigma(P_FIG10, 0.003)
    d = DomainSpec(3 * np.pi / (2 * find_onset(P_FIG10).k_c))
    grid = make_grid(d, 96)
    bc = electrode_bc()
    state = _fig10_asymmetric_state(grid)
    assert state.distance(mirror_state(state)) > 1.0
    for ratio in _stress_ratios(state, p, d, grid, bc, "sigma", 0.003):
        assert 3.0 <= ratio <= 5.0


def test_stress_first_integral_under_voltage_falls_like_dx2():
    # walls at -/+ 1 V: boundary layers of width about sqrt(sigma) = 0.1
    p = with_sigma(P_FIG10, 0.01)
    d = DomainSpec(2.0, -1.0, 1.0)
    grid = make_grid(d, 96)
    bc = electrode_bc(-1.0, 1.0)
    relaxed = evolve(p, homogeneous_profile(grid, p), bc, t_end=50.0)
    state = newton_solve(relaxed.profile, p, grid, bc, "voltage", 1.0)
    assert np.ptp(state.c1) > 1.0
    for ratio in _stress_ratios(state, p, d, grid, bc, "voltage", 1.0):
        assert 3.0 <= ratio <= 5.0
