"""Acceptance suite: thirteen end-to-end checks of the toolkit.

Each test prints one machine-readable line

    ACCEPTANCE <n> PASS/FAIL: <name>

before asserting, so a scan of the output gives the full scoreboard even
when a criterion fails. Counts and fit numbers observed during the run are
embedded in the line. Tolerances follow the statements in each test.
"""

import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

from stericpnp.continuation import (
    mirror_state,
    newton_solve,
    run_combined,
    stability_probe,
    states_at,
)
from stericpnp.dynamics import (
    electrode_bc,
    evolve,
    periodic_bc,
    solve_potential,
    time_derivatives,
)
from stericpnp.energy import (
    g12_critical,
    hessian,
    hessian_det,
    segregated_comparison,
)
from stericpnp.errors import NumericsError
from stericpnp.model import (
    DomainSpec,
    Profile,
    homogeneous_profile,
    make_grid,
    make_params,
    make_periodic_grid,
    with_sigma,
)
from stericpnp.stability import dispersion, find_onset, growth_matrix, max_growth_rate
from stericpnp.trajectories import (
    build_periodic,
    classify_trajectory,
    compute_trajectory,
    slope_bounds,
    stationary_residual_fd,
)
from stericpnp.weakly_nonlinear import (
    amplitude_coefficients,
    criticality_map,
    predicted_amplitude,
)

from _dense import dense_index

P_SYM = make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
P_FIG10 = make_params(1, -1, 3.6, 0.4, 2.65, 1.0, 1.0)
P_FIG3 = make_params(1, -1, 2.25, 0.75, 2.5, 1.0, 1.0)
P_FIG6 = make_params(1, -1, 3.4, 0.6, 2.65, 2.0, 2.01)
K_C_SYM = 2.0 * np.sqrt(2.0)
SIGMA_C_SYM = 1.0 / 32.0


def _report(capsys, n, ok, name):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {name}")


def test_acceptance_01_symmetric_onset(capsys):
    t0 = time.perf_counter()
    onset = find_onset(P_SYM)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(onset.sigma_c - 0.03125) < 1e-4
        and abs(onset.k_c - 2.8284) < 1e-3
        and elapsed < 1.0
    )
    _report(capsys, 1, ok, f"symmetric onset closed form ({elapsed * 1e3:.0f} ms)")
    assert abs(onset.sigma_c - 0.03125) < 1e-4
    assert abs(onset.k_c - 2.8284) < 1e-3
    assert elapsed < 1.0


def test_acceptance_02_g12_threshold(capsys):
    crit = g12_critical(P_SYM)
    below = float(hessian_det(1.0, 1.0, make_params(1, -1, 2, 2, 2.9, 1, 1)))
    above = float(hessian_det(1.0, 1.0, make_params(1, -1, 2, 2, 3.1, 1, 1)))
    ok = abs(crit - 3.0) < 1e-12 and below > 0 > above
    _report(capsys, 2, ok, "g12 threshold and Hessian determinant sign change")
    assert crit == pytest.approx(3.0, abs=1e-12)
    assert below > 0
    assert above < 0


def test_acceptance_03_asymmetric_onset(capsys):
    onset = find_onset(P_FIG10)
    ok = abs(onset.k_c - 6.23) < 0.05
    _report(capsys, 3, ok, f"asymmetric onset wavenumber (k_c = {onset.k_c:.4f})")
    assert abs(onset.k_c - 6.23) < 0.05


def test_acceptance_04_steric_illposedness(capsys):
    # without gradient regularization, concave states blow up at a rate
    # k^2 |lambda_-| where lambda_- is the negative eigenvalue of the
    # mobility-weighted Hessian at the uniform state
    assert float(hessian_det(2.0, 2.01, P_FIG6)) < 0
    M = np.diag([2.0, 2.01]) @ hessian(2.0, 2.01, P_FIG6)
    lam_minus = float(np.min(np.linalg.eigvals(M).real))
    assert lam_minus < 0
    k = 100.0
    ratio = max_growth_rate(k, P_FIG6, sigma=0.0) / (k * k * abs(lam_minus))
    ok = 0.98 <= ratio <= 1.02
    _report(capsys, 4, ok, f"steric ill-posedness growth scaling (ratio {ratio:.5f})")
    assert 0.98 <= ratio <= 1.02


def test_acceptance_05_trajectory_laws(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    counts = {"I": 0, "II": 0, "III": 0}
    failures = []
    for i in range(50):
        c1_0 = float(rng.uniform(0.05, 2.5))
        c2_0 = float(rng.uniform(0.05, 2.5))
        res = compute_trajectory(P_FIG3, c1_0, c2_0)
        cls = classify_trajectory(res)
        counts[cls] += 1
        if not (np.all(np.diff(res.c2) > 0) and np.all(np.diff(res.c1) < 0)):
            failures.append((i, "not strictly monotone"))
        if len(res.neutral_points) != 1:
            failures.append((i, f"{len(res.neutral_points)} neutral crossings"))
        m, M = slope_bounds(c1_0, c2_0, P_FIG3)
        sel = res.c2 >= c2_0
        lo = c1_0 * np.exp(m * (res.c2[sel] - c2_0))
        hi = c1_0 * np.exp(M * (res.c2[sel] - c2_0))
        if (
            float(np.max(lo - res.c1[sel], initial=0.0)) > 1e-9
            or float(np.max(res.c1[sel] - hi, initial=0.0)) > 1e-9
        ):
            failures.append((i, "escaped the exponential envelope"))
        if cls == "III" and len(res.d_zero_points) < 2:
            failures.append((i, "type III with fewer than two D = 0 crossings"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(
        capsys,
        5,
        ok,
        f"trajectory laws over 50 seeds (classes {counts}, {elapsed:.1f} s)",
    )
    assert not failures, failures
    assert elapsed < 30.0


def test_acceptance_06_periodic_construction(capsys):
    sol = build_periodic(P_FIG6, amplitude=0.15)
    x, c1, c2, E, phi = sol.sample(n_per_period=1024, periods=3)
    res = stationary_residual_fd(x, c1, c2, E, phi, P_FIG6, periodic=True)
    flow_ok = max(res["c1"], res["c2"], res["field"], res["potential_gradient"]) < 1e-6
    d_ok = float(np.max(hessian_det(c1, c2, P_FIG6))) < 0.0

    # E_x = 0 exactly where the local charge density vanishes; refine each
    # sign change of rho = z . c + rho0 and check c returns to cbar there
    from scipy.optimize import brentq

    def rho(xx):
        c1x, c2x, _, _ = sol.evaluate(xx)
        return float(np.atleast_1d(c1x)[0] - np.atleast_1d(c2x)[0] + P_FIG6.rho0)

    vals = c1 - c2 + P_FIG6.rho0
    roots = []
    for i in np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        roots.append(brentq(rho, x[i], x[i + 1], xtol=1e-13))
    dev = 0.0
    for r in roots:
        c1r, c2r, _, _ = sol.evaluate(r)
        dev = max(
            dev,
            abs(float(np.atleast_1d(c1r)[0]) - 2.0),
            abs(float(np.atleast_1d(c2r)[0]) - 2.01),
        )
    anchored = len(roots) >= 6 and dev < 1e-6

    ok = flow_ok and d_ok and anchored
    _report(
        capsys,
        6,
        ok,
        f"periodic construction in the concave window "
        f"({len(roots)} neutral points, max |c - cbar| {dev:.2e})",
    )
    assert flow_ok, res
    assert d_ok
    assert anchored, (len(roots), dev)


def _fit_growth_rate(k, t_end, dt_max, amp0):
    sig = SIGMA_C_SYM / 2.0
    g = make_periodic_grid(np.pi / k, 64)
    M = growth_matrix(k, P_SYM, sigma=sig)
    lam, V = np.linalg.eig(M)
    v = V[:, int(np.argmax(lam.real))].real
    v /= np.max(np.abs(v))
    c1 = 1.0 + amp0 * v[0] * np.cos(k * g.x)
    c2 = 1.0 + amp0 * v[1] * np.cos(k * g.x)
    ph = np.exp(-1j * k * g.x)

    def proj(t, c1a, c2a, phia):
        return float(2.0 * np.abs(np.mean((c1a - np.mean(c1a)) * ph)))

    res = evolve(
        with_sigma(P_SYM, sig),
        Profile(g, c1, c2),
        periodic_bc(),
        t_end=t_end,
        dt_max=dt_max,
        steady_tol=1e-14,
        observer=proj,
    )
    t = np.asarray(res.times)
    A = np.asarray(res.observables)
    good = A > 1e-13
    t, A = t[good], A[good]
    i0 = max(1, len(t) // 10)
    return float(np.polyfit(t[i0:], np.log(A[i0:]), 1)[0])


def test_acceptance_07_dispersion_vs_dynamics(capsys):
    cases = (
        (K_C_SYM / 2, 6.0, 0.01, 1e-6),
        (K_C_SYM, 6.0, 0.005, 1e-8),
        (2 * K_C_SYM, 0.25, 8e-4, 1e-6),
    )
    rows = []
    for k, t_end, dt_max, amp0 in cases:
        fitted = _fit_growth_rate(k, t_end, dt_max, amp0)
        predicted = max_growth_rate(k, P_SYM, sigma=SIGMA_C_SYM / 2)
        rows.append((k, fitted, predicted, abs(fitted - predicted) / abs(predicted)))
    worst = max(r[3] for r in rows)
    ok = worst < 0.05
    _report(
        capsys,
        7,
        ok,
        f"dispersion vs dynamics rate fits (worst deviation {100 * worst:.2f}%)",
    )
    for k, fitted, predicted, rel in rows:
        assert rel < 0.05, (k, fitted, predicted)


def test_acceptance_08_conservation_dissipation(capsys):
    runs = []
    # noise on a periodic box in the unstable regime
    g = make_periodic_grid(2 * np.pi / K_C_SYM, 64)
    rng = np.random.default_rng(1)
    c1 = np.ones(g.n) + 1e-3 * rng.standard_normal(g.n)
    c1 -= c1.mean() - 1.0
    runs.append(
        evolve(with_sigma(P_SYM, 0.02), Profile(g, c1, np.ones(g.n)), periodic_bc(),
               t_end=25.0)
    )
    # biased walls
    ge = make_grid(DomainSpec(2.0), 81)
    runs.append(
        evolve(with_sigma(P_SYM, 0.05), homogeneous_profile(ge, P_SYM),
               electrode_bc(-0.25, 0.25), t_end=30.0)
    )
    # pattern saturation slightly below onset
    c1p = 1.0 + 1e-2 * np.cos(K_C_SYM * g.x)
    c2p = 1.0 - 1e-2 * np.cos(K_C_SYM * g.x)
    runs.append(
        evolve(with_sigma(P_SYM, SIGMA_C_SYM - 1e-3), Profile(g, c1p, c2p),
               periodic_bc(), t_end=200.0)
    )
    worst_mass = 0.0
    worst_energy = -np.inf
    for res in runs:
        for m in (np.asarray(res.mass1), np.asarray(res.mass2)):
            worst_mass = max(worst_mass, float(np.max(np.abs(m - m[0])) / abs(m[0])))
        worst_energy = max(worst_energy, float(np.max(np.diff(res.energy))))
    # a run the step controller abandons ("Unstable") says nothing about
    # the flow, whatever its accepted steps did
    verdicts = [res.verdict for res in runs]
    finished = all(v in ("Steady", "Running") for v in verdicts)
    ok = worst_mass < 1e-10 and worst_energy <= 1e-10 and finished
    _report(
        capsys,
        8,
        ok,
        f"conservation and dissipation (mass drift {worst_mass:.1e}, "
        f"worst energy step {worst_energy:.1e}, runs {', '.join(verdicts)})",
    )
    assert finished, f"a run was abandoned: {verdicts}"
    assert worst_mass < 1e-10
    assert worst_energy <= 1e-10


def test_acceptance_09_amplitude_law(capsys):
    coeffs = amplitude_coefficients(find_onset(P_SYM), P_SYM)
    assert coeffs.beta0_sq == pytest.approx(34.286, rel=1e-3)
    g = make_periodic_grid(np.pi / K_C_SYM, 64)
    ph = np.exp(-1j * K_C_SYM * g.x)
    eps_values = np.array([5e-4, 1e-3, 2e-3])
    amps = []
    for eps in eps_values:
        c1 = 1.0 + 1e-2 * np.cos(K_C_SYM * g.x)
        c2 = 1.0 - 1e-2 * np.cos(K_C_SYM * g.x)
        res = evolve(
            with_sigma(P_SYM, SIGMA_C_SYM - eps),
            Profile(g, c1, c2),
            periodic_bc(),
            t_end=800.0,
            steady_tol=1e-9,
        )
        assert res.verdict == "Steady"
        amps.append(
            float(2.0 * np.abs(np.mean((res.profile.c1 - np.mean(res.profile.c1)) * ph)))
        )
    amps = np.array(amps)
    # predicted_amplitude also requires the onset to be supercritical
    predicted = np.array([predicted_amplitude(SIGMA_C_SYM - eps, coeffs) for eps in eps_values])
    rel = np.max(np.abs(amps - predicted) / predicted)
    exponent = float(np.polyfit(np.log(eps_values), np.log(amps), 1)[0])
    ok = rel < 0.10 and abs(exponent - 0.5) < 0.05
    _report(
        capsys,
        9,
        ok,
        f"supercritical amplitude law (exponent {exponent:.3f}, "
        f"worst amplitude deviation {100 * rel:.1f}%)",
    )
    assert rel < 0.10, (amps, predicted)
    assert abs(exponent - 0.5) < 0.05


def test_acceptance_10_criticality_regions(capsys):
    asym = np.linspace(0.0, 1.6, 9)
    g12s = np.linspace(2.2, 3.8, 9)
    cm = criticality_map(asym, g12s, g_sum=4.0, cbar=1.0)
    consistent = True
    for i, d in enumerate(asym):
        p_row = make_params(1, -1, 2.0 + d, 2.0 - d, 3.5, 1.0, 1.0)
        crit = g12_critical(p_row)
        for j, g12 in enumerate(g12s):
            if g12 <= crit:
                consistent &= cm.tags[i, j] == "no_onset" and np.isnan(cm.sigma_c[i, j])
            else:
                consistent &= cm.tags[i, j] in ("supercritical", "subcritical")
    sym_row = cm.tags[0]
    sym_ok = not np.any(sym_row == "subcritical")
    onset_tags = cm.tags[cm.tags != "no_onset"]
    both = ("supercritical" in onset_tags) and ("subcritical" in onset_tags)
    ok = consistent and sym_ok and both
    _report(
        capsys,
        10,
        ok,
        f"criticality regions on the g11 + g22 = 4 scan "
        f"({np.sum(onset_tags == 'subcritical')} subcritical cells)",
    )
    assert consistent
    assert sym_ok
    assert both


def _cosine_census(p, grid, bc, sigma):
    """Distinct stationary states reached by Newton from cosine seeds.

    Seeds are c_i proportional to exp(a_i cos(m pi (x + L) / (2L))) at the
    Neumann wavenumbers m = 1..8, amplitudes |a_1| = 0.1..1.2 of both signs,
    and c2/c1 amplitude ratios -1, 0, 1; each is rescaled to the bulk mass.
    Duplicates are dropped by a test written out here, max-norm distance
    below 1e-4 (1 + max c1), independent of StationaryState.same_as, so the
    census is a reference the library's identity rule does not shape.
    """
    theta = np.pi * (grid.x + grid.L) / (2.0 * grid.L)
    w = grid.weights
    found = []
    for m in range(1, 9):
        wave = np.cos(m * theta)
        for a in (0.1, 0.3, 0.6, 0.9, 1.2, -0.1, -0.3, -0.6, -0.9, -1.2):
            for ratio in (-1.0, 0.0, 1.0):
                c1 = np.exp(a * wave)
                c2 = np.exp(ratio * a * wave)
                c1 *= p.cbar1 * grid.length / (w @ c1)
                c2 *= p.cbar2 * grid.length / (w @ c2)
                try:
                    st = newton_solve(Profile(grid, c1, c2), p, grid, bc, "sigma", sigma)
                except NumericsError:
                    continue
                scale = 1.0 + float(np.max(np.abs(st.c1)))
                if all(st.distance(q) >= 1e-4 * scale for q in found):
                    found.append(st)
    return found


def _instability_index(state, p, grid, bc):
    """Eigenvalues with real part above 1e-6 of the linearized dynamics.

    The Jacobian of (c1, c2) -> time_derivatives, with phi slaved through
    solve_potential, is built densely by central differences. Mass
    conservation puts two eigenvalues at zero; they stay below the cut.
    """
    n = grid.n
    h = 1e-6

    def rate(u):
        c1, c2 = u[:n], u[n:]
        phi = solve_potential(c1, c2, p, grid, bc)
        return np.concatenate(time_derivatives(c1, c2, phi, p, grid))

    u0 = np.concatenate((state.c1, state.c2))
    jac = np.empty((2 * n, 2 * n))
    for k in range(2 * n):
        e = np.zeros(2 * n)
        e[k] = h
        jac[:, k] = (rate(u0 + e) - rate(u0 - e)) / (2.0 * h)
    return int(np.sum(np.linalg.eigvals(jac).real > 1e-6))


# Criterion 11. The walls are grounded: phi(-L) = phi(L) = 0. Because of
# that, the uniform state is linearly unstable at sigma = 0.003 (one
# antisymmetric growing mode), even though the infinite-domain onset is
# sigma_c = 0.00123. The expected multiplicity is not a fixed number: a
# census that shares no code with the branch map (cosine-seeded Newton,
# and the instability index of each state) says which states exist and
# which are stable, and the branch map and the probe must agree with it.
def test_acceptance_11_multiplicity(capsys):
    t0 = time.perf_counter()
    onset = find_onset(P_FIG10)
    L = 3 * np.pi / (2 * onset.k_c)
    d = DomainSpec(L)
    grid = make_grid(d, 96)
    prof = homogeneous_profile(grid, P_FIG10)
    bs = run_combined(
        [prof],
        P_FIG10,
        d,
        "sigma",
        (0.0005, 0.0055),
        grid.n,
        probe_stride=2,
        max_points=80,
    )
    states = states_at(bs.branches, 0.003, P_FIG10, d, grid, "sigma")
    stable = []
    verdicts = []
    for st in states:
        probe = stability_probe(st, P_FIG10, d, grid, "sigma")
        verdicts.append(probe.stable)
        if probe.stable:
            stable.append(st)
    # mirror-asymmetric pair: a stable state that differs from its own
    # reflection while the reflection matches another stable state
    pair = False
    for a in stable:
        ma = mirror_state(a)
        if a.distance(ma) < 1e-3:
            continue
        for b in stable:
            if b is not a and b.distance(ma) < 1e-5:
                pair = True
    p = with_sigma(P_FIG10, 0.003)
    bc = electrode_bc(d.phi_left, d.phi_right)
    census = _cosine_census(p, grid, bc, 0.003)
    index = [_instability_index(st, p, grid, bc) for st in census]

    def matches(st, pool):
        scale = 1.0 + float(np.max(np.abs(st.c1)))
        return [j for j, q in enumerate(pool) if st.distance(q) < 1e-4 * scale]

    missed = sum(not matches(st, states) for st in census)
    unexplained = sum(not matches(st, census) for st in states)
    agree = True
    for st, verdict in zip(states, verdicts):
        hit = matches(st, census)
        agree &= len(hit) == 1 and verdict == (index[hit[0]] == 0)
    census_stable = sum(i == 0 for i in index)
    elapsed = time.perf_counter() - t0
    found = len(stable)
    ok = (
        missed == 0
        and unexplained == 0
        and agree
        and found == census_stable
        and census_stable >= 2
        and pair
        and elapsed < 1200.0
    )
    _report(
        capsys,
        11,
        ok,
        f"multiplicity at finite domain (census {len(census)} states with "
        f"index {sorted(index)}, {len(states)} branch states, {found} "
        f"probe-stable, mirror pair {'present' if pair else 'absent'}, "
        f"{len(bs.branches)} branches, {elapsed:.0f} s)",
    )
    assert missed == 0 and unexplained == 0, (
        f"{missed} census states missing from the branches and {unexplained} "
        f"branch states missing from the census at sigma = 0.003"
    )
    assert agree, "a probe verdict disagrees with the census instability index"
    assert found == census_stable, (
        f"the probe finds {found} stable states, the census {census_stable}"
    )
    assert census_stable >= 2
    assert pair, "no mirror-asymmetric stable pair found"
    assert elapsed < 1200.0


def _bump_profile(grid, centers, amp=0.65, w=0.25):
    x = grid.x
    c1 = np.ones(x.size)
    for x0 in centers:
        c1 = c1 + amp * np.exp(-(((x - x0) / w) ** 2))
    c1 *= 10.0 / trapezoid(c1, x)
    c2 = np.clip(2.0 - c1, 0.05, None)
    c2 *= 10.0 / trapezoid(c2, x)
    return Profile(grid, c1, c2)


def _structure_count(state, x):
    """Merged deviation intervals of either species in the bulk window."""
    win = np.abs(x) <= 3.0
    b1 = float(np.median(state.c1[win]))
    b2 = float(np.median(state.c2[win]))
    dev = np.maximum(np.abs(state.c1 - b1), np.abs(state.c2 - b2))
    idx = np.where((dev > 0.15) & win)[0]
    if idx.size == 0:
        return 0
    xs = x[idx]
    count = 1
    for a, b in zip(xs[:-1], xs[1:]):
        if b - a >= 0.35:
            count += 1
    return count


def test_acceptance_12_applied_voltage_bulk_structure(capsys):
    t0 = time.perf_counter()
    d = DomainSpec(5.0, phi_left=-1.0, phi_right=1.0)
    grid = make_grid(d, 400)
    bc = electrode_bc(-1.0, 1.0)
    seeds = [homogeneous_profile(grid, P_FIG10)]
    for sig, centers in ((0.0013, [0.0]), (0.001, [-3.0, -1.5, 0.0, 1.5, 3.0])):
        res = evolve(with_sigma(P_FIG10, sig), _bump_profile(grid, centers), bc,
                     t_end=400.0)
        seeds.append(
            newton_solve(res.profile, with_sigma(P_FIG10, sig), grid, bc,
                         "sigma", sig)
        )
    bs = run_combined(
        seeds,
        P_FIG10,
        d,
        "sigma",
        (0.0002, 0.005),
        grid.n,
        probe_stride=3,
        max_points=70,
        max_branches=7,
        probe_t_end=150.0,
    )
    reps = []
    for br in bs.branches:
        stab = [pt for pt in br.points if pt.stable]
        if not stab:
            continue
        reps.append(min(stab, key=lambda q: abs(q.param - 0.001)))
    # each representative is a constrained energy minimum by a dense count
    # that shares no eigensolver with the flags that chose it
    index = [dense_index(pt.state, with_sigma(P_FIG10, pt.param), grid, bc) for pt in reps]
    coarse = [_structure_count(pt.state, grid.x) for pt in reps]
    counts = sorted(set(coarse))
    # the counts do not depend on the grid: each representative,
    # interpolated to n = 800 and Newton-solved there, keeps its count
    fine = make_grid(d, 800)
    refined = []
    for pt in reps:
        guess = Profile(fine, *(np.interp(fine.x, grid.x, a)
                                for a in (pt.state.c1, pt.state.c2, pt.state.phi)))
        try:
            state = newton_solve(guess, with_sigma(P_FIG10, pt.param), fine, bc,
                                 "sigma", pt.param)
        except NumericsError:
            refined.append(None)
            continue
        refined.append(_structure_count(state, fine.x))
    # boundary layers: outer 10% of the domain on each side
    lay = np.abs(grid.x) >= 0.9 * d.L
    worst_layer = 0.0
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            a, b = reps[i].state, reps[j].state
            num = float(np.max(np.abs(a.c1[lay] - b.c1[lay])))
            den = max(float(np.max(np.abs(a.c1))), float(np.max(np.abs(b.c1))))
            worst_layer = max(worst_layer, num / den)
    elapsed = time.perf_counter() - t0
    ok = (
        len(reps) >= 3
        and not any(index)
        and len(counts) >= 3
        and worst_layer < 0.05
        and refined == coarse
    )
    _report(
        capsys,
        12,
        ok,
        f"applied-voltage bulk structure ({len(reps)} stable branches, dense index "
        f"{index}, interior structure counts {counts}, {refined} at n = 800, worst "
        f"layer gap {100 * worst_layer:.1f}%, {elapsed:.0f} s)",
    )
    assert len(reps) >= 3, f"only {len(reps)} stable branch representatives"
    assert not any(index), f"representatives at sigma {[pt.param for pt in reps]} have index {index}"
    assert len(counts) >= 3, f"interior structure counts not distinct: {counts}"
    assert worst_layer < 0.05
    assert refined == coarse, f"counts {coarse} at n = 400 but {refined} at n = 800"


def test_acceptance_13_segregated_energy(capsys):
    g12 = 3.5
    rows = []
    fine = True
    for n in (1, 2, 4):
        cbar = 6.0 * n  # where the leading-order electrostatic estimate is exact
        seg = segregated_comparison(n, cbar, g12)
        est = cbar / (2.0 * n)
        rows.append((n, seg.electrostatic_seg, est))
        fine &= seg.steric_seg == 0.0
        fine &= abs(seg.electrostatic_seg - est) / est < 0.02
        fine &= abs(seg.steric_hom - 4.0 * g12 * cbar**2) < 1e-10 * 4.0 * g12 * cbar**2
    cross = segregated_comparison(1, 10.0 * 1.77 / g12, g12)
    beats = cross.total_seg < cross.total_hom
    ok = fine and beats
    _report(
        capsys,
        13,
        ok,
        "segregated energy split (steric zero, electrostatic law, crossover)",
    )
    assert fine, rows
    assert beats
