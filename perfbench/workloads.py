"""The three benchmark workloads: inputs, the timed calls, and output checks.

Every call into the package goes through a module attribute
(``continuation.run_combined``, never a name imported into this file), so a
tracer that replaces module attributes sees each call.

Each workload is three functions:

- ``make_<name>(seed)`` builds the inputs. ``setup_s`` times it together
  with the imports.
- ``run_<name>(inputs, ops)`` makes the top-level calls through ``ops`` and
  returns their outputs. ``wall_s`` times it; nothing else runs inside that
  interval.
- ``check_<name>(inputs, outputs)`` verifies method-independent invariants
  after the clock has stopped. It returns one ``(operation, ok, note)`` row
  per top-level call, and the work counts that can be read from the outputs.

An operation whose call raised has output ``None`` and fails its check.
"""

from __future__ import annotations

import json
import traceback
from pathlib import Path

import numpy as np

from stericpnp import (
    continuation,
    dynamics,
    energy,
    errors,
    model,
    stability,
    trajectories,
    weakly_nonlinear,
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"

P_SYM = model.make_params(1, -1, 2.0, 2.0, 3.5, 1.0, 1.0)
P_FIG10 = model.make_params(1, -1, 3.6, 0.4, 2.65, 1.0, 1.0)
P_FIG3 = model.make_params(1, -1, 2.25, 0.75, 2.5, 1.0, 1.0)
P_FIG6 = model.make_params(1, -1, 3.4, 0.6, 2.65, 2.0, 2.01)
K_C_SYM = 2.0 * np.sqrt(2.0)
SIGMA_C_SYM = 1.0 / 32.0

RESIDUAL_TOL = 1e-8
MASS_TOL = 1e-8
DRIFT_TOL = 1e-10
ENERGY_TOL = 1e-10  # evolve's default energy_tol
POLISH_TOL = 1e-6


class Ops:
    """Makes the top-level calls of one run and keeps the errors they raise."""

    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def call(self, label: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted; the run goes on
            self.errors.append((label, traceback.format_exc(limit=3)))
            return None


def _mass_error(c1, c2, grid, p) -> float:
    """Largest relative deviation of the two mean concentrations from cbar."""
    w = grid.weights
    return max(
        abs(float(w @ c1) / grid.length - p.cbar1) / p.cbar1,
        abs(float(w @ c2) / grid.length - p.cbar2) / p.cbar2,
    )


def _stationary_error(state, p, d, grid) -> float:
    """Max-norm stationary residual of a state at its own sigma."""
    ps = model.with_sigma(p, state.param_value)
    bc = dynamics.electrode_bc(d.phi_left, d.phi_right)
    return float(np.max(np.abs(continuation.stationary_residual(state, ps, grid, bc))))


# ---------------------------------------------------------------------------
# census: the criterion-11 multiplicity map


def make_census(seed: int) -> dict:
    # The criterion-11 setup has no random input. The seed of the probe
    # noise is a method setting and stays at criterion 11's 0: other values
    # change which branches the probes discover, and so the amount of work,
    # by up to a quarter (5 branches instead of 3 at seed 3).
    del seed
    onset = stability.find_onset(P_FIG10)
    d = model.DomainSpec(3 * np.pi / (2 * onset.k_c))
    grid = model.make_grid(d, 96)
    return {
        "p": P_FIG10,
        "d": d,
        "grid": grid,
        "seeds": [model.homogeneous_profile(grid, P_FIG10)],
        "probe_seed": 0,
        "sigma_at": 0.003,
    }


def run_census(inp: dict, ops: Ops) -> dict:
    p, d, grid, seed = inp["p"], inp["d"], inp["grid"], inp["probe_seed"]
    bs = ops.call(
        "run_combined",
        continuation.run_combined,
        inp["seeds"],
        p,
        d,
        "sigma",
        (0.0005, 0.0055),
        grid.n,
        probe_stride=2,
        max_points=80,
        probe_seed=seed,
    )
    states = None
    if bs is not None:
        states = ops.call(
            "states_at", continuation.states_at, bs.branches, inp["sigma_at"], p, d, grid, "sigma"
        )
    probes = [
        ops.call("stability_probe", continuation.stability_probe, st, p, d, grid, "sigma", seed=seed)
        for st in states or []
    ]
    return {"branchset": bs, "states": states, "probes": probes}


def _mirror_pair(stable) -> bool:
    """A stable state unlike its own reflection whose reflection is also stable."""
    for a in stable:
        ma = continuation.mirror_state(a)
        if a.distance(ma) < 1e-3:
            continue
        if any(b is not a and b.distance(ma) < 1e-5 for b in stable):
            return True
    return False


def check_census(inp: dict, out: dict) -> tuple[list, dict]:
    p, d, grid = inp["p"], inp["d"], inp["grid"]
    bs, states, probes = out["branchset"], out["states"], out["probes"]
    if bs is None:
        return [("run_combined", False, "raised"), ("states_at", False, "not reached")], {}
    points = [pt for br in bs.branches for pt in br.points]
    res = max(_stationary_error(pt.state, p, d, grid) for pt in points)
    mass = max(_mass_error(pt.state.c1, pt.state.c2, grid, p) for pt in points)
    rows = [
        (
            "run_combined",
            res <= RESIDUAL_TOL and mass <= MASS_TOL,
            f"{len(points)} branch points, worst residual {res:.1e}, "
            f"worst mass error {mass:.1e}",
        )
    ]
    counts = {
        "branches": len(bs.branches),
        "branch_points": len(points),
        "probed_points": sum(pt.stable is not None for pt in points),
        "stable_points": sum(bool(pt.stable) for pt in points),
    }
    if states is None:
        return rows + [("states_at", False, "raised")], counts
    # The stable-state count is recorded, not checked: criterion 11 owns
    # that threshold. The mirror pair is part of the states_at check.
    stable = [st for st, pr in zip(states, probes) if pr is not None and pr.stable]
    st_res = max((_stationary_error(st, p, d, grid) for st in states), default=np.inf)
    st_mass = max((_mass_error(st.c1, st.c2, grid, p) for st in states), default=np.inf)
    at_sigma = all(st.param_value == inp["sigma_at"] for st in states)
    pair = _mirror_pair(stable)
    rows.append(
        (
            "states_at",
            st_res <= RESIDUAL_TOL and st_mass <= MASS_TOL and at_sigma and pair,
            f"{len(states)} states, worst residual {st_res:.1e}, "
            f"mirror-asymmetric stable pair {'present' if pair else 'absent'}",
        )
    )
    for pr in probes:
        ok = pr is not None and pr.verdict != "Unstable"
        rows.append(("stability_probe", ok, "raised" if pr is None else pr.verdict))
    counts.update(states=len(states), stable_states=len(stable))
    return rows, counts


# ---------------------------------------------------------------------------
# relax: long dynamics runs on large grids, both boundary kinds


def _bump_profile(grid, centers, amp=0.65, w=0.25):
    """Criterion-12 seed: Gaussian bumps of c1, c2 its mass-matched complement."""
    x = grid.x
    c1 = np.ones(x.size)
    for x0 in centers:
        c1 = c1 + amp * np.exp(-(((x - x0) / w) ** 2))
    c1 *= 10.0 / np.trapezoid(c1, x)
    c2 = np.clip(2.0 - c1, 0.05, None)
    c2 *= 10.0 / np.trapezoid(c2, x)
    return model.Profile(grid, c1, c2)


# (name, sigma, bump centres): the two criterion-12 bump seeds at +-1 V
ELECTRODE_RUNS = (
    ("one_bump", 0.0013, (0.0,)),
    ("five_bumps", 0.001, (-3.0, -1.5, 0.0, 1.5, 3.0)),
)


def make_relax(seed: int) -> dict:
    d = model.DomainSpec(5.0, phi_left=-1.0, phi_right=1.0)
    grid = model.make_grid(d, 400)
    bc = dynamics.electrode_bc(-1.0, 1.0)
    runs = [
        (name, model.with_sigma(P_FIG10, sig), _bump_profile(grid, centers), bc, 400.0)
        for name, sig, centers in ELECTRODE_RUNS
    ]
    # criterion-8 noise runs: one and four wavelength pairs at the same dx
    rng = np.random.default_rng(seed)
    for n, periods in ((64, 1), (256, 4)):
        g = model.make_periodic_grid(periods * 2 * np.pi / K_C_SYM, n)
        c1 = np.ones(n) + 1e-3 * rng.standard_normal(n)
        c1 -= c1.mean() - 1.0
        prof = model.Profile(g, c1, np.ones(n))
        runs.append((f"periodic_{n}", model.with_sigma(P_SYM, 0.02), prof, dynamics.periodic_bc(), 25.0))
    return {"runs": runs}


def run_relax(inp: dict, ops: Ops) -> dict:
    return {
        name: ops.call(f"evolve[{name}]", dynamics.evolve, p, prof, bc, t_end=t_end)
        for name, p, prof, bc, t_end in inp["runs"]
    }


def polish(res, p, bc):
    """Newton-polish an evolve endpoint into a stationary state."""
    return continuation.newton_solve(res.profile, p, res.profile.grid, bc, "sigma", p.sigma)


def check_relax(inp: dict, out: dict) -> tuple[list, dict]:
    reference = json.loads(REFERENCE.read_text())
    rows, counts = [], {}
    for name, p, _, bc, _ in inp["runs"]:
        res = out[name]
        if res is None:
            rows.append((f"evolve[{name}]", False, "raised"))
            continue
        counts[f"{name}.steps"] = res.steps
        counts[f"{name}.rejects"] = res.rejects
        drift = max(float(np.max(np.abs(m - m[0])) / abs(m[0])) for m in (res.mass1, res.mass2))
        rise = float(np.max(np.diff(res.energy), initial=-np.inf))
        ok = drift <= DRIFT_TOL and rise <= ENERGY_TOL and res.verdict != "Unstable"
        note = f"{res.verdict}, mass drift {drift:.1e}, worst energy step {rise:.1e}"
        if name in reference:
            try:
                st = polish(res, p, bc)
            except errors.NumericsError as exc:
                rows.append((f"evolve[{name}]", False, f"{note}, polish failed: {exc}"))
                continue
            gap = max(
                float(np.max(np.abs(st.c1 - np.asarray(reference[name]["c1"])))),
                float(np.max(np.abs(st.c2 - np.asarray(reference[name]["c2"])))),
            )
            ok = ok and gap <= POLISH_TOL
            note += f", polished state {gap:.1e} from the reference"
        rows.append((f"evolve[{name}]", ok, note))
    return rows, counts


# ---------------------------------------------------------------------------
# analysis: onset, weakly nonlinear map, orbit plane; no dynamics


def make_analysis(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "asym": np.linspace(0.0, 1.6, 25),
        "g12": np.linspace(2.2, 3.8, 25),
        "orbit_seeds": [
            (float(rng.uniform(0.05, 2.5)), float(rng.uniform(0.05, 2.5))) for _ in range(50)
        ],
    }


def _orbit(c1_0, c2_0):
    res = trajectories.compute_trajectory(P_FIG3, c1_0, c2_0)
    return res, trajectories.classify_trajectory(res)


def _onset_and_coefficients():
    onset = stability.find_onset(P_SYM)
    return onset, weakly_nonlinear.amplitude_coefficients(onset, P_SYM)


def run_analysis(inp: dict, ops: Ops) -> dict:
    return {
        "onset": ops.call("find_onset", _onset_and_coefficients),
        "map": ops.call(
            "criticality_map", weakly_nonlinear.criticality_map, inp["asym"], inp["g12"],
            g_sum=4.0, cbar=1.0,
        ),
        "orbits": [ops.call("compute_trajectory", _orbit, *s) for s in inp["orbit_seeds"]],
        "periodic": ops.call("build_periodic", trajectories.build_periodic, P_FIG6, 0.15),
    }


def _orbit_laws(res, cls, c1_0, c2_0) -> list[str]:
    """Criterion-5 laws of one orbit; returns the ones broken."""
    broken = []
    if not (np.all(np.diff(res.c2) > 0) and np.all(np.diff(res.c1) < 0)):
        broken.append("not strictly monotone")
    if len(res.neutral_points) != 1:
        broken.append(f"{len(res.neutral_points)} neutral crossings")
    m, M = trajectories.slope_bounds(c1_0, c2_0, P_FIG3)
    sel = res.c2 >= c2_0
    lo = c1_0 * np.exp(m * (res.c2[sel] - c2_0))
    hi = c1_0 * np.exp(M * (res.c2[sel] - c2_0))
    if max(
        float(np.max(lo - res.c1[sel], initial=0.0)),
        float(np.max(res.c1[sel] - hi, initial=0.0)),
    ) > 1e-9:
        broken.append("escaped the exponential envelope")
    if cls == "III" and len(res.d_zero_points) < 2:
        broken.append("type III with fewer than two D = 0 crossings")
    return broken


def _map_disagreements(cmap) -> int:
    """Cells whose tag contradicts the g12_critical threshold of their row."""
    bad = 0
    for i, dlt in enumerate(cmap.asymmetry):
        crit = energy.g12_critical(model.make_params(1, -1, 2.0 + dlt, 2.0 - dlt, 3.5, 1.0, 1.0))
        for j, g12 in enumerate(cmap.g12):
            if g12 <= crit:
                bad += not (cmap.tags[i, j] == "no_onset" and np.isnan(cmap.sigma_c[i, j]))
            else:
                bad += cmap.tags[i, j] not in ("supercritical", "subcritical")
    return bad


def check_analysis(inp: dict, out: dict) -> tuple[list, dict]:
    rows, counts = [], {}
    if out["onset"] is None:
        rows.append(("find_onset", False, "raised"))
    else:
        onset, coeffs = out["onset"]
        ok = (
            abs(onset.sigma_c - SIGMA_C_SYM) < 1e-4
            and abs(onset.k_c - K_C_SYM) < 1e-3
            and abs(coeffs.beta0_sq - 34.286) <= 1e-3 * 34.286
        )
        note = f"sigma_c {onset.sigma_c:.8f}, k_c {onset.k_c:.6f}, beta0^2 {coeffs.beta0_sq:.4f}"
        rows.append(("find_onset", ok, note))
    cmap = out["map"]
    if cmap is None:
        rows.append(("criticality_map", False, "raised"))
    else:
        bad = _map_disagreements(cmap)
        rows.append(("criticality_map", bad == 0, f"{bad} cells disagree with g12_critical"))
        counts["onset_cells"] = int(np.sum(cmap.tags != "no_onset"))
        counts["subcritical_cells"] = int(np.sum(cmap.tags == "subcritical"))
    for cls in ("I", "II", "III"):
        counts[f"orbits.type_{cls}"] = 0
    for orbit, (c1_0, c2_0) in zip(out["orbits"], inp["orbit_seeds"]):
        if orbit is None:
            rows.append(("compute_trajectory", False, "raised"))
            continue
        res, cls = orbit
        counts[f"orbits.type_{cls}"] += 1
        broken = _orbit_laws(res, cls, c1_0, c2_0)
        rows.append(("compute_trajectory", not broken, "; ".join(broken) or f"type {cls}"))
    sol = out["periodic"]
    if sol is None:
        rows.append(("build_periodic", False, "raised"))
    else:
        x, c1, c2, E, phi = sol.sample(n_per_period=1024, periods=3)
        r = trajectories.stationary_residual_fd(x, c1, c2, E, phi, P_FIG6, periodic=True)
        worst = max(r["c1"], r["c2"], r["field"], r["potential_gradient"])
        rows.append(("build_periodic", worst < 1e-6, f"residual {worst:.1e}"))
    return rows, counts


WORKLOADS = {
    "census": (make_census, run_census, check_census),
    "relax": (make_relax, run_relax, check_relax),
    "analysis": (make_analysis, run_analysis, check_analysis),
}
