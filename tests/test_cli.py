"""Batch front-end: config parsing, products, manifests, exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from stericpnp.cli import _SCHEMA, _write_json, main
from stericpnp.continuation import load_branchset, stationary_residual
from stericpnp.dynamics import electrode_bc
from stericpnp.model import make_params

SYM_MODEL = """\
[model]
z1 = 1
z2 = -1
g11 = 2.0
g22 = 2.0
g12 = 3.5
cbar1 = 1.0
cbar2 = 1.0
"""


def _write(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_onset_products_and_manifest(tmp_path):
    cfg = _write(tmp_path, SYM_MODEL)
    out = tmp_path / "out"
    assert main(["onset", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "onset.json").read_text())
    assert data["sigma_c"] == pytest.approx(0.03125, abs=1e-4)
    assert data["k_c"] == pytest.approx(2.8284, abs=1e-3)
    assert data["g12_crit"] == pytest.approx(3.0, rel=1e-9)
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "onset"
    assert "onset.json" in man["outputs"]
    assert len(man["config_sha256"]) == 64
    assert man["overrides"] == []


def test_unknown_key_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, SYM_MODEL + "\n[onset]\nnewton_stepz = 3\n")
    assert main(["onset", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "newton_stepz" in err


def test_unknown_section_is_a_config_error(tmp_path):
    cfg = _write(tmp_path, SYM_MODEL + "\n[onzet]\nfoo = 1\n")
    assert main(["onset", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["onset", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, extra, kind",
    [
        ("onset", "sigma = -1\n", "parameter"),
        ("evolve", "\n[domain]\nl = 1.0\n[grid]\nn = 4\n[evolve]\nt_end = 1.0\n", "parameter"),
        # a key left out takes the library default; NaN is not a stand-in
        ("onset", "sigma = nan\n", "parameter"),
        ("continue", "\n[domain]\nl = 2.0\n[continue]\nlo = 0.04\nhi = 0.06\nstart = nan\n",
         "parameter"),
        ("evolve", "\n[domain]\nl = 1.0\n[evolve]\nt_end = 1.0\ndt_max = nan\n", "parameter"),
        # a NaN step would halve forever without reaching trace_branch's floor
        ("continue", "\n[domain]\nl = 2.0\n[continue]\nlo = 0.04\nhi = 0.06\nds0 = nan\n",
         "parameter"),
        # numpy's default_rng rejects a negative seed; the schema does first
        ("evolve", "\n[domain]\nl = 1.0\n[evolve]\nt_end = 1.0\nperturb_amp = 0.01\n"
         "perturb_seed = -1\n", "config"),
        ("continue", "\n[domain]\nl = 2.0\n[continue]\nlo = 0.04\nhi = 0.06\nprobe_seed = -1\n",
         "config"),
    ],
    ids=["negative_sigma", "grid_under_8_nodes", "nan_sigma", "nan_start", "nan_dt_max",
         "nan_ds0", "negative_perturb_seed", "negative_probe_seed"],
)
def test_bad_parameter_value_is_a_config_error(tmp_path, capsys, command, extra, kind):
    cfg = _write(tmp_path, SYM_MODEL + extra)
    assert main([command, cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{kind} error" in capsys.readouterr().err


def test_no_onset_maps_to_regime_exit(tmp_path):
    cfg = _write(tmp_path, SYM_MODEL.replace("g12 = 3.5", "g12 = 2.8"))
    assert main(["onset", cfg, "--out", str(tmp_path / "o")]) == 4


def test_onset_one_ulp_above_threshold_maps_to_regime_exit(tmp_path, capsys):
    # g12 one ulp above g12_crit = sqrt(8): sigma_c lies below rounding
    body = SYM_MODEL.replace("g11 = 2.0", "g11 = 3.0").replace(
        "g22 = 2.0", "g22 = 1.0").replace("g12 = 3.5", "g12 = 2.8284271247461907")
    assert main(["onset", _write(tmp_path, body), "--out", str(tmp_path / "o")]) == 4
    assert "D(cbar)" in capsys.readouterr().err


def test_set_override_recorded_and_applied(tmp_path):
    cfg = _write(tmp_path, SYM_MODEL)
    out = tmp_path / "o"
    code = main(["onset", cfg, "--set", "model.g12=3.2", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "onset.json").read_text())
    # sigma_c = (g12 - 3)^2 / 8 at the symmetric point
    assert data["sigma_c"] == pytest.approx(0.005, rel=1e-6)
    man = json.loads((out / "manifest.json").read_text())
    assert man["overrides"] == ["model.g12=3.2"]


@pytest.mark.parametrize(
    "override, message",
    [
        ("onset .x=1", "unknown key(s) in [onset]: x"),
        ("DEFAULT.x=1", "unknown config section [DEFAULT]"),
    ],
)
def test_override_section_is_stripped_and_checked(tmp_path, capsys, override, message):
    """A --set target's section is read stripped, and one that no command
    takes is a config error before configparser sees it: exit 2, no traceback."""
    cfg = _write(tmp_path, SYM_MODEL)
    assert main(["onset", cfg, "--set", override, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_trajectory_products(tmp_path):
    body = SYM_MODEL + "\n[trajectory]\nc1_0 = 2.0\nc2_0 = 2.01\n"
    cfg = _write(tmp_path, body)
    out = tmp_path / "o"
    assert main(["trajectory", cfg, "--out", str(out)]) == 0
    info = json.loads((out / "trajectory.json").read_text())
    assert info["classification"] == "III"
    assert info["d_at_neutral"] == pytest.approx(-6.0062322148620435, rel=1e-8)
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["c2", "c1", "det_hessian"]


@pytest.mark.parametrize("samples", [0, 1])
def test_trajectory_needs_two_samples_per_leg(tmp_path, capsys, samples):
    # fewer samples than a leg's two ends left an empty or one-sided orbit
    # that was classified "I"
    body = SYM_MODEL + f"\n[trajectory]\nc1_0 = 2.0\nc2_0 = 2.01\nsamples_per_leg = {samples}\n"
    assert main(["trajectory", _write(tmp_path, body), "--out", str(tmp_path / "o")]) == 2
    assert "parameter error" in capsys.readouterr().err


def test_trajectory_that_misses_the_neutral_line_is_a_numerical_failure(tmp_path, capsys):
    # type III on the default span; on this narrow one the orbit meets
    # neither the neutral line nor D = 0, and was classified "I"
    body = (
        SYM_MODEL.replace("g11 = 2.0", "g11 = 2.25").replace("g22 = 2.0", "g22 = 0.75")
        .replace("g12 = 3.5", "g12 = 2.5")
        + "\n[trajectory]\nc1_0 = 2.0\nc2_0 = 0.3\nc2_max = 0.5\n"
    )
    assert main(["trajectory", _write(tmp_path, body), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "neutral line" in err


def test_json_products_are_strict_and_write_non_finite_as_null(tmp_path):
    payload = {"d_at_neutral": float("nan"), "points": np.array([[1.0, -np.inf]])}
    name = _write_json(tmp_path, "product.json", payload)

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    info = json.loads((tmp_path / name).read_text(), parse_constant=reject)
    assert info["d_at_neutral"] is None
    assert info["points"] == [[1.0, None]]


def test_periodic_products(tmp_path):
    cfg = _write(tmp_path, SYM_MODEL + "\n[periodic]\namplitude = 0.3\n")
    out = tmp_path / "o"
    assert main(["periodic", cfg, "--out", str(out)]) == 0
    info = json.loads((out / "periodic.json").read_text())
    assert info["period"] == pytest.approx(3.0884630588032227, rel=1e-11)


def test_csv_reruns_are_bit_identical(tmp_path):
    body = SYM_MODEL + "sigma = 0.02\n[dispersion]\nk_min = 0.2\nk_max = 6.0\ncount = 40\n"
    cfg = _write(tmp_path, body)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["dispersion", cfg, "--out", str(out1)]) == 0
    assert main(["dispersion", cfg, "--out", str(out2)]) == 0
    assert (out1 / "dispersion.csv").read_bytes() == (out2 / "dispersion.csv").read_bytes()


def test_evolve_seed_lands_in_manifest(tmp_path):
    body = SYM_MODEL + (
        "\n[domain]\nl = 1.1107207345395915\n"
        "[grid]\nn = 48\n"
        "[evolve]\nt_end = 2.0\nbc = periodic\nperturb_amp = 1e-3\nperturb_seed = 9\n"
    )
    cfg = _write(tmp_path, body.replace("g12 = 3.5", "g12 = 3.5\nsigma = 0.06"))
    out = tmp_path / "o"
    assert main(["evolve", cfg, "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["perturb_seed"] == 9
    info = json.loads((out / "evolve.json").read_text())
    assert info["verdict"] in {"Steady", "Running"}
    # LU factors are made at the first attempt and reused while dt holds
    assert 1 <= info["factorizations"] < info["steps"] + info["rejects"]
    rows = (out / "timeseries.csv").read_text().splitlines()
    assert rows[0].split(",") == ["t", "energy", "mass1", "mass2"]
    assert len(rows) >= 3


def test_electrode_evolve_noise_keeps_the_bulk_masses(tmp_path):
    # the noise is zero-mean in the trapezoid quadrature that evolve
    # conserves, so the initial masses are exactly 2 L cbar_i
    body = SYM_MODEL + (
        "sigma = 0.06\n[domain]\nl = 2.0\n[grid]\nn = 48\n"
        "[evolve]\nt_end = 0.5\nperturb_amp = 1e-3\nperturb_seed = 3\n"
    )
    out = tmp_path / "o"
    assert main(["evolve", _write(tmp_path, body), "--out", str(out)]) == 0
    first = (out / "timeseries.csv").read_text().splitlines()[1].split(",")
    mass1, mass2 = float(first[2]), float(first[3])
    assert mass1 == pytest.approx(4.0, rel=1e-12)
    assert mass2 == pytest.approx(4.0, rel=1e-12)


def test_energy_command_reports_segregation(tmp_path):
    body = SYM_MODEL + "\n[energy]\nc1 = 0.65\nc2 = 0.42\nn_freq = 1\n"
    cfg = _write(tmp_path, body)
    out = tmp_path / "o"
    assert main(["energy", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "energy.json").read_text())
    assert data["det_hessian"] == pytest.approx(3.2518315018315, rel=1e-10)
    assert data["g12_crit"] == pytest.approx(3.0, rel=1e-9)
    assert data["convex"] is False
    assert data["eig_min"] == pytest.approx(-1.5, abs=1e-12)
    seg_header = (out / "segregated.csv").read_text().splitlines()[0]
    assert "entropy" in seg_header


def _csv(path):
    rows = path.read_text().splitlines()
    return rows[0].split(","), [row.split(",") for row in rows[1:]]


CONTINUE = (
    "\n[domain]\nl = 2.0\n[grid]\nn = 24\n"
    "[continue]\nlo = 0.04\nhi = 0.06\nmax_points = 8\nprobe_stride = 4\nprobe_t_end = 10\n"
)


def test_json_booleans_are_true_and_false(tmp_path):
    # bool subclasses int, so an int check ahead of the bool one wrote 0/1
    cfg = _write(tmp_path, SYM_MODEL + "\n[ivp]\nc1_0 = 1.3\nc2_0 = 1.3\nx_max = 1.0\n")
    runs = {}
    for name, command, overrides in (
        ("concave", "energy", []),
        ("convex", "energy", ["model.g12=1.0"]),
        ("symmetric", "ivp", []),
        ("field", "ivp", ["ivp.e0=0.2"]),
    ):
        out = tmp_path / name
        args = [command, cfg, "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 0
        runs[name] = json.loads((out / f"{command}.json").read_text())
    assert runs["concave"]["convex"] is False
    assert runs["convex"]["convex"] is True
    assert runs["symmetric"]["symmetric"] is True
    assert runs["field"]["symmetric"] is False
    assert runs["symmetric"]["blow_up"] is False
    assert runs["field"]["blow_up"] is False


def test_continue_products(tmp_path):
    out = tmp_path / "o"
    assert main(["continue", _write(tmp_path, SYM_MODEL + CONTINUE), "--out", str(out)]) == 0
    summary = json.loads((out / "continue.json").read_text())
    assert summary["param"] == "sigma" and summary["range"] == [0.04, 0.06]
    # the uniform state, traced down from sigma = 0.06 in eight points
    (branch,) = summary["branches"]
    assert branch["points"] == 8
    assert branch["param_max"] == 0.06
    assert branch["param_min"] == pytest.approx(0.0546, rel=1e-12)
    # a JSON boolean, as in the branch index the same run writes
    index = json.loads((out / "branches" / "branches.json").read_text())
    assert branch["truncated"] is False
    assert index["branches"][0]["truncated"] is False
    header, rows = _csv(out / "branches" / "branch00_point0000.csv")
    assert header == ["x", "c1", "c2", "phi"]
    assert len(rows) == 24
    # LF line ends, like every other CSV product
    assert b"\r" not in (out / "branches" / "branch00_point0000.csv").read_bytes()
    assert "tol" not in index
    man = json.loads((out / "manifest.json").read_text())
    assert man["probe_seed"] == 0
    assert man["outputs"] == ["branches/branches.json", "continue.json"]


def test_continue_in_voltage_traces_stationary_states_between_biased_walls(tmp_path):
    # P_FIG10 on the census domain's half-length; the map is known to miss
    # the stable sheet above the fold, so no branch count or flag is pinned
    model = (SYM_MODEL.replace("g11 = 2.0", "g11 = 3.6").replace("g22 = 2.0", "g22 = 0.4")
             .replace("g12 = 3.5", "g12 = 2.65") + "sigma = 0.003\n")
    body = model + (
        "\n[domain]\nl = 0.7563\n[grid]\nn = 48\n[continue]\nparam = voltage\nlo = 0\n"
        "hi = 0.2\nmax_points = 20\nprobe_stride = 5\nprobe_t_end = 20\n"
    )
    out = tmp_path / "o"
    assert main(["continue", _write(tmp_path, body), "--out", str(out)]) == 0
    bs, grid = load_branchset(out / "branches")
    assert bs.param_name == "voltage"
    points = [pt for branch in bs.branches for pt in branch.points]
    assert points
    p = make_params(1, -1, 3.6, 0.4, 2.65, 1.0, 1.0, sigma=0.003)
    for pt in points:
        V = pt.param
        bc = electrode_bc(-V, V)
        assert np.max(np.abs(stationary_residual(pt.state, p, grid, bc))) < 1e-8


@pytest.mark.parametrize(
    "command, key",
    [
        # the onset is a closed-form root, with no Newton polish to set
        ("onset", "onset.newton_steps"),
        # the periodic build integrates no ODE, so its shooting options are gone
        ("periodic", "periodic.x_max"),
        ("periodic", "periodic.match_tol"),
        # every identity test uses StationaryState.same_as
        ("continue", "continue.tol_scale"),
        # [model] sigma is the one sigma key of every command
        ("dispersion", "dispersion.sigma"),
        # the background charge follows from bulk electroneutrality
        ("onset", "model.rho0"),
    ],
)
def test_retired_keys_are_config_errors(tmp_path, capsys, command, key):
    cfg = _write(tmp_path, SYM_MODEL + "\n[periodic]\namplitude = 0.3\n" + CONTINUE)
    assert main([command, cfg, "--set", f"{key}=0", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert key.split(".")[1] in err


@pytest.mark.parametrize(
    "command, override",
    [
        ("dispersion", "dispersion.count=0"),
        ("periodic", "periodic.samples=0"),
        ("periodic", "periodic.periods=0"),
        ("ivp", "ivp.samples=0"),
        ("continue", "continue.probe_stride=0"),
        ("continue", "continue.max_points=0"),
        ("continue", "continue.max_points=-3"),
        ("continue", "continue.max_branches=0"),
        ("wnl", "wnl.asym_steps=-1"),
        ("wnl", "wnl.g12_steps=0"),
    ],
)
def test_count_below_one_is_a_config_error(tmp_path, capsys, command, override):
    body = (SYM_MODEL + "\n[periodic]\namplitude = 0.3\n[ivp]\nc1_0 = 1.3\nc2_0 = 1.3\n"
            "[wnl]\nmap = true\n" + CONTINUE)
    cfg = _write(tmp_path, body)
    assert main([command, cfg, "--set", override, "--out", str(tmp_path / "o")]) == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_readme_lists_every_config_key():
    # each section's rows of the README key table name exactly its _SCHEMA keys
    listed, section = {}, None
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("|") or len(cells) != 3:
            continue
        head = re.fullmatch(r"`\[(\w+)\]`", cells[0])
        if head:
            section = head.group(1)
        elif cells[0]:
            continue  # the header and its rule
        listed.setdefault(section, set()).update(re.findall(r"`(\w+)`", cells[1]))
    assert listed == {name: set(keys) for name, keys in _SCHEMA.items()}


def test_wnl_map_products(tmp_path):
    cfg = _write(tmp_path, SYM_MODEL + "\n[wnl]\nmap = true\nasym_steps = 3\ng12_steps = 4\n")
    out = tmp_path / "o"
    assert main(["wnl", cfg, "--out", str(out)]) == 0
    header, rows = _csv(out / "criticality_map.csv")
    assert header == ["asymmetry", "g12", "tag", "sigma_c", "k_c", "beta0_sq"]
    # rows run over g12 (2 ... 4) within each asymmetry (0, 0.9, 1.8)
    assert [(float(r[0]), float(r[1])) for r in rows[:2]] == [(0.0, 2.0), (0.0, 2.0 + 2.0 / 3.0)]
    cells = {(float(r[0]), float(r[1])): r for r in rows}
    assert len(cells) == 12
    # symmetric cell g11 = g22 = 2, g12 = 4: sigma_c = (g12 - 3)^2 / 8, k_c = 2
    tag, sigma_c, k_c = cells[(0.0, 4.0)][2:5]
    assert tag == "supercritical"
    assert float(sigma_c) == pytest.approx(0.125, rel=1e-12)
    assert float(k_c) == pytest.approx(2.0, rel=1e-12)
    assert cells[(0.0, 2.0)][2:] == ["no_onset", "nan", "nan", "nan"]
    assert cells[(1.8, 2.0 + 2.0 / 3.0)][2] == "subcritical"


def test_ivp_products(tmp_path):
    body = SYM_MODEL + "\n[ivp]\nc1_0 = 1.3\nc2_0 = 1.25\ne0 = 0.2\nstop_at_neutral = true\nsamples = 11\n"
    out = tmp_path / "o"
    assert main(["ivp", _write(tmp_path, body), "--out", str(out)]) == 0
    info = json.loads((out / "ivp.json").read_text())
    assert info["status"] == "neutral"
    assert info["x_end"] == pytest.approx(1.7867560947647685, rel=1e-9)
    header, rows = _csv(out / "ivp.csv")
    assert header == ["x", "c1", "c2", "E", "phi"]
    assert len(rows) == 11
    assert [float(v) for v in rows[0][:4]] == [0.0, 1.3, 1.25, 0.2]


@pytest.mark.parametrize(
    "model, launch, status, x_end",
    [
        (SYM_MODEL, "c1_0 = 1.3\nc2_0 = 1.3\ne0 = 1.0\n", "degenerate", 0.762),
        (
            SYM_MODEL.replace("g11 = 2.0", "g11 = 2.25").replace("g22 = 2.0", "g22 = 0.75")
            .replace("g12 = 3.5", "g12 = 2.5"),
            "c1_0 = 2.0\nc2_0 = 0.3\ne0 = -0.3\n",
            "positivity",
            2.900,
        ),
    ],
    ids=["blow_up", "positivity"],
)
def test_ivp_stops_at_its_guards(tmp_path, model, launch, status, x_end):
    # these exited 3 (RK45's step collapsed short of |D| = 1e-8) and 2 (an
    # RK stage at c <= 0 was reported as a parameter error)
    body = model + "\n[ivp]\n" + launch + "x_max = 20\nsamples = 11\n"
    out = tmp_path / "o"
    assert main(["ivp", _write(tmp_path, body), "--out", str(out)]) == 0
    info = json.loads((out / "ivp.json").read_text())
    assert info["status"] == status
    assert info["blow_up"] is (status == "degenerate")
    assert info["x_end"] == pytest.approx(x_end, abs=1e-3)


@pytest.mark.parametrize(
    "command, override",
    [
        # RK45 never reaches a non-finite end of its span, so these ran on
        ("ivp", "ivp.x_max=nan"),
        ("ivp", "ivp.x_max=inf"),
        # SciPy's ValueError on a non-finite y0 was a traceback and exit 1
        ("ivp", "ivp.e0=nan"),
        ("ivp", "ivp.c1_0=inf"),
        # a launch on the positivity floor wrote a run of length 0, and one
        # below it ran until D^2 overflowed: a traceback and exit 1
        ("ivp", "ivp.c1_0=1e-12"),
        ("ivp", "ivp.c1_0=1e-160"),
        ("ivp", "ivp.c2_0=1e-200"),
        # NaN passed the sign checks, and energy.json held nulls
        ("energy", "energy.c1=nan"),
        # so did inf, after two RuntimeWarnings
        ("energy", "energy.c1=inf"),
        ("energy", "energy.c2=inf"),
    ],
)
def test_non_finite_launch_data_is_a_parameter_error(tmp_path, capsys, command, override):
    cfg = _write(tmp_path, SYM_MODEL + "\n[ivp]\nc1_0 = 1.3\nc2_0 = 1.3\n")
    assert main([command, cfg, "--set", override, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "parameter error" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_log_spaced_dispersion_products(tmp_path):
    body = SYM_MODEL + (
        "sigma = 0.02\n[dispersion]\nk_min = 0.1\nk_max = 10.0\ncount = 5\nlog_spaced = true\n"
    )
    out = tmp_path / "o"
    assert main(["dispersion", _write(tmp_path, body), "--out", str(out)]) == 0
    header, rows = _csv(out / "dispersion.csv")
    assert header == ["k", "rate"]
    k = [float(r[0]) for r in rows]
    assert k == pytest.approx([0.1, 10**-0.5, 1.0, 10**0.5, 10.0], rel=1e-12)
    info = json.loads((out / "dispersion.json").read_text())
    assert info["k_at_max"] == pytest.approx(10**0.5, rel=1e-12)
    assert info["rate_max"] == pytest.approx(1.0, rel=1e-12)


def test_evolve_cosine_mode_products(tmp_path):
    body = SYM_MODEL + (
        "sigma = 0.06\n[domain]\nl = 2.0\n[grid]\nn = 32\n"
        "[evolve]\nt_end = 1.0\nperturb_amp = 1e-2\nperturb_mode = 1\n"
    )
    out = tmp_path / "o"
    assert main(["evolve", _write(tmp_path, body), "--out", str(out)]) == 0
    header, rows = _csv(out / "timeseries.csv")
    assert header == ["t", "energy", "mass1", "mass2"]
    # mode 1 is half a cosine between the walls, so it moves no mass
    assert float(rows[0][2]) == pytest.approx(4.0, rel=1e-14)
    assert float(rows[0][3]) == pytest.approx(4.0, rel=1e-14)
    info = json.loads((out / "evolve.json").read_text())
    assert info["energy_first"] == pytest.approx(14.000029890373682, rel=1e-12)
    header, rows = _csv(out / "final_profile.csv")
    assert header == ["x", "c1", "c2", "phi"]
    assert len(rows) == 32
