"""Batch command-line front end.

One executable, one subcommand per task: algebraic energy diagnostics,
phase-plane trajectories, periodic stationary construction, field IVP
integration, dispersion sampling, onset location, weakly nonlinear
coefficients, dissipative time integration, and combined
continuation/relaxation branch mapping.

Every run reads a flat INI config (sections of key=value pairs), optionally
patched by repeated ``--set section.key=value`` flags, and writes its
products into a single output directory together with ``manifest.json``
(config hash, package version, argv, seeds). All randomness is seeded, so a
run is reproducible from its manifest: same config and seed give bit
identical CSV output. Numbers in CSV files carry 17 significant digits;
JSON files are written with sorted keys.

Exit codes: 0 success, 2 configuration error (including a parameter value
the model rejects, such as sigma < 0), 3 numerical failure,
4 model-regime error (for example requesting the onset of a parameter set
that has none).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._fd import trapz
from .continuation import run_combined, save_branchset
from .dynamics import discrete_energy, electrode_bc, evolve, periodic_bc
from .energy import (
    concave_window_bounds,
    convexity_class,
    free_energy_density,
    g12_critical,
    hessian_det,
    hessian_det_via_identity,
    segregated_comparison,
)
from .errors import NumericsError, ParameterError, RegimeError
from .model import (
    DomainSpec,
    ModelParams,
    Profile,
    homogeneous_profile,
    make_grid,
    make_params,
    make_periodic_grid,
)
from .stability import dispersion, find_onset, verify_onset
from .trajectories import (
    build_periodic,
    classify_trajectory,
    compute_trajectory,
    integrate_field_ivp,
    stationary_residual_fd,
)
from .weakly_nonlinear import amplitude_coefficients, criticality_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_REGIME = 4


class ConfigError(Exception):
    """Malformed config file, unknown key, or missing required entry."""


# Allowed keys per section. Unknown sections and unknown keys are rejected
# outright so a typo cannot silently fall back to a default.
_SCHEMA = {
    "model": {"z1", "z2", "g11", "g22", "g12", "cbar1", "cbar2", "rho0", "sigma"},
    "domain": {"l", "phi_left", "phi_right"},
    "grid": {"n"},
    "output": {"dir"},
    "energy": {"c1", "c2", "n_freq", "cbar_segregated"},
    "trajectory": {"c1_0", "c2_0", "c2_min", "c2_max", "samples_per_leg"},
    "periodic": {"amplitude", "samples", "periods"},
    "ivp": {"c1_0", "c2_0", "e0", "x_max", "stop_at_neutral", "samples"},
    "dispersion": {"k_min", "k_max", "count", "log_spaced", "sigma"},
    "onset": set(),
    "wnl": {"map", "asym_min", "asym_max", "asym_steps",
            "g12_min", "g12_max", "g12_steps", "g_sum", "cbar"},
    "evolve": {"t_end", "dt0", "dt_max", "steady_tol", "bc",
               "perturb_amp", "perturb_mode", "perturb_seed"},
    "continue": {"param", "lo", "hi", "start", "ds0", "max_points",
                 "max_branches", "probe_stride", "probe_t_end",
                 "probe_seed", "tol_scale"},
}


def _load_config(path: str, overrides: list[str]) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section.strip(), key.strip().lower(), value.strip())
    for section in cfg.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(cfg[section]) - _SCHEMA[section]
        if extra:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(extra))}"
            )
    return cfg


def _fval(cfg, section: str, key: str, default: float | None = None) -> float:
    if not cfg.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing required key {key} in [{section}]")
        return default
    try:
        return cfg.getfloat(section, key)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} is not a number") from exc


def _ival(cfg, section: str, key: str, default: int | None = None) -> int:
    if not cfg.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing required key {key} in [{section}]")
        return default
    try:
        return cfg.getint(section, key)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} is not an integer") from exc


def _bval(cfg, section: str, key: str, default: bool) -> bool:
    if not cfg.has_option(section, key):
        return default
    try:
        return cfg.getboolean(section, key)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} is not a boolean") from exc


def _model_from(cfg) -> ModelParams:
    if not cfg.has_section("model"):
        raise ConfigError("config needs a [model] section")
    rho0 = _fval(cfg, "model", "rho0", np.nan)
    return make_params(
        z1=_fval(cfg, "model", "z1"),
        z2=_fval(cfg, "model", "z2"),
        g11=_fval(cfg, "model", "g11"),
        g22=_fval(cfg, "model", "g22"),
        g12=_fval(cfg, "model", "g12"),
        cbar1=_fval(cfg, "model", "cbar1"),
        cbar2=_fval(cfg, "model", "cbar2"),
        rho0=None if np.isnan(rho0) else rho0,
        sigma=_fval(cfg, "model", "sigma", 0.0),
    )


def _domain_from(cfg) -> DomainSpec:
    if not cfg.has_section("domain"):
        raise ConfigError("this command needs a [domain] section")
    return DomainSpec(
        L=_fval(cfg, "domain", "l"),
        phi_left=_fval(cfg, "domain", "phi_left", 0.0),
        phi_right=_fval(cfg, "domain", "phi_right", 0.0),
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _write_json(outdir: Path, name: str, payload: dict) -> str:
    with open(outdir / name, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return name


def _write_csv(outdir: Path, name: str, header: list[str], columns: list) -> str:
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    with open(outdir / name, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_cell(v) for v in row) + "\n")
    return name


def _cell(v) -> str:
    if isinstance(v, (str, np.str_)):
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_energy(cfg, p, outdir: Path) -> list[str]:
    c1 = _fval(cfg, "energy", "c1", p.cbar1)
    c2 = _fval(cfg, "energy", "c2", p.cbar2)
    conv = convexity_class(p)
    try:
        window = list(concave_window_bounds(p))
    except RegimeError:
        window = None
    payload = {
        "point": [c1, c2],
        "h": free_energy_density(c1, c2, p),
        "det_hessian": hessian_det(c1, c2, p),
        "det_identity_gap": abs(
            hessian_det(c1, c2, p) - hessian_det_via_identity(c1, c2, p)
        ),
        "convex": conv.is_convex,
        "eig_min": conv.eig_min,
        "eig_max": conv.eig_max,
        "g12_crit": g12_critical(p),
        "concave_window": window,
    }
    outputs = [_write_json(outdir, "energy.json", payload)]
    raw = cfg.get("energy", "n_freq", fallback="1,2,4")
    try:
        n_freqs = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("[energy] n_freq must be a comma list of integers") from exc
    cbar_seg = _fval(cfg, "energy", "cbar_segregated", p.cbar1)
    rows = {k: [] for k in (
        "n_freq", "entropy_seg", "steric_seg", "electrostatic_seg",
        "entropy_hom", "steric_hom", "electrostatic_hom", "total_seg", "total_hom",
    )}
    for nf in n_freqs:
        cmp_ = segregated_comparison(nf, cbar_seg, p.g12)
        rows["n_freq"].append(nf)
        for key in ("entropy_seg", "steric_seg", "electrostatic_seg",
                    "entropy_hom", "steric_hom", "electrostatic_hom"):
            rows[key].append(getattr(cmp_, key))
        rows["total_seg"].append(cmp_.total_seg)
        rows["total_hom"].append(cmp_.total_hom)
    header = list(rows)
    outputs.append(_write_csv(outdir, "segregated.csv", header,
                              [rows[k] for k in header]))
    return outputs


def _cmd_trajectory(cfg, p, outdir: Path) -> list[str]:
    c1_0 = _fval(cfg, "trajectory", "c1_0")
    c2_0 = _fval(cfg, "trajectory", "c2_0")
    span = (_fval(cfg, "trajectory", "c2_min", 1e-6),
            _fval(cfg, "trajectory", "c2_max", 1e6))
    res = compute_trajectory(
        p, c1_0, c2_0, c2_span=span,
        samples_per_leg=_ival(cfg, "trajectory", "samples_per_leg", 800),
    )
    outputs = [_write_csv(outdir, "trajectory.csv", ["c2", "c1", "det_hessian"],
                          [res.c2, res.c1, res.d_values])]
    payload = {
        "classification": classify_trajectory(res),
        "start": list(res.start),
        "neutral_points": res.neutral_points,
        "d_zero_points": res.d_zero_points,
        "d_at_neutral": res.d_at_neutral,
    }
    outputs.append(_write_json(outdir, "trajectory.json", payload))
    return outputs


def _cmd_periodic(cfg, p, outdir: Path) -> list[str]:
    sol = build_periodic(p, amplitude=_fval(cfg, "periodic", "amplitude"))
    x, c1, c2, E, phi = sol.sample(
        n_per_period=_ival(cfg, "periodic", "samples", 1024),
        periods=_ival(cfg, "periodic", "periods", 1),
    )
    outputs = [_write_csv(outdir, "periodic.csv", ["x", "c1", "c2", "E", "phi"],
                          [x, c1, c2, E, phi])]
    payload = {
        "period": sol.period,
        "amp_a": sol.amp_a,
        "amp_b": sol.amp_b,
        "e_peak": sol.e_peak,
        "residuals": stationary_residual_fd(x, c1, c2, E, phi, p, periodic=True),
    }
    outputs.append(_write_json(outdir, "periodic.json", payload))
    return outputs


def _cmd_ivp(cfg, p, outdir: Path) -> list[str]:
    sol = integrate_field_ivp(
        p,
        c0=(_fval(cfg, "ivp", "c1_0"), _fval(cfg, "ivp", "c2_0")),
        E0=_fval(cfg, "ivp", "e0", 0.0),
        x_span=(0.0, _fval(cfg, "ivp", "x_max", 50.0)),
        stop_at_neutral=_bval(cfg, "ivp", "stop_at_neutral", False),
    )
    x = np.linspace(sol.x_start, sol.x_end, _ival(cfg, "ivp", "samples", 2001))
    c1, c2, E, phi = sol.at(x)
    outputs = [_write_csv(outdir, "ivp.csv", ["x", "c1", "c2", "E", "phi"],
                          [x, c1, c2, E, phi])]
    payload = {
        "x_start": sol.x_start,
        "x_end": sol.x_end,
        "status": sol.status,
        "blow_up": sol.blow_up,
        "symmetric": sol.symmetric,
    }
    outputs.append(_write_json(outdir, "ivp.json", payload))
    return outputs


def _cmd_dispersion(cfg, p, outdir: Path) -> list[str]:
    k_min = _fval(cfg, "dispersion", "k_min", 0.1)
    k_max = _fval(cfg, "dispersion", "k_max", 20.0)
    count = _ival(cfg, "dispersion", "count", 256)
    if _bval(cfg, "dispersion", "log_spaced", False):
        if k_min <= 0:
            raise ConfigError("[dispersion] log_spaced needs k_min > 0")
        k = np.geomspace(k_min, k_max, count)
    else:
        k = np.linspace(k_min, k_max, count)
    sigma = _fval(cfg, "dispersion", "sigma", p.sigma)
    res = dispersion(k, p, sigma=sigma)
    outputs = [_write_csv(outdir, "dispersion.csv", ["k", "rate"],
                          [res.k, res.rate])]
    outputs.append(_write_json(outdir, "dispersion.json", {
        "sigma": res.sigma,
        "rate_max": float(np.max(res.rate)),
        "k_at_max": float(res.k[int(np.argmax(res.rate))]),
    }))
    return outputs


def _cmd_onset(cfg, p, outdir: Path) -> list[str]:
    onset = find_onset(p)
    payload = {
        "sigma_c": onset.sigma_c,
        "k_c": onset.k_c,
        "g12_crit": onset.g12_crit,
        "v0": onset.v0,
        "v_kc": onset.v_kc,
        "residual_rate": onset.residual_rate,
        "residual_slope": onset.residual_slope,
        "polynomial_residuals": verify_onset(onset, p),
    }
    return [_write_json(outdir, "onset.json", payload)]


def _cmd_wnl(cfg, p, outdir: Path) -> list[str]:
    onset = find_onset(p)
    coeffs = amplitude_coefficients(onset, p)
    payload = {
        "sigma_c": coeffs.sigma_c,
        "k_c": coeffs.k_c,
        "v_kc": coeffs.v_kc,
        "gamma": coeffs.gamma,
        "a": coeffs.a,
        "b": coeffs.b,
        "beta0_sq": coeffs.beta0_sq,
        "criticality": coeffs.criticality,
    }
    outputs = [_write_json(outdir, "wnl.json", payload)]
    if _bval(cfg, "wnl", "map", False):
        asym = np.linspace(_fval(cfg, "wnl", "asym_min", 0.0),
                           _fval(cfg, "wnl", "asym_max", 1.8),
                           _ival(cfg, "wnl", "asym_steps", 10))
        g12v = np.linspace(_fval(cfg, "wnl", "g12_min", 2.0),
                           _fval(cfg, "wnl", "g12_max", 4.0),
                           _ival(cfg, "wnl", "g12_steps", 11))
        cmap = criticality_map(asym, g12v,
                               g_sum=_fval(cfg, "wnl", "g_sum", 4.0),
                               cbar=_fval(cfg, "wnl", "cbar", 1.0))
        rows = {"asymmetry": [], "g12": [], "tag": [],
                "sigma_c": [], "k_c": [], "beta0_sq": []}
        for i, a_ in enumerate(cmap.asymmetry):
            for j, g_ in enumerate(cmap.g12):
                rows["asymmetry"].append(a_)
                rows["g12"].append(g_)
                rows["tag"].append(cmap.tags[i][j])
                rows["sigma_c"].append(cmap.sigma_c[i, j])
                rows["k_c"].append(cmap.k_c[i, j])
                rows["beta0_sq"].append(cmap.beta0_sq[i, j])
        header = list(rows)
        outputs.append(_write_csv(outdir, "criticality_map.csv", header,
                                  [rows[k] for k in header]))
    return outputs


def _cmd_evolve(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    d = _domain_from(cfg)
    n = _ival(cfg, "grid", "n", 96)
    kind = cfg.get("evolve", "bc", fallback="electrode").strip().lower()
    if kind == "periodic":
        grid = make_periodic_grid(d.L, n)
        bc = periodic_bc()
    elif kind == "electrode":
        grid = make_grid(d, n)
        bc = electrode_bc(d.phi_left, d.phi_right)
    else:
        raise ConfigError("[evolve] bc must be electrode or periodic")
    prof = homogeneous_profile(grid, p)
    amp = _fval(cfg, "evolve", "perturb_amp", 0.0)
    mode = _ival(cfg, "evolve", "perturb_mode", 0)
    seed = _ival(cfg, "evolve", "perturb_seed", 0)
    if amp != 0.0:
        if mode >= 1:
            if kind == "periodic":
                shape = np.cos(mode * np.pi * (grid.x + grid.L) / grid.L)
            else:
                shape = np.cos(mode * np.pi * (grid.x + grid.L) / (2.0 * grid.L))
            prof.c1 += amp * shape
            prof.c2 -= amp * shape
        else:
            rng = np.random.default_rng(seed)
            for arr in (prof.c1, prof.c2):
                delta = amp * rng.standard_normal(arr.size)
                # zero mean in the grid's quadrature, so the masses that
                # evolve conserves stay at 2 L cbar
                delta -= trapz(delta, grid) / (2.0 * grid.L)
                arr += delta
        prof = prof.require_positive(1e-10)
    res = evolve(
        p, prof, bc,
        t_end=_fval(cfg, "evolve", "t_end"),
        dt0=_fval(cfg, "evolve", "dt0", 1e-3),
        dt_max=_fval(cfg, "evolve", "dt_max", 0.25),
        steady_tol=_fval(cfg, "evolve", "steady_tol", 1e-8),
    )
    outputs = [
        _write_csv(outdir, "timeseries.csv", ["t", "energy", "mass1", "mass2"],
                   [res.times, res.energy, res.mass1, res.mass2]),
        _write_csv(outdir, "final_profile.csv", ["x", "c1", "c2", "phi"],
                   [grid.x, res.profile.c1, res.profile.c2, res.profile.phi]),
        _write_json(outdir, "evolve.json", {
            "verdict": res.verdict,
            "reason": res.reason,
            "t": res.t,
            "steps": res.steps,
            "rejects": res.rejects,
            "dcdt_norm": res.dcdt_norm,
            "energy_first": float(res.energy[0]),
            "energy_last": float(res.energy[-1]),
            "final_energy_recomputed": discrete_energy(
                res.profile.c1, res.profile.c2, res.profile.phi, p, grid),
        }),
    ]
    return outputs, {"perturb_seed": seed}


def _cmd_continue(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    d = _domain_from(cfg)
    n = _ival(cfg, "grid", "n", 96)
    param = cfg.get("continue", "param", fallback="sigma").strip().lower()
    if param not in ("sigma", "voltage"):
        raise ConfigError("[continue] param must be sigma or voltage")
    lo = _fval(cfg, "continue", "lo")
    hi = _fval(cfg, "continue", "hi")
    start = _fval(cfg, "continue", "start", np.nan)
    probe_seed = _ival(cfg, "continue", "probe_seed", 0)
    grid = make_grid(d, n)
    seeds = [homogeneous_profile(grid, p)]
    bs = run_combined(
        seeds, p, d, param, (lo, hi), n=n,
        param_start=None if np.isnan(start) else start,
        tol_scale=_fval(cfg, "continue", "tol_scale", 1e-4),
        ds0=_fval(cfg, "continue", "ds0", 0.01),
        max_points=_ival(cfg, "continue", "max_points", 300),
        max_branches=_ival(cfg, "continue", "max_branches", 12),
        probe_stride=_ival(cfg, "continue", "probe_stride", 1),
        probe_t_end=_fval(cfg, "continue", "probe_t_end", 200.0),
        probe_seed=probe_seed,
    )
    save_branchset(bs, grid, outdir / "branches")
    summary = {
        "param": param,
        "range": [lo, hi],
        "branch_count": len(bs.branches),
        "branches": [
            {
                "origin": b.origin,
                "points": len(b.points),
                "param_min": float(b.params().min()),
                "param_max": float(b.params().max()),
                "stable_points": sum(1 for pt in b.points if pt.stable),
                "truncated": b.truncated,
            }
            for b in bs.branches
        ],
    }
    outputs = ["branches/branches.json",
               _write_json(outdir, "continue.json", summary)]
    return outputs, {"probe_seed": probe_seed}


# ---------------------------------------------------------------------------
# driver

_COMMANDS = {
    "energy": _cmd_energy,
    "trajectory": _cmd_trajectory,
    "periodic": _cmd_periodic,
    "ivp": _cmd_ivp,
    "dispersion": _cmd_dispersion,
    "onset": _cmd_onset,
    "wnl": _cmd_wnl,
    "evolve": _cmd_evolve,
    "continue": _cmd_continue,
}


def _config_digest(path: str, overrides: list[str]) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    for item in overrides:
        digest.update(b"\x00")
        digest.update(item.encode())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stericpnp",
        description="Steric electrolyte toolkit: stationary states, stability, "
                    "dynamics, and bifurcation branch mapping.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="task to run")
    parser.add_argument("config", help="INI config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a config entry (repeatable)")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides [output] dir)")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config, args.overrides)
        p = _model_from(cfg)
        outdir = Path(args.out or cfg.get("output", "dir", fallback=f"run_{args.command}"))
        outdir.mkdir(parents=True, exist_ok=True)
        result = _COMMANDS[args.command](cfg, p, outdir)
        outputs, extra = result if isinstance(result, tuple) else (result, {})
        manifest = {
            "command": args.command,
            "config": str(args.config),
            "config_sha256": _config_digest(args.config, args.overrides),
            "overrides": list(args.overrides),
            "argv": [args.command, str(args.config)]
                    + [f"--set={o}" for o in args.overrides],
            "version": __version__,
            "outputs": sorted(outputs),
            **extra,
        }
        _write_json(outdir, "manifest.json", manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"model-regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    print(f"wrote {len(manifest['outputs'])} product(s) to {outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
