"""Batch command-line front end.

One executable, one subcommand per task: algebraic energy diagnostics,
phase-plane trajectories, periodic stationary construction, field IVP
integration, dispersion sampling, onset location, weakly nonlinear
coefficients, dissipative time integration, and combined
continuation/relaxation branch mapping.

Every run reads a flat INI config (sections of key=value pairs), optionally
patched by repeated ``--set section.key=value`` flags, and writes its
products into a single output directory together with ``manifest.json``
(config hash, package version, argv, seeds). Each key sets one library
argument; a key the config leaves out is not passed on, so that argument
keeps the library's own default. All randomness is seeded, so a run is
reproducible from its manifest: same config and seed give bit identical
CSV output. Numbers in CSV files carry 17 significant digits; JSON files
are strict JSON with sorted keys, a non-finite number written as null.

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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .continuation import run_combined, save_branchset
from .dynamics import add_noise, discrete_energy, electrode_bc, evolve, periodic_bc
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

_GRID_N = 96  # nodes when [grid] sets no n; the grid builders have no default


class ConfigError(Exception):
    """Malformed config file, unknown key, or missing required entry."""


def _flag(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _count(raw: str, lo: int = 1) -> int:
    value = int(raw)
    if value < lo:
        raise ValueError(f"must be at least {lo}, got {value}")
    return value


def _seed(raw: str) -> int:
    return _count(raw, lo=0)  # numpy's default_rng takes no negative seed


def _one_of(*names: str):
    def read(raw: str) -> str:
        if raw.lower() not in names:
            raise ValueError(f"must be one of {', '.join(names)}, got {raw!r}")
        return raw.lower()

    return read


# Section -> key -> converter from the INI string. Unknown sections and
# unknown keys are rejected outright so a typo cannot silently fall back
# to a default.
_SCHEMA = {
    "model": dict.fromkeys(
        ("z1", "z2", "g11", "g22", "g12", "cbar1", "cbar2", "sigma"), float
    ),
    "domain": dict.fromkeys(("l", "phi_left", "phi_right"), float),
    "grid": {"n": int},
    "output": {"dir": str},
    "energy": {"c1": float, "c2": float, "n_freq": _int_list, "cbar_segregated": float},
    "trajectory": {"c1_0": float, "c2_0": float, "c2_min": float, "c2_max": float,
                   "samples_per_leg": int},
    "periodic": {"amplitude": float, "samples": _count, "periods": _count},
    "ivp": {"c1_0": float, "c2_0": float, "e0": float, "x_max": float,
            "stop_at_neutral": _flag, "samples": _count},
    "dispersion": {"k_min": float, "k_max": float, "count": _count, "log_spaced": _flag},
    "onset": {},
    "wnl": {"map": _flag, "asym_min": float, "asym_max": float, "asym_steps": _count,
            "g12_min": float, "g12_max": float, "g12_steps": _count, "g_sum": float,
            "cbar": float},
    "evolve": {"t_end": float, "dt0": float, "dt_max": float, "steady_tol": float,
               "bc": _one_of("electrode", "periodic"), "perturb_amp": float,
               "perturb_mode": int, "perturb_seed": _seed},
    "continue": {"param": _one_of("sigma", "voltage"), "lo": float, "hi": float,
                 "start": float, "ds0": float, "max_points": _count, "max_branches": _count,
                 "probe_stride": _count, "probe_t_end": float, "probe_seed": _seed},
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
        section, key = (part.strip() for part in target.split(".", 1))
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section, key.lower(), value.strip())
    for section in cfg.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(cfg[section]) - set(_SCHEMA[section])
        if extra:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(extra))}"
            )
    return cfg


def _section(cfg, name: str, required: tuple[str, ...] = ()) -> dict:
    """The keys that [name] sets, each converted by _SCHEMA.

    ConfigError if a required key is missing or a value does not convert.
    """
    raw = dict(cfg[name]) if cfg.has_section(name) else {}
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing required key {key} in [{name}]")
    out = {}
    for key, text in raw.items():
        try:
            out[key] = _SCHEMA[name][key](text)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from exc
    return out


def _renamed(opts: dict, **names: str) -> dict:
    """opts with each config key in names replaced by the argument it sets."""
    return {names.get(key, key): value for key, value in opts.items()}


def _model_from(cfg) -> ModelParams:
    return make_params(**_section(
        cfg, "model", required=("z1", "z2", "g11", "g22", "g12", "cbar1", "cbar2")
    ))


def _domain_from(cfg) -> DomainSpec:
    opts = _section(cfg, "domain", required=("l",))
    return DomainSpec(opts.pop("l"), **opts)


def _jsonable(obj):
    """obj with arrays as lists and each non-finite float as None (JSON null)."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _write_json(outdir: Path, name: str, payload: dict) -> str:
    with open(outdir / name, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=1, sort_keys=True, allow_nan=False)
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
# subcommands; each returns (products, manifest extras)


def _cmd_energy(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    opts = {"c1": p.cbar1, "c2": p.cbar2, "n_freq": [1, 2, 4],
            "cbar_segregated": p.cbar1} | _section(cfg, "energy")
    c1, c2 = opts["c1"], opts["c2"]
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
    fields = ("entropy_seg", "steric_seg", "electrostatic_seg", "entropy_hom",
              "steric_hom", "electrostatic_hom", "total_seg", "total_hom")
    cmps = [segregated_comparison(nf, opts["cbar_segregated"], p.g12)
            for nf in opts["n_freq"]]
    return [
        _write_json(outdir, "energy.json", payload),
        _write_csv(outdir, "segregated.csv", ["n_freq", *fields],
                   [opts["n_freq"], *([getattr(c, f) for c in cmps] for f in fields)]),
    ], {}


def _cmd_trajectory(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    res = compute_trajectory(p, **_section(cfg, "trajectory", required=("c1_0", "c2_0")))
    payload = {
        "classification": classify_trajectory(res),
        "start": list(res.start),
        "neutral_points": res.neutral_points,
        "d_zero_points": res.d_zero_points,
        "d_at_neutral": res.d_at_neutral,
    }
    return [
        _write_csv(outdir, "trajectory.csv", ["c2", "c1", "det_hessian"],
                   [res.c2, res.c1, res.d_values]),
        _write_json(outdir, "trajectory.json", payload),
    ], {}


def _cmd_periodic(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    opts = _section(cfg, "periodic", required=("amplitude",))
    sol = build_periodic(p, amplitude=opts.pop("amplitude"))
    x, c1, c2, E, phi = sol.sample(**_renamed(opts, samples="n_per_period"))
    payload = {
        "period": sol.period,
        "amp_a": sol.amp_a,
        "amp_b": sol.amp_b,
        "e_peak": sol.e_peak,
        "residuals": stationary_residual_fd(x, c1, c2, E, phi, p, periodic=True),
    }
    return [
        _write_csv(outdir, "periodic.csv", ["x", "c1", "c2", "E", "phi"],
                   [x, c1, c2, E, phi]),
        _write_json(outdir, "periodic.json", payload),
    ], {}


def _cmd_ivp(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    opts = {"samples": 2001} | _section(cfg, "ivp", required=("c1_0", "c2_0"))
    c0 = (opts.pop("c1_0"), opts.pop("c2_0"))
    samples = opts.pop("samples")
    if "x_max" in opts:
        opts["x_span"] = (0.0, opts.pop("x_max"))
    sol = integrate_field_ivp(p, c0, **_renamed(opts, e0="E0"))
    x = np.linspace(sol.x_start, sol.x_end, samples)
    c1, c2, E, phi = sol.at(x)
    payload = {
        "x_start": sol.x_start,
        "x_end": sol.x_end,
        "status": sol.status,
        "blow_up": sol.blow_up,
        "symmetric": sol.symmetric,
    }
    return [
        _write_csv(outdir, "ivp.csv", ["x", "c1", "c2", "E", "phi"], [x, c1, c2, E, phi]),
        _write_json(outdir, "ivp.json", payload),
    ], {}


def _cmd_dispersion(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    opts = {"k_min": 0.1, "k_max": 20.0, "count": 256,
            "log_spaced": False} | _section(cfg, "dispersion")
    k_range = (opts["k_min"], opts["k_max"], opts["count"])
    if opts["log_spaced"]:
        if k_range[0] <= 0:
            raise ConfigError("[dispersion] log_spaced needs k_min > 0")
        k = np.geomspace(*k_range)
    else:
        k = np.linspace(*k_range)
    res = dispersion(k, p, p.sigma)
    return [
        _write_csv(outdir, "dispersion.csv", ["k", "rate"], [res.k, res.rate]),
        _write_json(outdir, "dispersion.json", {
            "sigma": res.sigma,
            "rate_max": float(np.max(res.rate)),
            "k_at_max": float(res.k[int(np.argmax(res.rate))]),
        }),
    ], {}


def _cmd_onset(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    onset = find_onset(p)
    payload = {**asdict(onset), "polynomial_residuals": verify_onset(onset, p)}
    return [_write_json(outdir, "onset.json", payload)], {}


def _cmd_wnl(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    coeffs = amplitude_coefficients(find_onset(p), p)
    outputs = [_write_json(outdir, "wnl.json", asdict(coeffs))]
    opts = {"map": False, "asym_min": 0.0, "asym_max": 1.8, "asym_steps": 10,
            "g12_min": 2.0, "g12_max": 4.0, "g12_steps": 11} | _section(cfg, "wnl")
    if opts.pop("map"):
        asym = np.linspace(opts.pop("asym_min"), opts.pop("asym_max"), opts.pop("asym_steps"))
        g12v = np.linspace(opts.pop("g12_min"), opts.pop("g12_max"), opts.pop("g12_steps"))
        cmap = criticality_map(asym, g12v, **opts)
        a_, g_ = np.meshgrid(cmap.asymmetry, cmap.g12, indexing="ij")
        header = ["asymmetry", "g12", "tag", "sigma_c", "k_c", "beta0_sq"]
        columns = [a_, g_, cmap.tags, cmap.sigma_c, cmap.k_c, cmap.beta0_sq]
        outputs.append(_write_csv(outdir, "criticality_map.csv", header,
                                  [c.ravel() for c in columns]))
    return outputs, {}


def _cmd_evolve(cfg, p, outdir: Path) -> tuple[list[str], dict]:
    d = _domain_from(cfg)
    n = _section(cfg, "grid").get("n", _GRID_N)
    opts = {"bc": "electrode", "perturb_amp": 0.0, "perturb_mode": 0,
            "perturb_seed": 0} | _section(cfg, "evolve", required=("t_end",))
    periodic = opts.pop("bc") == "periodic"
    if periodic:
        grid, bc = make_periodic_grid(d.L, n), periodic_bc()
    else:
        grid, bc = make_grid(d, n), electrode_bc(d.phi_left, d.phi_right)
    prof = homogeneous_profile(grid, p)
    amp, mode, seed = (opts.pop(k) for k in ("perturb_amp", "perturb_mode", "perturb_seed"))
    if amp != 0.0:
        if mode >= 1:
            # `mode` whole wavelengths around the ring, `mode` half
            # wavelengths (a Neumann cosine) between the walls
            scale = grid.L if periodic else 2.0 * grid.L
            shape = np.cos(mode * np.pi * (grid.x + grid.L) / scale)
            prof.c1 += amp * shape
            prof.c2 -= amp * shape
        else:
            add_noise(prof, amp, seed)
        prof = prof.require_positive()
    res = evolve(p, prof, bc, **opts)
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
            "factorizations": res.factorizations,
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
    n = _section(cfg, "grid").get("n", _GRID_N)
    opts = {"param": "sigma"} | _section(cfg, "continue", required=("lo", "hi"))
    # the manifest records the probe seed, so it is fixed here rather than
    # left to run_combined's default
    opts.setdefault("probe_seed", 0)
    param, lo, hi = opts.pop("param"), opts.pop("lo"), opts.pop("hi")
    grid = make_grid(d, n)
    bs = run_combined([homogeneous_profile(grid, p)], p, d, param, (lo, hi), n=n,
                      **_renamed(opts, start="param_start"))
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
    return outputs, {"probe_seed": opts["probe_seed"]}


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
        outputs, extra = _COMMANDS[args.command](cfg, p, outdir)
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
