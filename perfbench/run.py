"""stericpnp benchmark: the census, relax and analysis workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, with no build or install step. Every measurement runs in
a fresh worker process (worker.py) with BLAS pinned to one thread.

--trace 0 reports the end-to-end metrics: calibrated_cpu_s (median CPU
time of one run of the workload), setup_s (median CPU time, over fresh
interpreters, of importing the package and generating the inputs) and
peak_rss_mb. Both times are calibrated against the speed of the CPU while
they were measured (calibrate.py); the raw CPU and wall times are printed
beside them. --trace 1 runs the workload untraced and then
traced, in two processes, and reports the per-layer metrics and
trace_overhead_s. Both check every output; the human-readable lines come
first and the last line of stdout is the JSON result. See README.md for the
workloads, why the times are CPU times, and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "relax", "analysis")
SETUP_SAMPLES = 7
DEADLINE_S = 175.0  # every worker is killed and reaped before 180 s

END_TO_END = {"calibrated_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: name -> unit. Spans give calls/s/self_s; returned
# objects give the remaining counts; the ratios are derived below.
PER_LAYER = {
    **{f"dynamics.evolve.{k}": u for k, u in (
        ("calls", "count"), ("s", "s"), ("self_s", "s"), ("steps", "count"), ("rejects", "count"))},
    "dynamics.evolve.steps_per_s": "1/s",
    "dynamics.rhs_per_step": "count/step",
    "dynamics.accept_ratio": "ratio",
    **{f"{layer}.{k}": u for layer in (
        "dynamics.time_derivatives", "dynamics.solve_banded", "dynamics.splu",
        "dynamics.solve_potential", "dynamics.discrete_energy", "energy.free_energy_density",
        "fd.second_derivative", "continuation.newton_solve", "continuation.solve_banded",
        "continuation.states_at", "stability.find_onset", "stability.max_growth_rate",
        "weakly_nonlinear.amplitude_coefficients", "trajectories.compute_trajectory",
        "trajectories.solve_ivp", "trajectories.build_periodic",
    ) for k, u in (("calls", "count"), ("s", "s"))},
    **{f"continuation.stability_probe.{k}": u for k, u in (
        ("calls", "count"), ("s", "s"), ("self_s", "s"))},
    **{f"continuation.probe.{k}": "count" for k in ("stable", "escaped", "unstable")},
    "continuation.probe.escape_ratio": "ratio",
    "continuation.evolve.calls": "count",
    "continuation.run_combined.s": "s",
    "continuation.run_combined.self_s": "s",
    "continuation.trace_branch.calls": "count",
    "continuation.trace_branch.s": "s",
    "continuation.trace_branch.points": "count",
    "weakly_nonlinear.criticality_map.s": "s",
    "trajectories.solve_ivp.nfev": "count",
    "energy.hessian_det.calls": "count",
    "trace_overhead_s": "s",
}


class BenchError(Exception):
    pass


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _provenance(seed: int) -> dict:
    """Commit (when the checkout is a git repository), source digest, seed, load."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "stericpnp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    with open("/proc/loadavg") as fh:
        load = fh.read().split()[:3]
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "loadavg": [float(x) for x in load]}


def _judge(iters: list[dict]) -> tuple[int, int, list[str], dict]:
    """attempted, failed, notes, counts; counts must repeat in every iteration."""
    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    notes = sorted({n for it in iters for n in it["notes"]})
    counts = iters[0]["counts"]
    if any(it["counts"] != counts for it in iters[1:]):
        notes.append("work counts differ between iterations of one run")
    return attempted, failed, notes, counts


def _layer_metrics(traced: dict, untraced_cpu: float, name: str) -> tuple[dict, dict, list]:
    """Per-layer metrics of one traced worker, its work counts and cross-check failures."""
    iters = traced["iterations"]
    setup = traced["setup_layers"]
    notes = []
    for it in iters:
        lay = it["layers"]
        solves = lay["dynamics.solve_banded.calls"] + lay["dynamics.splu.calls"]
        attempts = lay.get("dynamics.evolve.steps", 0) + lay.get("dynamics.evolve.rejects", 0)
        if solves != attempts:
            notes.append(f"tracer cross-check: {solves} linear solves for {attempts} evolve attempts")
        if name == "census":
            probes = it["counts"].get("probed_points", 0) + it["counts"].get("states", 0)
            if lay["continuation.stability_probe.calls"] != probes:
                notes.append(f"tracer cross-check: {lay['continuation.stability_probe.calls']} "
                             f"probe spans for {probes} probes made")
    keys = set(setup) | {k for it in iters for k in it["layers"]}
    timed = {k for k in keys if k.endswith((".s", ".self_s"))}
    per_iter = [{k: setup.get(k, 0) + it["layers"].get(k, 0) for k in keys} for it in iters]
    counts = {k: v for k, v in per_iter[0].items() if k not in timed}
    if any({k: v for k, v in p.items() if k not in timed} != counts for p in per_iter[1:]):
        notes.append("traced work counts differ between iterations of one run")
    lay = {k: statistics.median(p[k] for p in per_iter) for k in timed} | counts
    steps, rejects = lay.get("dynamics.evolve.steps", 0), lay.get("dynamics.evolve.rejects", 0)
    lay["dynamics.evolve.steps_per_s"] = _ratio(steps + rejects, lay["dynamics.evolve.s"])
    lay["dynamics.rhs_per_step"] = _ratio(lay["dynamics.time_derivatives.calls"], steps + rejects)
    lay["dynamics.accept_ratio"] = _ratio(steps, steps + rejects)
    lay["continuation.probe.escape_ratio"] = _ratio(
        lay.get("continuation.probe.escaped", 0), lay["continuation.stability_probe.calls"])
    lay["trace_overhead_s"] = statistics.median(it["cpu_s"] for it in iters) - untraced_cpu
    return {k: lay.get(k, 0) for k in PER_LAYER}, counts, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "stericpnp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'stericpnp'}", file=sys.stderr)
        return 2
    env = _worker_env()
    info = _provenance(a.seed)
    w, s = a.workload, str(a.seed)
    try:
        if a.trace == 0:
            setups = [_worker(["setup", w, s], env, deadline) for _ in range(SETUP_SAMPLES)]
        timed = _worker(["time", w, s, str(a.seconds)], env, deadline)
        if a.trace == 1:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            spans_file = out_dir / f"spans-{w}-seed{s}.npz"
            traced = _worker(["trace", w, s, str(a.seconds), str(spans_file)], env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if Path(timed["package"]).resolve() != (SRC / "stericpnp").resolve():
        print(f"error: worker imported the package from {timed['package']}", file=sys.stderr)
        return 1
    info.update(timed["env"])
    print("env " + json.dumps(info))
    attempted, failed, notes, counts = _judge(timed["iterations"])
    iters = timed["iterations"]
    cpu = statistics.median(it["cpu_s"] for it in iters)
    if a.trace == 0:
        values = {"calibrated_cpu_s": statistics.median(it["calibrated_cpu_s"] for it in iters),
                  "setup_s": statistics.median(x["calibrated_setup_s"] for x in setups),
                  "peak_rss_mb": timed["peak_rss_mb"]}
        units = END_TO_END
        for key, what in (("calibrated_cpu_s", "calibrated"), ("cpu_s", "raw CPU"),
                          ("wall_s", "wall"), ("kernel_s", "calibration kernel")):
            xs = [it[key] for it in iters]
            print(f"{key} {statistics.median(xs):.6g} s {what} (median of {len(xs)} runs: "
                  + ", ".join(f"{x:.4g}" for x in xs) + ")")
        print(f"setup_s {values['setup_s']:.4f} s calibrated, "
              f"{statistics.median(x['setup_s'] for x in setups):.4f} s raw CPU, "
              f"{statistics.median(x['setup_wall_s'] for x in setups):.4f} s wall "
              f"(medians of {len(setups)} fresh interpreters)")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    else:
        t_att, t_failed, t_notes, t_counts = _judge(traced["iterations"])
        values, layer_counts, x_notes = _layer_metrics(traced, cpu, w)
        attempted, failed = attempted + t_att, failed + t_failed
        notes += t_notes + x_notes
        if t_counts != counts:
            notes.append("traced and untraced runs made different work")
        counts = {**counts, **layer_counts}
        units = PER_LAYER
        print(f"traced {len(traced['iterations'])} runs; spans of the last in {spans_file.relative_to(ROOT)}")
    print(f"fail_ratio {_ratio(failed, attempted):.4f} ({failed} failed of {attempted} top-level calls)")
    print("counts " + json.dumps({k: v for k, v in counts.items() if v}, sort_keys=True))
    for note in notes:
        print("FAILED " + note)
    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
