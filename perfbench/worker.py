"""One benchmark process: set-up timing, timed iterations, or a traced run.

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py time  WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace WORKLOAD SEED SECONDS SPANS_FILE

Prints one JSON object on stdout. run.py starts it with the checkout's
src/ on PYTHONPATH and BLAS pinned to one thread; each mode runs in a fresh
process, so the traced run never shares an interpreter with a timing run.
The setup and time modes also calibrate their times (calibrate.py); the
traced run does not, so that no kernel call falls inside a span.
"""

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

import calibrate

# Set-up time starts here, before numpy or the package is imported. In
# setup mode the pure-Python kernel samples the CPU's speed from the same
# moment; set-up is short, so it samples twice as often as the timed runs.
SETUP_SAMPLER = calibrate.Sampler(calibrate.PythonKernel(), calibrate.SAMPLE_INTERVAL_S / 2)
if sys.argv[1:2] == ["setup"]:
    SETUP_SAMPLER.start()
T0_WALL, T0_CPU = time.perf_counter(), time.process_time()


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _iterate(one, seconds: float) -> list:
    """Run one() at least once, and again while the next run fits in seconds."""
    results = []
    begin = time.perf_counter()
    while True:
        results.append(one())
        typical = statistics.median(r["wall_s"] for r in results)
        if time.perf_counter() - begin + typical > seconds:
            return results


def _checked(rows, ops) -> dict:
    failed = [f"{op}: {note}" for op, ok, note in rows if not ok]
    failed += [f"{op} raised:\n{tb}" for op, tb in ops.errors]
    return {"attempted": len(rows), "failed": sum(not ok for _, ok, _ in rows), "notes": failed}


def main(argv: list[str]) -> None:
    mode, name = argv[0], argv[1]
    seed = int(argv[2]) % 2**64  # numpy's generators take non-negative seeds
    import stericpnp
    import workloads

    make, run, check = workloads.WORKLOADS[name]
    if mode == "setup":
        make(seed)
        SETUP_SAMPLER.stop()
        cpu = time.process_time() - T0_CPU - SETUP_SAMPLER.spent
        wall = time.perf_counter() - T0_WALL - SETUP_SAMPLER.spent
        print(json.dumps({"setup_s": cpu, "setup_wall_s": wall,
                          "calibrated_setup_s": cpu * SETUP_SAMPLER.scale()}))
        return
    seconds = float(argv[3])

    if mode == "time":
        inp = make(seed)
        sampler = calibrate.Sampler(calibrate.Kernel())

        def one():
            ops = workloads.Ops()
            t, c = time.perf_counter(), time.process_time()
            sampler.start()
            out = run(inp, ops)
            sampler.stop()
            wall = time.perf_counter() - t - sampler.spent
            cpu = time.process_time() - c - sampler.spent
            rows, counts = check(inp, out)
            return {"wall_s": wall, "cpu_s": cpu, "calibrated_cpu_s": cpu * sampler.scale(),
                    "kernel_s": statistics.mean(sampler.times), "counts": counts,
                    **_checked(rows, ops)}

        iters = _iterate(one, seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"iterations": iters, "peak_rss_mb": peak, "env": environment(),
                          "package": os.path.dirname(stericpnp.__file__)}))
        return

    from tracer import Tracer

    tracer = Tracer()
    tracer.install(stericpnp)
    with tracer.span("setup"):
        inp = make(seed)
    setup = tracer.aggregate(tracer.take())
    last = {}

    def one():
        ops = workloads.Ops()
        t, c = time.perf_counter(), time.process_time()
        with tracer.span(f"workload.{name}"):
            out = run(inp, ops)
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        last["taken"] = tracer.take()
        layers = tracer.aggregate(last["taken"])
        rows, counts = check(inp, out)
        tracer.take()  # the checks' own calls are not part of the workload
        return {"wall_s": wall, "cpu_s": cpu, "counts": counts, "layers": layers,
                **_checked(rows, ops)}

    iters = _iterate(one, seconds)
    tracer.uninstall()
    import numpy as np

    np.savez_compressed(argv[4], names=np.array(tracer.names),
                        layers=np.array([tracer.layer[n] for n in tracer.names]),
                        **last["taken"]["spans"])
    print(json.dumps({"iterations": iters, "setup_layers": setup}))


if __name__ == "__main__":
    main(sys.argv[1:])
