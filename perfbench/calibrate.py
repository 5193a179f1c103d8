"""Calibration: how fast the CPU the benchmark runs on is right now.

On a shared virtual machine the same work takes up to 1.8x longer from one
few-second stretch to the next, as other guests load the host, and the two
CPUs of the machine do not slow together. A time measured there moves with
the host as much as with the program. So while a workload runs, a sampler
interrupts it every SAMPLE_INTERVAL_S of process CPU time (ITIMER_PROF) and
runs a short fixed reference kernel in the same thread, on the same CPU and
within the same seconds. The workload's CPU time, less the kernel's own,
is then scaled by the kernel's nominal time over its mean time during that
interval: it reads as the seconds the workload would take on the reference
machine, where the kernel takes its nominal time.

The kernel imports nothing from the package, so no change to the package
can change its time. It mixes the kinds of work the workloads do: a Python
loop of scalar arithmetic, elementwise numpy on arrays of 96 and 400
points, and a banded LU solve.

    python3 perfbench/calibrate.py     # prints the kernel's time here
"""

import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.04
TRIM = 0.1  # share of the slowest and of the fastest kernel times dropped


def _python_part(n: int) -> float:
    acc = 0.0
    xs = [0.5 * i for i in range(64)]
    for i in range(n):
        x = xs[i & 63]
        acc += x * x - 0.5 * x + abs(x - acc * 1e-9)
    return acc


def _numpy_part(u, reps: int) -> float:
    import numpy as np  # numpy is loaded by then; this is a dict lookup
    for _ in range(reps):
        d2 = np.empty_like(u)
        d2[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
        d2[0] = d2[-1] = 0.0
        u = u + 1e-3 * d2 - 1e-4 * np.log1p(np.abs(u)) * np.sign(u)
        u = np.clip(u, -5.0, 5.0)
    return float(u @ u)


class PythonKernel:
    """The Python loop alone. It needs no import, so it can calibrate the
    set-up, which is mostly the import of numpy, scipy and the package."""

    # Mean CPU time of one call on the reference machine: an idle 2-core
    # Intel Xeon virtual machine, python 3.11. It sets the scale of the
    # calibrated times, not their spread.
    nominal_s = 1.75e-4

    def __init__(self):
        for _ in range(20):
            self()

    def __call__(self) -> float:
        return _python_part(800)

    def timed(self) -> float:
        """CPU time of one call, on this thread's clock.

        The process clock cannot time so short an interval while a process
        CPU timer is armed (it reads the same value before and after), so
        the thread clock is used; the handler runs on the main thread.
        """
        c = time.thread_time()
        self()
        return time.thread_time() - c


class Kernel(PythonKernel):
    """The full reference kernel, with its inputs built once."""

    # As PythonKernel.nominal_s, with numpy 2.4, scipy 1.17, one BLAS thread.
    nominal_s = 5.0e-4

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded

        self.solve_banded = solve_banded
        n = 400
        ab = np.zeros((5, n))
        ab[0, 2:] = ab[4, :-2] = -0.1
        ab[1, 1:] = ab[3, :-1] = -1.0
        ab[2] = 4.4
        self.ab = ab
        self.rhs = np.sin(np.linspace(0.0, 7.0, n))
        self.u96 = np.cos(np.linspace(0.0, 3.0, 96))
        self.u400 = np.cos(np.linspace(0.0, 9.0, n))
        super().__init__()  # first calls allocate and fill caches

    def __call__(self) -> float:
        x = self.solve_banded((2, 2), self.ab, self.rhs)
        return (
            _python_part(600)
            + _numpy_part(self.u96, 5)
            + _numpy_part(self.u400, 4)
            + float(x[0])
        )


class Sampler:
    """Runs a kernel every `interval` seconds of process CPU time.

    Between start() and stop(), `times` collects each timed kernel call and
    `spent` the CPU time of the whole handler, which the caller subtracts
    from the interval it timed. scale() turns the times into the factor
    that calibrates that interval.
    """

    def __init__(self, kernel: PythonKernel, interval: float = SAMPLE_INTERVAL_S):
        self.kernel = kernel
        self.interval = interval
        self.times: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        c = time.thread_time()
        # The first call brings the kernel back into the caches the workload
        # evicted; only the second is timed, so the sample reads the speed of
        # the CPU and not how much memory the workload touched.
        self.kernel()
        self.times.append(self.kernel.timed())
        self.spent += time.thread_time() - c

    def start(self) -> None:
        self.times, self.spent = [], 0.0
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def scale(self) -> float:
        """Nominal kernel time over the trimmed mean of the times taken."""
        if not self.times:
            raise RuntimeError("the timed interval was too short to sample")
        s = sorted(self.times)
        cut = int(len(s) * TRIM)
        kept = s[cut: len(s) - cut] or s
        return self.kernel.nominal_s / (sum(kept) / len(kept))


if __name__ == "__main__":
    for kernel in (PythonKernel(), Kernel()):
        times = [kernel.timed() for _ in range(3000)]
        q = statistics.quantiles(times, n=4)
        print(f"{type(kernel).__name__}: median {statistics.median(times) * 1e3:.4f} ms, "
              f"quartiles {q[0] * 1e3:.4f} {q[2] * 1e3:.4f} ms, "
              f"nominal {kernel.nominal_s * 1e3:.4f} ms")
