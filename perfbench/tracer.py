"""In-memory span tracer that times the package's layers from outside.

``Tracer.install`` replaces each public function of the measured modules
with a timing wrapper, in every module namespace where callers look the
function up: ``stericpnp.continuation.evolve`` is wrapped as well as
``stericpnp.dynamics.evolve``. A few library solvers that sit on layer
boundaries are wrapped at their call sites too. Each call records a span
(name, start, end, parent) in flat arrays; spans stay in memory until
``take`` collects them.

A span is named after the site that looked the function up. Its layer is
the function's home, ``<module>.<name>`` for a package function and the
site name for a library solver. Layer metrics sum over every site, so
``dynamics.evolve.calls`` counts all evolve calls and
``continuation.evolve.calls`` the ones made from ``continuation``. The
private module ``_fd`` reports as ``fd``.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from array import array
from collections import defaultdict

import numpy as np

MEASURED = (
    "dynamics",
    "continuation",
    "stability",
    "weakly_nonlinear",
    "trajectories",
    "energy",
    "_fd",
)
# library solvers on layer boundaries, as (site module, attribute)
EXTERNAL = (
    ("dynamics", "solve_banded"),
    ("dynamics", "splu"),
    ("continuation", "solve_banded"),
    ("trajectories", "solve_ivp"),
)


def _probe_counts(res) -> dict:
    if res.stable:
        verdict = "stable"
    elif res.target is not None:
        verdict = "escaped"
    else:
        verdict = "unstable"
    return {f"continuation.probe.{verdict}": 1}


# work counts read from returned objects, by layer
RESULT_COUNTS = {
    "dynamics.evolve": lambda r: {"dynamics.evolve.steps": r.steps, "dynamics.evolve.rejects": r.rejects},
    "continuation.trace_branch": lambda r: {"continuation.trace_branch.points": len(r.points)},
    "continuation.stability_probe": _probe_counts,
    "trajectories.solve_ivp": lambda r: {"trajectories.solve_ivp.nfev": r.nfev},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer: dict[str, str] = {}
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[types.ModuleType, str, object]] = []
        self._clear()

    def _clear(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, int] = defaultdict(int)

    def _id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer[name] = layer
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        idx = self._open(self._id(name, name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, site: str, layer: str):
        nid = self._id(site, layer)
        extract = RESULT_COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extract is not None:
                for key, value in extract(result).items():
                    self.counts[key] += value
            return result

        return traced

    def _patch(self, module, attr: str, site: str, layer: str) -> None:
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, self._wrap(original, site, layer))

    def install(self, package) -> None:
        modules = {mod: getattr(package, mod) for mod in MEASURED}
        # metric names may not start with "_", so _fd reports as fd
        label = {m.__name__: name.lstrip("_") for name, m in modules.items()}
        for mod in modules.values():
            site = label[mod.__name__]
            for attr, obj in list(vars(mod).items()):
                home = label.get(getattr(obj, "__module__", None))
                if isinstance(obj, types.FunctionType) and not attr.startswith("_") and home:
                    self._patch(mod, attr, f"{site}.{attr}", f"{home}.{obj.__name__}")
        for mod, attr in EXTERNAL:
            name = f"{mod}.{attr}"
            self._patch(modules[mod], attr, name, name)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def take(self) -> dict:
        """Collect the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans = {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }
        counts = dict(self.counts)
        self._clear()
        return {"spans": spans, "counts": counts}

    def aggregate(self, taken: dict) -> dict:
        """Per-layer calls, s and self_s, plus per-site values where site != layer."""
        sp = taken["spans"]
        dur = sp["end"] - sp["start"]
        child = sp["parent"] >= 0
        covered = np.bincount(sp["parent"][child], weights=dur[child], minlength=dur.size)
        nn = len(self.names)
        calls = np.bincount(sp["name_id"], minlength=nn)
        total = np.bincount(sp["name_id"], weights=dur, minlength=nn)
        own = np.bincount(sp["name_id"], weights=dur - covered, minlength=nn)
        out: dict[str, float] = defaultdict(int)
        for i, site in enumerate(self.names):
            layer = self.layer[site]
            for key, value in (("calls", int(calls[i])), ("s", total[i]), ("self_s", own[i])):
                out[f"{layer}.{key}"] += value
                if site != layer:
                    out[f"{site}.{key}"] = value
        out.update(taken["counts"])
        return dict(out)
