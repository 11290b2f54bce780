"""In-memory spans around the public dpqr functions, for the traced run only.

A span is (layer name, parent span, start, end).  Spans are appended to flat
arrays while the run is going and summarized once it ends; a layer's self
time is its span's duration minus the durations of its direct children, which
is exact here because every traced call runs on one thread and nests.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# The draw methods of NoiseStream: every noise draw in dpqr goes through one.
NOISE_METHODS = ("uniform", "laplace", "gaussian", "integers", "dirichlet")


def layer_table(dpqr):
    """(owner, attribute, layer) for every name a caller in dpqr binds.

    Functions are wrapped where their callers look them up, so a module that
    did ``from .core import diameters`` is patched in that module.
    """
    import dpqr.bench as bench
    import dpqr.cli as cli
    import dpqr.dpam as dpam
    import dpqr.dpfw as dpfw
    import dpqr.entropy as entropy
    import dpqr.objective as objective

    table = [
        (dpqr, "release_dpfw", "release.dpfw"),
        (dpqr, "release_dpam", "release.dpam"),
        (bench, "release_dpfw", "release.dpfw"),
        (bench, "release_dpam", "release.dpam"),
        (cli, "release_dpfw", "release.dpfw"),
        (cli, "release_dpam", "release.dpam"),
        (dpqr, "run_experiment", "bench.run_experiment"),
        (bench, "sample_dataset", "bench.sample_dataset"),
        (dpfw, "diameters", "core.diameters"),
        (dpfw, "run_dpfw", "dpfw.solve"),
        (dpam, "run_dpam", "dpam.solve"),
        (dpfw, "report_noisy_max", "mechanisms.rnm"),
        (dpfw, "softmax", "entropy.softmax"),
        (entropy, "softmax", "entropy.softmax"),
        (objective, "softmax", "entropy.softmax"),
        (dpam, "composite_prox", "entropy.prox"),
        (dpam, "smoothed_gradient_oracle", "objective.oracle"),
        (dpam, "gaussian_width", "objective.width"),
        (dpfw, "max_query_error", "objective.max_error"),
        (dpam, "max_query_error", "objective.max_error"),
        (bench, "max_query_error", "objective.max_error"),
        (cli, "load_dataset", "cli.load_dataset"),
        (cli, "load_workload", "cli.load_workload"),
        (cli, "write_report", "cli.write_report"),
        (cli, "save_dataset", "cli.save_dataset"),
    ]
    table += [(dpqr.NoiseStream, m, "mechanisms.noise") for m in NOISE_METHODS]
    return table


class Tracer:
    """Records nested spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._start)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        layer, parent, start, end, stack = self._layer, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            layer.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        traced.__wrapped__ = fn
        return traced

    def patch(self, table):
        for owner, attr, name in table:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(layer id, parent, start, end) of spans lo..hi, as numpy arrays."""
        hi = len(self) if hi is None else hi
        return (
            np.frombuffer(self._layer, dtype=np.int32)[lo:hi].copy(),
            np.frombuffer(self._parent, dtype=np.int32)[lo:hi].copy(),
            np.frombuffer(self._start, dtype=np.float64)[lo:hi].copy(),
            np.frombuffer(self._end, dtype=np.float64)[lo:hi].copy(),
        )

    def save(self, path):
        layer, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), layer=layer, parent=parent, start=start, end=end)


def summarize(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer call counts, inclusive and self seconds, and release splits.

    Spans lo..hi must form whole trees (a round of the benchmark).  Returns
    {"calls": {layer: n}, "total": {layer: s}, "self": {layer: s},
     "releases": [(wall, covered, finish)], "driver": s}.
    """
    layer, parent, start, end = tracer.arrays(lo, hi)
    dur = end - start
    local = parent - lo
    inside = local >= 0
    child = np.zeros(dur.shape[0])
    np.add.at(child, local[inside], dur[inside])
    own = dur - child
    nl = len(tracer.names)
    calls = np.bincount(layer, minlength=nl)
    total = np.bincount(layer, weights=dur, minlength=nl)
    self_s = np.bincount(layer, weights=own, minlength=nl)
    names = tracer.names
    out = {
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "total": {n: float(total[i]) for i, n in enumerate(names)},
        "self": {n: float(self_s[i]) for i, n in enumerate(names)},
    }

    ids = {n: i for i, n in enumerate(names)}

    def spans_of(*layers):
        return np.isin(layer, [ids[n] for n in layers if n in ids])

    rel = np.flatnonzero(spans_of("release.dpfw", "release.dpam"))
    sol = np.flatnonzero(spans_of("dpfw.solve", "dpam.solve") & inside)
    solver_of = dict(zip(local[sol].tolist(), sol.tolist()))
    calib: dict[int, float] = {}
    for j in np.flatnonzero(spans_of("core.diameters", "objective.width") & inside):
        s = solver_of.get(int(local[j]))
        if s is not None and end[j] <= start[s]:
            calib[int(local[j])] = calib.get(int(local[j]), 0.0) + float(dur[j])
    releases = []
    for i in rel.tolist():
        s = solver_of.get(i)
        if s is None:
            releases.append((float(dur[i]), 0.0, 0.0))
            continue
        finish = float(end[i] - end[s])
        releases.append((float(dur[i]), calib.get(i, 0.0) + float(dur[s]) + finish, finish))
    nested = rel[inside[rel]]
    in_parent = np.bincount(local[nested], weights=dur[nested], minlength=dur.shape[0])
    runs = np.flatnonzero(spans_of("bench.run_experiment"))
    out["releases"] = releases
    out["driver"] = float((dur[runs] - in_parent[runs]).sum())
    return out
