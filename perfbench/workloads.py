"""The three benchmark workloads: inputs, one round of timed work, and checks.

A run repeats whole rounds of the same operations on the same inputs, so
every round's outputs must match the first round's byte for byte.  Each
workload builds its inputs from the run's seed only.  A workload with a
``probe_kind`` runs that machine-speed probe (see probe.py) before each
operation and after its last, outside every timing.  The one exception is
cli-release's DPFW command, probed on its own core while it runs
(probe.Alongside), which costs it under 1% of its time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np

from checks import DPAM_SLOPE_BAND, Checks, check_release, check_sample, is_symmetric, loglog_slope
from probe import Alongside

DELTA = 1e-6


@dataclasses.dataclass
class Op:
    """One operation of a round: a release or a CLI command."""

    kind: str  # "dpfw", "dpam" or "sample"
    wall: float
    ok: bool
    report: dict | None = None
    # inputs of an in-process release, kept only until the round is checked
    points: np.ndarray | None = None
    queries: np.ndarray | None = None
    target: np.ndarray | None = None
    epsilon: float = 1.0
    # machine-speed factor from the probes around the operation (probe.py)
    scale: float = 1.0
    # the file a CLI command wrote
    output: str | None = None


@dataclasses.dataclass
class Round:
    wall: float
    ops: list[Op]
    # probe time spent inside the round's driver call, outside every timing
    probe_s: float = 0.0

    @property
    def scaled_wall(self) -> float:
        """Wall time with each operation rescaled by its own probes.

        Time outside the operations takes their median factor.
        """
        inner = sum(op.wall for op in self.ops)
        rest = (self.wall - inner) * statistics.median(op.scale for op in self.ops)
        return sum(op.wall * op.scale for op in self.ops) + rest


def _apply_probes(ops: list[Op], befores: list[float], speed):
    """Give each operation the factor of the probes around it.

    The probe after an operation is the next one's before; one more probe
    closes the round.
    """
    afters = befores[1:] + [speed.probe()]
    for op, before, after in zip(ops, befores, afters):
        op.scale = speed.factor(before, after)


def _seeds(seed: int, name: str, count: int) -> list[int]:
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode())])
    return [int(x) for x in ss.generate_state(count, dtype=np.uint32)]


class InProcess:
    """Shared checks for workloads whose releases run in this process."""

    # Set-ups take 4-25 ms; the median of 5 spread by up to 0.29 over ten seeds.
    setup_reps = 15

    def __init__(self, dpqr, seed: int, root: Path, speed):
        self.dpqr = dpqr
        self.seed = seed
        self.root = root
        self.speed = speed

    @staticmethod
    def _op(kind, wall, report, data, workload, budget, target) -> Op:
        return Op(
            kind,
            wall,
            report is not None,
            None if report is None else vars(report),
            data.points,
            workload.queries,
            None if target is None else target.values,
            budget.epsilon,
        )

    def check_round(self, rnd: Round, checks: Checks):
        symmetric: dict[int, bool] = {}
        for op in rnd.ops:
            if not op.ok:
                continue
            if id(op.queries) not in symmetric:
                symmetric[id(op.queries)] = is_symmetric(op.queries)
            checks.record("workload closed under negation", symmetric[id(op.queries)])
            check_release(
                checks, op.kind, op.report, op.queries, op.points, op.epsilon, DELTA, op.target
            )

    @staticmethod
    def digest(rnd: Round) -> list[bytes]:
        return [np.asarray(op.report["p_priv"]).tobytes() for op in rnd.ops if op.ok]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def notes(self) -> list[str]:
        return []

    def close(self):
        pass


class ScalingPlan(InProcess):
    """The eps = 1 slice of default_plan(), run through run_experiment."""

    name = "scaling-plan"
    # Releases here are 1-200 ms of small numpy calls from Python loops;
    # rescaling each by the probes around it took the spread of release
    # medians over five seeds from 0.30 to 0.05.
    probe_kind = "python"
    # At 5 repetitions one seed in 40 put the DPAM slope at -0.647, just
    # inside its band; the spread comes mostly from the instance, and 10
    # repetitions keep every seed tried well inside.
    repetitions = 10

    def setup(self):
        dpqr = self.dpqr
        plan_seed, warm_seed = _seeds(self.seed, self.name, 2)
        base = dpqr.default_plan(seed=plan_seed)
        self.plan = dataclasses.replace(
            base, eps_grid=(1.0,), repetitions=self.repetitions, workers=1
        )
        # run_experiment draws its own instance from the plan, so set-up is
        # the plan plus a warm-up release pair on a small instance of the
        # same shape, which runs numpy's first-call work before timing.
        stream = dpqr.NoiseStream(warm_seed, self.name)
        target = dpqr.gen_distribution(base.k, base.dist_kind, stream.substream("distribution"))
        workload = dpqr.gen_workload(
            base.k, base.workload_m, base.workload_kind, stream.substream("workload")
        )
        data = dpqr.sample_dataset(target, base.n_grid[0], stream.substream("data"))
        budget = dpqr.PrivacyBudget(1.0, self.plan.delta)
        dpqr.release_dpfw(data, workload, budget, stream.substream("dpfw"), use_inf_diameter=True)
        dpqr.release_dpam(data, workload, budget, stream.substream("dpam"))

    def run_round(self, in_process: bool = True) -> Round:
        import dpqr.bench as bench

        ops: list[Op] = []
        befores: list[float] = []
        probes: list[float] = []

        def timed(kind, fn):
            def release(data, workload, budget, rng, **kwargs):
                t0 = time.perf_counter()
                befores.append(self.speed.probe())
                probes.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                report = None
                try:
                    report = fn(data, workload, budget, rng, **kwargs)
                    return report
                finally:
                    wall = time.perf_counter() - t0
                    target = kwargs.get("true_dist")
                    ops.append(self._op(kind, wall, report, data, workload, budget, target))

            return release

        originals = bench.release_dpfw, bench.release_dpam
        bench.release_dpfw = timed("dpfw", originals[0])
        bench.release_dpam = timed("dpam", originals[1])
        try:
            t0 = time.perf_counter()
            self.dpqr.run_experiment(self.plan, workers=1)
            wall = time.perf_counter() - t0 - sum(probes)
        finally:
            bench.release_dpfw, bench.release_dpam = originals
        _apply_probes(ops, befores, self.speed)
        return Round(wall, ops, sum(probes))

    def check_round(self, rnd: Round, checks: Checks):
        super().check_round(rnd, checks)
        self.slopes = {}
        for algo in ("dpfw", "dpam"):
            errors: dict[int, list[float]] = {}
            for op in rnd.ops:
                if op.ok and op.kind == algo:
                    p = np.asarray(op.report["p_priv"])
                    err = float((op.queries @ (op.target - p)).max())
                    errors.setdefault(op.points.shape[0], []).append(err)
            ns = sorted(errors)
            self.slopes[algo] = loglog_slope(ns, [np.mean(errors[n]) for n in ns])
        lo, hi = DPAM_SLOPE_BAND
        checks.record(f"DPAM log-log slope in [{lo}, {hi}]", lo <= self.slopes["dpam"] <= hi)

    def notes(self) -> list[str]:
        return [
            f"log-log slope of population error in n: DPAM {self.slopes['dpam']:.3f} "
            f"(gated to {list(DPAM_SLOPE_BAND)}), DPFW {self.slopes['dpfw']:.3f} (reference only)"
        ]


class LargeUniverse(InProcess):
    """parities(9): k = 512, m = 1024 after symmetrization, n = 16384."""

    name = "large-universe"
    # Most of a round is memory-bound (the pairwise diameter scan); such
    # work slowed by 25% for minutes at a time while other work did not.
    probe_kind = "memory"
    k = 512
    n = 16384
    dpam_seeds = 4

    def setup(self):
        dpqr = self.dpqr
        (seed,) = _seeds(self.seed, self.name, 1)
        stream = dpqr.NoiseStream(seed, self.name)
        self.target = dpqr.gen_distribution(self.k, "dirichlet(0.5)", stream.substream("distribution"))
        self.workload = dpqr.gen_workload(self.k, 2 * self.k, "parities(9)", stream.substream("workload"))
        self.data = dpqr.sample_dataset(self.target, self.n, stream.substream("data"))
        self.budget = dpqr.PrivacyBudget(1.0, DELTA)
        self.stream = stream

    def run_round(self, in_process: bool = True) -> Round:
        dpqr = self.dpqr
        args = (self.data, self.workload, self.budget)
        calls = [("dpfw", dpqr.release_dpfw, "dpfw", {"use_inf_diameter": True})]
        calls += [("dpam", dpqr.release_dpam, f"dpam-{i}", {}) for i in range(self.dpam_seeds)]
        ops, befores = [], []
        for kind, release, label, extra in calls:
            befores.append(self.speed.probe())
            t0 = time.perf_counter()
            report = release(*args, self.stream.substream(label), true_dist=self.target, **extra)
            ops.append(self._op(kind, time.perf_counter() - t0, report, *args, self.target))
        _apply_probes(ops, befores, self.speed)
        return Round(sum(op.wall for op in ops), ops)


class _PeakRss(threading.Thread):
    """Polls a child's VmHWM until stopped.

    A child's own rusage is no use here: Linux carries the parent's
    high-water mark into a child across fork and exec.
    """

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.path = f"/proc/{pid}/status"
        self.kib = 0
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(0.005):
            try:
                with open(self.path) as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.kib = max(self.kib, int(line.split()[1]))
                            break
            except OSError:
                return


class CliRelease:
    """The documented command line, one process per command, on files from set-up."""

    name = "cli-release"
    # Start-up and file reading are most of a DPAM or sample command, and
    # their times followed a fresh interpreter's (correlation 0.79).  The
    # 7-10 s DPFW loop did not (0.27): it spans many speed states, so it is
    # probed while it runs instead (probe.Alongside).
    probe_kind = "process"
    alongside = ("dpfw",)
    setup_reps = 5
    k = 16
    m = 16
    n = 2 ** 20
    # small enough that DPFW's l1 calibration runs ~1.2e5 iterations
    epsilon = 0.01
    # DPAM runs on this many release seeds per round: one run is about a
    # second, and with one a round the median of three or four samples
    # spread by up to 0.26 over ten seeds.
    dpam_seeds = 3
    # The target is the same for every --seed.  `dpqr run` holds each line of
    # the dataset file as a string, and one-character strings are shared, so
    # its peak memory follows the target's mass on indices 10-15: 68 to 89 MiB
    # across targets.  --seed still picks the workload, the 2^20-point draw,
    # and the release and sample seeds.
    target_seed = 20240801

    def __init__(self, dpqr, seed: int, root: Path, speed):
        self.dpqr = dpqr
        self.seed = seed
        self.root = root
        self.speed = speed
        self.work = root / ".perfbench_work" / f"{self.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.child_rss_kib = 0
        self._reports: dict[str, dict] = {}
        self._digest: list[bytes] = []

    def _path(self, name: str) -> str:
        return str(self.work / name)

    def _spawn(self, argv: list[str], alongside: bool = False) -> tuple[bool, float, int, float | None]:
        """Run one command to completion.

        Returns (ok, wall seconds, peak RSS in KiB, factor), where factor is
        the probe.Alongside factor when `alongside` is set and None otherwise.
        """
        factor = None
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=self.root
            )
            probes = Alongside(proc.pid) if alongside else None
            watch = _PeakRss(proc.pid)
            watch.start()
            code = proc.wait()
            wall = time.perf_counter() - t0
            watch.done.set()
            watch.join()
            if probes is not None:
                factor = probes.stop()
        if code != 0:
            sys.stderr.write((self.work / "stderr.txt").read_text())
        return code == 0, wall, watch.kib, factor

    def _dpqr(self, args: list[str], in_process: bool, alongside: bool) -> tuple[bool, float, float | None]:
        if in_process:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                t0 = time.perf_counter()
                code = self.dpqr_cli.main(args)
                wall = time.perf_counter() - t0
            if code != 0:
                sys.stderr.write(err.getvalue())
            return code == 0, wall, None
        ok, wall, rss, factor = self._spawn([sys.executable, "-m", "dpqr.cli", *args], alongside)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        return ok, wall, factor

    def setup(self):
        import dpqr.cli

        self.dpqr_cli = dpqr.cli
        wseed, dseed, self.run_seed, self.sample_seed = _seeds(self.seed, self.name, 4)
        target = np.random.default_rng(self.target_seed).dirichlet(np.full(self.k, 0.5))
        with open(self._path("target.json"), "w") as fh:
            json.dump({"k": self.k, "values": target.tolist()}, fh)
        steps = [
            ["gen-workload", "--k", str(self.k), "--m", str(self.m), "--kind", "random_sign",
             "--seed", str(wseed), "--out", self._path("workload.json")],
            ["gen-data", "--dist", self._path("target.json"), "--n", str(self.n),
             "--seed", str(dseed), "--out", self._path("data.txt")],
        ]
        for args in steps:
            ok, _, _, _ = self._spawn([sys.executable, "-m", "dpqr.cli", *args])
            if not ok:
                raise RuntimeError(f"set-up command failed: dpqr {' '.join(args)}")

    def _load_inputs(self):
        """The benchmark's own parse of the set-up files, for the checks."""
        with open(self._path("target.json")) as fh:
            self.target = np.asarray(json.load(fh)["values"], dtype=float)
        with open(self._path("workload.json")) as fh:
            self.queries = np.asarray(json.load(fh)["queries"], dtype=float)
        with open(self._path("data.txt"), "rb") as fh:
            header = fh.readline().strip()
            self.points = np.array(fh.read().split(), dtype=np.int64)
        if header != f"k={self.k}".encode():
            raise RuntimeError(f"unexpected dataset header {header!r}")

    def run_round(self, in_process: bool = False) -> Round:
        common = ["--data", self._path("data.txt"), "--workload", self._path("workload.json"),
                  "--eps", str(self.epsilon), "--delta", str(DELTA), "--alpha", "auto",
                  "--true-dist", self._path("target.json")]

        def run(algo: str, i: int) -> tuple[str, list[str], str]:
            out = self._path(f"{algo}-{i}.json")
            seed = str(self.run_seed + i)
            return algo, ["run", "--algo", algo, *common, "--seed", seed, "--out", out], out

        synthetic = self._path("synthetic.txt")
        commands = [run("dpfw", 0)] + [run("dpam", i) for i in range(self.dpam_seeds)] + [
            ("sample", ["sample", "--report", self._path("dpam-0.json"), "--count", str(self.n),
                        "--seed", str(self.sample_seed), "--out", synthetic], synthetic),
        ]
        ops, befores, factors = [], [], []
        for kind, args, out in commands:
            befores.append(self.speed.probe())
            ok, wall, factor = self._dpqr(args, in_process, kind in self.alongside)
            ops.append(Op(kind, wall, ok, output=out))
            factors.append(factor)
        _apply_probes(ops, befores, self.speed)
        for op, factor in zip(ops, factors):
            if factor is not None:
                op.scale = factor
        return Round(sum(op.wall for op in ops), ops)

    def check_round(self, rnd: Round, checks: Checks):
        if not hasattr(self, "points"):
            self._load_inputs()
            checks.record("workload closed under negation", is_symmetric(self.queries))
        self._digest = []
        for op in rnd.ops:
            if not op.ok:
                continue
            with open(op.output, "rb") as fh:
                raw = fh.read()
            self._digest.append(hashlib.sha256(raw).digest())
            if op.kind == "sample":
                header, _, body = raw.partition(b"\n")
                checks.record("sample header names k", header == f"k={self.k}".encode())
                points = np.array(body.split(), dtype=np.int64)
                p = np.asarray(self._reports[self._path("dpam-0.json")]["p_priv"], dtype=float)
                check_sample(checks, points, self.k, self.n, p)
                continue
            op.report = json.loads(raw)
            self._reports[op.output] = op.report
            check_release(
                checks, op.kind, op.report, self.queries, self.points, self.epsilon, DELTA, self.target
            )

    def digest(self, rnd: Round) -> list[bytes]:
        return self._digest

    def peak_rss_mb(self) -> float:
        return self.child_rss_kib / 1024.0

    def measure_startup(self, reps: int = 5) -> float:
        """Median wall time of a fresh interpreter importing dpqr."""
        times = [self._spawn([sys.executable, "-c", "import dpqr"])[1] for _ in range(reps)]
        return float(np.median(times))

    def notes(self) -> list[str]:
        return []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ScalingPlan, LargeUniverse, CliRelease)}
