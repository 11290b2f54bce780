"""Synthetic instances and the error-scaling experiment harness.

The harness sweeps sample size and privacy budget over a fixed synthetic
target distribution and workload, runs each solver with auto-tuned
regularization, and records both the population max error (against the true
distribution) and the empirical one (against the sample).  A log-log least
squares fit of mean population error versus n summarizes the scaling rate.

Repetition seeds derive from (master seed, algorithm, n, eps, repetition)
through a seed sequence, so cells can run on any number of workers and the
result is identical; aggregation order is fixed by the task list.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    PrivacyBudget,
    QueryWorkload,
    SimplexVector,
    as_alpha,
    as_values,
    empirical,
    new_dataset,
    new_simplex,
    new_workload,
    symmetrize,
    uniform,
    _sylvester_rows,
)
from .dpam import release_dpam
from .dpfw import release_dpfw
from .errors import ValidationError
from .mechanisms import NoiseStream
from .objective import max_query_error
from .report import from_record, to_record

_KIND_RE = re.compile(r"^([a-z_]+)(?:\(([^()]*)\))?$")


def _parse_kind(kind: str) -> tuple[str, str | None]:
    m = _KIND_RE.match(kind.strip())
    if not m:
        raise ValidationError(f"cannot parse kind {kind!r}")
    return m.group(1), m.group(2)


def gen_distribution(k: int, kind: str, rng: NoiseStream) -> SimplexVector:
    """Draw a synthetic target distribution.

    Kinds: "uniform"; "dirichlet(c)" with concentration c > 0; "sparse(s)"
    putting Dirichlet(1) mass on s uniformly chosen coordinates.
    """
    if k < 2:
        raise ValidationError(f"need k >= 2, got {k}")
    name, arg = _parse_kind(kind)
    if name == "uniform":
        return uniform(k)
    if name == "dirichlet":
        conc = float(arg) if arg else 1.0
        if conc <= 0.0:
            raise ValidationError(f"dirichlet concentration must be positive, got {conc}")
        return new_simplex(rng.dirichlet(np.full(k, conc)))
    if name == "sparse":
        s = int(arg) if arg else 1
        if not (1 <= s <= k):
            raise ValidationError(f"sparse support must lie in [1, {k}], got {s}")
        order = np.argsort(rng.uniform(size=k), kind="stable")[:s]
        mass = rng.dirichlet(np.ones(s)) if s > 1 else np.ones(1)
        values = np.zeros(k)
        values[order] = mass
        return new_simplex(values)
    raise ValidationError(f"unknown distribution kind {kind!r}")


def gen_workload(k: int, m: int, kind: str, rng: NoiseStream) -> QueryWorkload:
    """Draw a workload of the requested family and close it under negation.

    Kinds: "random_sign" ({-1, 1}^k rows), "random_box" (uniform [-1, 1]^k
    rows), "parities(d)" (all 2^d character rows of the d-bit universe,
    requires k = 2^d; m is ignored).
    """
    name, arg = _parse_kind(kind)
    if name == "parities":
        d = int(arg) if arg else int(round(math.log2(k)))
        if k != 2 ** d:
            raise ValidationError(f"parities({d}) needs k = {2 ** d}, got {k}")
        return symmetrize(new_workload(_sylvester_rows(np.arange(k), k)))
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    if name == "random_sign":
        rows = np.where(rng.uniform(size=(m, k)) < 0.5, -1.0, 1.0)
        return symmetrize(new_workload(rows))
    if name == "random_box":
        rows = rng.uniform(size=(m, k)) * 2.0 - 1.0
        return symmetrize(new_workload(rows))
    raise ValidationError(f"unknown workload kind {kind!r}")


def sample_dataset(p: SimplexVector, n: int, rng: NoiseStream) -> Dataset:
    """n independent draws from p via the inverse CDF of uniform variates."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    cdf = np.cumsum(as_values(p))
    u = rng.uniform(size=n)
    idx = np.searchsorted(cdf, u, side="right")
    return new_dataset(np.minimum(idx, p.k - 1))


def fit_loglog_slope(ns, errors) -> tuple[float, float]:
    """OLS slope and its standard error of log(error) on log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    if x.shape != y.shape or x.size < 2:
        raise ValidationError("need at least two (n, error) pairs")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValidationError("n values must not all coincide")
    slope = float(xc @ y) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    if dof == 0:
        return slope, 0.0
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)
    return slope, stderr


@dataclass(frozen=True)
class ExperimentPlan:
    """One error-scaling sweep: grids, repetitions, instance choices, seed."""

    algorithms: tuple[str, ...]
    n_grid: tuple[int, ...]
    eps_grid: tuple[float, ...]
    delta: float
    repetitions: int
    k: int
    dist_kind: str
    workload_kind: str
    workload_m: int
    seed: int
    alpha: float | None = None
    dpfw_inf_diameter: bool = True
    workers: int = 1

    def __post_init__(self):
        algos = tuple(self.algorithms)
        if algos == ("both",):
            algos = ("dpfw", "dpam")
        for a in algos:
            if a not in ("dpfw", "dpam"):
                raise ValidationError(f"unknown algorithm {a!r}")
        object.__setattr__(self, "algorithms", algos)
        if self.repetitions < 1:
            raise ValidationError("need repetitions >= 1")
        if any(n < 1 for n in self.n_grid) or not self.n_grid:
            raise ValidationError("n grid must be nonempty with n >= 1")
        if not self.eps_grid or not all(0.0 < e < math.inf for e in self.eps_grid):
            raise ValidationError("eps grid must be nonempty with finite eps > 0")
        if not (0.0 < self.delta < 1.0):
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta}")
        if self.alpha is not None:
            as_alpha(self.alpha)
        if self.workers < 1:
            raise ValidationError(f"need workers >= 1, got {self.workers}")
        if self.seed < 0:
            raise ValidationError(f"need seed >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return to_record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        return from_record(cls, d)


def default_plan(seed: int = 20240801) -> ExperimentPlan:
    """Desk-scale sweep: every cell runs in seconds, slope fits get 7 points."""
    return ExperimentPlan(
        algorithms=("dpfw", "dpam"),
        n_grid=tuple(2 ** p for p in range(8, 15)),
        eps_grid=(0.5, 1.0, 2.0),
        delta=1e-6,
        repetitions=20,
        k=16,
        dist_kind="dirichlet(0.5)",
        workload_kind="random_sign",
        workload_m=16,
        seed=seed,
    )


@dataclass
class ExperimentResult:
    """Aggregates, per-repetition records, and slope fits of one sweep."""

    plan: dict
    cells: list[dict]
    slopes: list[dict]
    runtimes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Everything but the wall-clock ``runtimes``, so files stay reproducible."""
        return to_record(self, drop=("runtimes",))


def _rep_seed(master: int, ai: int, ni: int, ei: int, rep: int) -> int:
    ss = np.random.SeedSequence([int(master), ai, ni, ei, rep])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_cell_rep(plan, target, workload, algo, n, eps, seed):
    stream = NoiseStream(seed, "bench")
    data = sample_dataset(target, n, stream.substream("data"))
    budget = PrivacyBudget(eps, plan.delta)
    solver = stream.substream("solve")
    if algo == "dpfw":
        report = release_dpfw(
            data,
            workload,
            budget,
            solver,
            alpha=plan.alpha,
            true_dist=target,
            use_inf_diameter=plan.dpfw_inf_diameter,
        )
    else:
        report = release_dpam(data, workload, budget, solver, alpha=plan.alpha, true_dist=target)
    emp = empirical(data, workload.k)
    return {
        "seed": seed,
        "population_error": report.population_max_error,
        "empirical_error": report.empirical_max_error,
        "sampling_gap": max_query_error(target, emp, workload),
        "sampling_gap_rev": max_query_error(emp, target, workload),
        "regime_ok": report.regime_ok,
        "alpha": report.alpha,
    }


def run_experiment(plan: ExperimentPlan, workers: int | None = None) -> ExperimentResult:
    """Execute a plan; identical output for any worker count.

    Per-repetition failures are recorded in the owning cell, not raised.
    """
    t_start = time.perf_counter()
    n_workers = plan.workers if workers is None else workers
    if n_workers < 1:
        raise ValidationError(f"need workers >= 1, got {n_workers}")
    master = NoiseStream(plan.seed, "plan")
    target = gen_distribution(plan.k, plan.dist_kind, master.substream("distribution"))
    workload = gen_workload(plan.k, plan.workload_m, plan.workload_kind, master.substream("workload"))

    tasks = []
    for ai, algo in enumerate(plan.algorithms):
        for ni, n in enumerate(plan.n_grid):
            for ei, eps in enumerate(plan.eps_grid):
                for rep in range(plan.repetitions):
                    seed = _rep_seed(plan.seed, ai, ni, ei, rep)
                    tasks.append((ai, ni, ei, rep, algo, n, eps, seed))

    def execute(task):
        ai, ni, ei, rep, algo, n, eps, seed = task
        try:
            return _run_cell_rep(plan, target, workload, algo, n, eps, seed)
        except Exception as exc:  # recorded, not fatal
            return {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}

    if n_workers > 1:
        # imported here: the pool costs every process ~0.7 MiB and ~7 ms to load
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            records = list(pool.map(execute, tasks))
    else:
        records = [execute(t) for t in tasks]

    cells: list[dict] = []
    index = 0
    by_algo_eps: dict[tuple[str, float], list[tuple[int, float]]] = {}
    for ai, algo in enumerate(plan.algorithms):
        for ni, n in enumerate(plan.n_grid):
            for ei, eps in enumerate(plan.eps_grid):
                reps = records[index : index + plan.repetitions]
                index += plan.repetitions
                good = [r for r in reps if "error" not in r]
                pop = np.array([r["population_error"] for r in good]) if good else np.array([])
                emp = np.array([r["empirical_error"] for r in good]) if good else np.array([])
                cell = {
                    "algorithm": algo,
                    "n": n,
                    "eps": eps,
                    "population_mean": float(pop.mean()) if good else None,
                    "population_std": float(pop.std(ddof=1)) if len(good) > 1 else None,
                    "empirical_mean": float(emp.mean()) if good else None,
                    "empirical_std": float(emp.std(ddof=1)) if len(good) > 1 else None,
                    "failures": len(reps) - len(good),
                    "reps": reps,
                }
                cells.append(cell)
                if good and cell["population_mean"] and cell["population_mean"] > 0.0:
                    by_algo_eps.setdefault((algo, eps), []).append((n, cell["population_mean"]))

    slopes = []
    for (algo, eps), points in sorted(by_algo_eps.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        if len(points) < 2:
            continue
        ns = [p[0] for p in points]
        errs = [p[1] for p in points]
        slope, stderr = fit_loglog_slope(ns, errs)
        slopes.append(
            {"algorithm": algo, "eps": eps, "slope": slope, "stderr": stderr, "points": len(points)}
        )

    return ExperimentResult(
        plan=plan.to_dict(),
        cells=cells,
        slopes=slopes,
        runtimes={"total_s": time.perf_counter() - t_start},
    )
