"""DPFW: differentially private Frank-Wolfe on the regularized dual.

Each iteration scores every workload row against the empirical dual gradient,
picks a row by Report Noisy Max, and moves the dual iterate a step toward it,
so iterates stay in the hull of the workload by construction.  The returned
dual vector is a uniformly random iterate, and the released distribution is
its image under the entropy-conjugate gradient map (softmax of q / alpha),
which solves the inner primal minimization exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    PrivacyBudget,
    QueryWorkload,
    SimplexVector,
    as_alpha,
    as_values,
    diameters,
    empirical,
)
from .entropy import softmax
from .errors import InvalidParams
from .mechanisms import FWSchedule, NoiseStream, dpfw_schedule, report_noisy_max
from .objective import frank_wolfe_gap, max_query_error
from .report import RunReport


@dataclass(frozen=True)
class FWTrace:
    """Per-iteration selections of one run, the output-index draw, and optional gaps."""

    row_indices: np.ndarray
    output_index: int
    gaps: np.ndarray | None = None


def run_dpfw(
    data: Dataset,
    workload: QueryWorkload,
    alpha,
    rng: NoiseStream,
    schedule: FWSchedule,
    track_gap: bool = False,
) -> tuple[np.ndarray, FWTrace]:
    """Run the private Frank-Wolfe solver on a calibrated schedule.

    Returns (dual vector, trace).  With ``track_gap`` the linearized gap of
    every iterate against the empirical distribution is recorded; this
    costs an extra row scan per iteration and is off by default.
    """
    a = as_alpha(alpha, positive=True)
    emp = empirical(data, workload.k).values
    t_total = schedule.T
    gamma = schedule.gamma
    rows = workload.queries
    noise = rng.substream("rnm")
    out_index = int(rng.substream("output").integers(t_total))

    q = rows[0].copy()
    picked = np.empty(t_total, dtype=np.int64)
    gaps = np.empty(t_total) if track_gap else None

    for t in range(t_total):
        if t == out_index:
            q_out = q.copy()
        if track_gap:
            gaps[t] = frank_wolfe_gap(q, emp, a, workload)
        grad = emp - softmax(q / a).values
        scores = rows @ grad
        i = report_noisy_max(scores, schedule.lam, noise)
        picked[t] = i
        q += gamma * (rows[i] - q)

    trace = FWTrace(row_indices=picked, output_index=out_index, gaps=gaps)
    return q_out, trace


def dual_to_primal(q, alpha) -> SimplexVector:
    """Distribution minimizing <q, -d> + alpha H(d): the softmax of q / alpha.

    Strictly positive in every coordinate and invariant under shifting q by
    a constant vector.
    """
    a = as_alpha(alpha, positive=True)
    return softmax(as_values(q) / a)


def optimal_alpha(budget: PrivacyBudget, m_queries: int, k: int, n: int) -> float:
    """Regularization strength minimizing the DPFW error bound.

        alpha* = log^{1/5}(1/delta) log^{2/5}(m) / ((eps n)^{2/5} log^{4/5} k)
    """
    if k < 2 or m_queries < 2:
        raise InvalidParams(f"need k >= 2 and m >= 2, got k={k}, m={m_queries}")
    if n < 1:
        raise InvalidParams(f"need n >= 1, got {n}")
    log_delta = math.log(1.0 / budget.delta)
    return (
        log_delta ** 0.2
        * math.log(m_queries) ** 0.4
        / ((budget.epsilon * n) ** 0.4 * math.log(k) ** 0.8)
    )


def release_dpfw(
    data: Dataset,
    workload: QueryWorkload,
    budget: PrivacyBudget,
    rng: NoiseStream,
    alpha=None,
    schedule: FWSchedule | None = None,
    no_noise: bool = False,
    true_dist=None,
    track_gap: bool = False,
    use_inf_diameter: bool = False,
) -> RunReport:
    """Full DPFW pipeline: calibrate, solve the dual, map to a distribution, report.

    ``no_noise`` zeroes the selection noise: the run is NOT private and the
    report is flagged accordingly.  ``true_dist`` adds the population max
    error for synthetic benchmarks.
    """
    t0 = time.perf_counter()
    a = as_alpha(
        alpha if alpha is not None else optimal_alpha(budget, workload.m, workload.k, data.n),
        positive=True,
    )
    if schedule is None:
        d1, dinf = diameters(workload)
        schedule = dpfw_schedule(
            budget, a, d1, dinf, workload.m, data.n, use_inf_diameter=use_inf_diameter
        )
    if no_noise:
        schedule = replace(schedule, lam=0.0)

    q_out, trace = run_dpfw(data, workload, a, rng, schedule, track_gap=track_gap)
    solved = time.perf_counter()
    p_priv = dual_to_primal(q_out, a)
    emp = empirical(data, workload.k)
    diagnostics = None
    if track_gap:
        # gap under the empirical reference (what the solver sees) and,
        # on synthetic instances, under the true distribution as well
        diagnostics = {
            "mean_gap_empirical": float(trace.gaps.mean()),
            "output_gap_empirical": frank_wolfe_gap(q_out, emp, a, workload),
        }
        if true_dist is not None:
            diagnostics["output_gap_population"] = frank_wolfe_gap(q_out, true_dist, a, workload)
    return RunReport.of_release(
        algorithm="dpfw", data=data, workload=workload, budget=budget, alpha=a, rng=rng,
        schedule=schedule, output_index=trace.output_index, p_priv=p_priv,
        empirical_max_error=max_query_error(emp, p_priv, workload),
        population_max_error=(
            None if true_dist is None else max_query_error(true_dist, p_priv, workload)
        ),
        no_noise=no_noise, started=t0, solved=solved, diagnostics=diagnostics,
    )
