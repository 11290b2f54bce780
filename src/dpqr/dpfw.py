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
from dataclasses import replace

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
from .errors import ValidationError
from .mechanisms import FWSchedule, NoiseStream, dpfw_schedule, report_noisy_max
from .objective import max_query_error
from .report import RunReport

# Laplace values drawn per call in run_dpfw (64 KiB of float64)
_NOISE_BLOCK = 1 << 13


def run_dpfw(
    data: Dataset,
    workload: QueryWorkload,
    alpha,
    rng: NoiseStream,
    schedule: FWSchedule,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the private Frank-Wolfe solver on a calibrated schedule.

    Returns (dual vector of the output iterate, row selected at each
    iteration, output index).  Iterate t is replayed from the selections
    by q_0 = rows[0] and q_{t+1} = q_t + gamma (rows[picked[t]] - q_t).
    The selection noise is drawn from the "rnm" substream a block of
    iterations at a time, one row of m values per iteration; the stream
    reads one sequence, so the values equal one ``laplace(lam, size=m)``
    draw per iteration.
    """
    a = as_alpha(alpha)
    emp = empirical(data, workload.k).values
    t_total = schedule.T
    gamma = schedule.gamma
    rows = workload.queries
    m = rows.shape[0]
    block = max(1, _NOISE_BLOCK // m)
    rnm = rng.substream("rnm")
    out_index = int(rng.substream("output").integers(t_total))

    q = rows[0].copy()
    picked = np.empty(t_total, dtype=np.int64)

    for start in range(0, t_total, block):
        noise = rnm.laplace(schedule.lam, size=(min(block, t_total - start), m))
        for t, row_noise in enumerate(noise, start):
            if t == out_index:
                q_out = q.copy()
            grad = emp - softmax(q / a).values
            scores = rows @ grad
            i = report_noisy_max(scores, row_noise)
            picked[t] = i
            q += gamma * (rows[i] - q)

    return q_out, picked, out_index


def dual_to_primal(q, alpha) -> SimplexVector:
    """Distribution minimizing <q, -d> + alpha H(d): the softmax of q / alpha.

    Strictly positive in every coordinate and invariant under shifting q by
    a constant vector.
    """
    a = as_alpha(alpha)
    return softmax(as_values(q) / a)


def optimal_alpha(budget: PrivacyBudget, m_queries: int, k: int, n: int) -> float:
    """Regularization strength minimizing the DPFW error bound.

        alpha* = log^{1/5}(1/delta) log^{2/5}(m) / ((eps n)^{2/5} log^{4/5} k)
    """
    if k < 2 or m_queries < 2:
        raise ValidationError(f"need k >= 2 and m >= 2, got k={k}, m={m_queries}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
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
    use_inf_diameter: bool = False,
) -> RunReport:
    """Full DPFW pipeline: calibrate, solve the dual, map to a distribution, report.

    ``no_noise`` runs the schedule with lam = 0: the run is NOT private and
    the report is flagged accordingly.  ``true_dist`` adds the population max
    error for synthetic benchmarks.
    """
    t0 = time.perf_counter()
    a = as_alpha(
        alpha if alpha is not None else optimal_alpha(budget, workload.m, workload.k, data.n)
    )
    if schedule is None:
        d1, dinf = diameters(workload)
        schedule = dpfw_schedule(
            budget, a, d1, dinf, workload.m, data.n, use_inf_diameter=use_inf_diameter
        )
    if no_noise:
        schedule = replace(schedule, lam=0.0)

    q_out, _, out_index = run_dpfw(data, workload, a, rng, schedule)
    solved = time.perf_counter()
    p_priv = dual_to_primal(q_out, a)
    emp = empirical(data, workload.k)
    return RunReport.of_release(
        algorithm="dpfw", data=data, workload=workload, budget=budget, alpha=a, rng=rng,
        schedule=schedule, output_index=out_index, p_priv=p_priv,
        empirical_max_error=max_query_error(emp, p_priv, workload),
        population_max_error=(
            None if true_dist is None else max_query_error(true_dist, p_priv, workload)
        ),
        started=t0, solved=solved,
    )
