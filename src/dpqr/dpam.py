"""DPAM: private accelerated mirror descent on the smoothed primal.

The nonsmooth worst-query objective is smoothed by Gaussian convolution,
whose stochastic gradient is (a sign flip of) the workload row maximizing
the noisy score <q, emp - d + xi>.  Each iteration blends an aggregate and a
current iterate into a midpoint, queries the oracle there, and takes an
entropic composite prox step

    d_{t+1} = argmin over the simplex of
              eta_t <g_t, d> + alpha [eta_t H(d) + (sum of past eta) KL(d, d_t)]

followed by the matching aggregate update.  The Gaussian noise in the oracle
is what makes the run private; its scale is calibrated through the Renyi
accounting in ``mechanisms``.
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
    empirical,
    new_simplex,
    uniform,
)
from .entropy import composite_prox
from .errors import DegenerateSchedule, ValidationError
from .mechanisms import AMSchedule, NoiseStream, dpam_schedule, noise_rows
from .objective import WidthEstimate, gaussian_width, max_query_error, smoothed_gradient_oracle
from .report import RunReport

WIDTH_SAMPLES = 1000


def run_dpam(
    data: Dataset,
    workload: QueryWorkload,
    alpha,
    rng: NoiseStream,
    schedule: AMSchedule,
) -> tuple[SimplexVector, np.ndarray]:
    """Run the private mirror-descent solver on a calibrated schedule.

    Returns (distribution, the row the oracle picked at each iteration).
    The prox step runs the step rule on the alpha-normalized objective,
    scaling both the entropy and divergence weights by alpha so the
    effective step on the gradient is of order 2/(alpha t), the right scale
    for an alpha-strongly-convex composite.  The oracle noise is one
    N(0, sigma^2) row of k values per iteration, from ``noise_rows`` on the
    "oracle" substream.  Only the returned aggregate is validated, and a
    non-finite one raises DegenerateSchedule; so does, before the first
    iteration, an alpha whose prox weights alpha * (sum of eta_t) overflow.
    A schedule with sigma = 0 makes the oracle the exact subgradient; such a
    run is not private.
    """
    a = as_alpha(alpha)
    t_total = schedule.T
    if not math.isfinite(a * (t_total * (t_total + 1) / 2 + t_total * schedule.eta_offset)):
        raise DegenerateSchedule(f"alpha * sum of eta overflows at alpha={a}")
    k = workload.k
    emp = empirical(data, k).values
    noise = noise_rows(rng.substream("oracle").gaussian, schedule.sigma, t_total, k)

    current = uniform(k).values
    aggregate = current.copy()
    eta_cum = 0.0
    picked = np.empty(t_total, dtype=np.int64)

    for t, xi in enumerate(noise, 1):
        eta_t = schedule.eta(t)
        denom = eta_cum + eta_t
        midpoint = (eta_cum / denom) * aggregate + (eta_t / denom) * current
        g, picked[t - 1] = smoothed_gradient_oracle(midpoint, emp, workload, xi)
        current = composite_prox(g, current, eta_t, eta_t * a, eta_cum * a)
        aggregate = (eta_cum / denom) * aggregate + (eta_t / denom) * current
        eta_cum = denom

    if not np.isfinite(aggregate).all():
        raise DegenerateSchedule(f"DPAM aggregate is not finite at alpha={a}")
    return new_simplex(aggregate), picked


def optimal_alpha(budget: PrivacyBudget, width: float, k: int, n: int) -> float:
    """Regularization strength minimizing the DPAM error bound.

        alpha* = sqrt(log(1/delta)) sqrt(width) / (log^{3/4}(k) sqrt(n eps))
    """
    if k < 2:
        raise ValidationError(f"need k >= 2, got {k}")
    if width <= 0.0 or n < 1:
        raise ValidationError(f"need width > 0 and n >= 1, got {width}, {n}")
    log_delta = math.log(1.0 / budget.delta)
    return math.sqrt(log_delta * width) / (math.log(k) ** 0.75 * math.sqrt(n * budget.epsilon))


def regime_ok(width: float, budget: PrivacyBudget, k: int, n: int) -> bool:
    """Whether n is large enough for the smoothing term to be dominated.

    True iff n >= width^3 log(1/delta) / (eps log^{3/2} k).  Reports carry a
    warning when this fails; the run itself proceeds either way.
    """
    if k < 2:
        raise ValidationError(f"need k >= 2, got {k}")
    if width <= 0.0:
        raise ValidationError(f"need width > 0, got {width}")
    threshold = width ** 3 * math.log(1.0 / budget.delta) / (
        budget.epsilon * math.log(k) ** 1.5
    )
    return n >= threshold


def release_dpam(
    data: Dataset,
    workload: QueryWorkload,
    budget: PrivacyBudget,
    rng: NoiseStream,
    alpha=None,
    schedule: AMSchedule | None = None,
    no_noise: bool = False,
    true_dist=None,
) -> RunReport:
    """Full DPAM pipeline: estimate the width, calibrate, solve, report.

    The Monte Carlo width estimate (not the unknown true width) feeds the
    iteration count, noise scale, and default regularization strength, and
    is recorded in the report together with the regime flag.  ``no_noise``
    runs the schedule with sigma = 0: the run is NOT private and the report
    is flagged accordingly.  Floating-point warnings are silenced: every
    non-finite outcome is refused with DegenerateSchedule instead.
    """
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        west: WidthEstimate = gaussian_width(workload, WIDTH_SAMPLES, rng.substream("width"))
        a = as_alpha(
            alpha if alpha is not None else optimal_alpha(budget, west.mean, workload.k, data.n)
        )
        if schedule is None:
            schedule = dpam_schedule(budget, a, west.mean, workload.k, data.n)
        if no_noise:
            schedule = replace(schedule, sigma=0.0)

        p_priv, _ = run_dpam(data, workload, a, rng, schedule)
        solved = time.perf_counter()
    emp = empirical(data, workload.k)
    return RunReport.of_release(
        algorithm="dpam", data=data, workload=workload, budget=budget, alpha=a, rng=rng,
        schedule=schedule, p_priv=p_priv,
        empirical_max_error=max_query_error(emp, p_priv, workload),
        population_max_error=(
            None if true_dist is None else max_query_error(true_dist, p_priv, workload)
        ),
        started=t0, solved=solved, width=west,
        regime_ok=regime_ok(west.mean, budget, workload.k, data.n),
    )
