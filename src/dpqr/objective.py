"""Primal and dual objectives of the query-release saddle problem.

The primal objective of a candidate distribution d against a reference ref is
the worst signed query error max_q <q, ref - d>; maximizing a linear form
over the hull of the workload is exact on the m rows.  Entropy
regularization gives the strongly convex primal and its smooth concave dual

    primal_alpha(d) = max_q <q, ref - d> + alpha H(d)
    dual_alpha(q)   = <q, ref> - alpha logsumexp(q / alpha)

which share their optimal value (the tests evaluate both, from
``tests/testkit.py``; the solvers need only the dual's gradient).  Gaussian
convolution smooths the primal: phi_sigma(d) = E[phi(d + xi)] with
xi ~ N(0, sigma^2 I) stays uniformly within sigma * width(Q) of phi, and the
row maximizing <q, ref - d + xi> is (after a sign flip) an unbiased
stochastic gradient of phi_sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import QueryWorkload, as_alpha, as_values
from .entropy import softmax
from .errors import ValidationError
from .mechanisms import NoiseStream


def _check_dims(v: np.ndarray, w: QueryWorkload):
    if v.shape[0] != w.k:
        raise ValidationError(f"vector of length {v.shape[0]} vs workload k={w.k}")


def max_query_error(ref, candidate, w: QueryWorkload) -> float:
    """Worst signed query error max over rows of <q, ref - candidate>.

    For workloads closed under negation this equals the worst absolute
    answer error.
    """
    rv = as_values(ref)
    cv = as_values(candidate)
    if rv.shape != cv.shape:
        raise ValidationError(f"shape mismatch {rv.shape} vs {cv.shape}")
    diff = rv - cv
    _check_dims(diff, w)
    return float((w.queries @ diff).max())


def frank_wolfe_gap(q, ref, alpha, w: QueryWorkload) -> float:
    """Linearized improvement max over rows s of <grad(q), s - q>.

    Nonnegative whenever q lies in the hull of the workload, and an upper
    bound on the dual suboptimality of q by concavity.
    """
    a = as_alpha(alpha)
    qv = as_values(q)
    grad = as_values(ref) - softmax(qv / a)
    _check_dims(grad, w)
    return float((w.queries @ grad).max() - grad @ qv)


def smoothed_gradient_oracle(d, emp, w: QueryWorkload, xi) -> tuple[np.ndarray, int]:
    """Stochastic gradient of the Gaussian-smoothed primal at d.

    ``xi`` is the oracle's noise row, one N(0, sigma^2) value per coordinate
    of d, and must have d's shape.  It does not depend on the data, so a
    caller may draw it ahead of the scan (DPAM takes it from
    ``mechanisms.noise_rows``).  Scans the rows for the maximizer of <q, emp - d + xi> and
    returns (the negated winning row, its index): the row is a descent
    direction for the smoothed objective.  Ties (a null event for sigma > 0)
    resolve to the lowest row index.  A row of zeros (sigma = 0) makes the
    oracle the exact subgradient of a non-private run.
    """
    dv = as_values(d)
    _check_dims(dv, w)
    if np.shape(xi) != dv.shape:
        raise ValidationError(f"noise shape {np.shape(xi)} differs from d {dv.shape}")
    row = int(w.scan(as_values(emp) - dv + xi).argmax())
    return -w.queries[row], row


@dataclass(frozen=True)
class WidthEstimate:
    """Monte Carlo estimate of the Gaussian width of a workload."""

    mean: float
    stderr: float
    samples: int


def gaussian_width(w: QueryWorkload, samples: int, rng: NoiseStream) -> WidthEstimate:
    """E[max over rows of <q, xi>] for standard normal xi, with its standard error."""
    if samples < 2:
        raise ValidationError(f"need samples >= 2, got {samples}")
    # ~1 MiB of products at a time; the stream reads one sequence, so the
    # draws do not depend on the step
    step = max(1, (1 << 17) // w.m)
    vals = np.concatenate([
        (rng.gaussian(1.0, size=(min(step, samples - lo), w.k)) @ w.queries.T).max(axis=1)
        for lo in range(0, samples, step)
    ])
    mean = float(vals.sum()) / samples
    var = max(0.0, (float((vals * vals).sum()) - samples * mean * mean) / (samples - 1))
    return WidthEstimate(mean=mean, stderr=float(np.sqrt(var / samples)), samples=samples)
