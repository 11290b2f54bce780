"""Primal and dual objectives of the query-release saddle problem.

The primal objective of a candidate distribution d against a reference ref is
the worst signed query error max_q <q, ref - d>; maximizing a linear form
over the hull of the workload is exact on the m rows.  Entropy
regularization gives the strongly convex primal and its smooth concave dual

    primal_alpha(d) = max_q <q, ref - d> + alpha H(d)
    dual_alpha(q)   = <q, ref> - alpha logsumexp(q / alpha)

which share their optimal value.  Gaussian convolution smooths the primal:
phi_sigma(d) = E[phi(d + xi)] with xi ~ N(0, sigma^2 I) stays uniformly
within sigma * width(Q) of phi, and the row maximizing <q, ref - d + xi> is
(after a sign flip) an unbiased stochastic gradient of phi_sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import QueryWorkload, as_alpha, as_values
from .entropy import log_sum_exp, neg_entropy, softmax
from .errors import DimensionMismatch, ValidationError
from .mechanisms import NoiseStream

_MC_CHUNK = 1 << 15


def _mc_mean(samples: int, draw) -> tuple[float, float]:
    """(mean, stderr) of the values ``draw(chunk)`` returns, in chunks of at most _MC_CHUNK."""
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        chunk = min(_MC_CHUNK, samples - done)
        vals = draw(chunk)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += chunk
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, float(np.sqrt(var / samples))


def _check_dims(v: np.ndarray, w: QueryWorkload):
    if v.shape[0] != w.k:
        raise DimensionMismatch(f"vector of length {v.shape[0]} vs workload k={w.k}")


def max_query_error(ref, candidate, w: QueryWorkload) -> float:
    """Worst signed query error max over rows of <q, ref - candidate>.

    For workloads closed under negation this equals the worst absolute
    answer error.
    """
    rv = as_values(ref)
    cv = as_values(candidate)
    if rv.shape != cv.shape:
        raise DimensionMismatch(f"shape mismatch {rv.shape} vs {cv.shape}")
    diff = rv - cv
    _check_dims(diff, w)
    return float((w.queries @ diff).max())


def primal_objective(d, ref, w: QueryWorkload) -> float:
    """max over rows of <q, ref - d>; d may be any real vector (not just simplex)."""
    return max_query_error(ref, d, w)


def regularized_primal(d, ref, w: QueryWorkload, alpha) -> float:
    """primal_objective(d) plus alpha times the negative entropy of d."""
    a = as_alpha(alpha)
    return primal_objective(d, ref, w) + a * neg_entropy(d)


def regularized_dual(q, ref, alpha) -> float:
    """<q, ref> - alpha logsumexp(q / alpha); concave, 2-Lipschitz in q."""
    a = as_alpha(alpha, positive=True)
    qv = as_values(q)
    rv = as_values(ref)
    if qv.shape != rv.shape:
        raise DimensionMismatch(f"shape mismatch {qv.shape} vs {rv.shape}")
    return float(qv @ rv) - a * log_sum_exp(qv / a)


def empirical_dual_gradient(q, emp, alpha) -> np.ndarray:
    """Gradient of the regularized dual with the empirical reference plugged in.

    Equals emp - softmax(q / alpha); its coordinates sum to zero.
    """
    a = as_alpha(alpha, positive=True)
    qv = as_values(q)
    ev = as_values(emp)
    if qv.shape != ev.shape:
        raise DimensionMismatch(f"shape mismatch {qv.shape} vs {ev.shape}")
    return ev - softmax(qv / a).values


def frank_wolfe_gap(q, ref, alpha, w: QueryWorkload) -> float:
    """Linearized improvement max over rows s of <grad(q), s - q>.

    Nonnegative whenever q lies in the hull of the workload, and an upper
    bound on the dual suboptimality of q by concavity.
    """
    a = as_alpha(alpha, positive=True)
    qv = as_values(q)
    grad = as_values(ref) - softmax(qv / a).values
    _check_dims(grad, w)
    return float((w.queries @ grad).max() - grad @ qv)


class OracleDraw(NamedTuple):
    """One stochastic-gradient draw: the gradient, the noise used, the row picked."""

    gradient: np.ndarray
    noise: np.ndarray
    row: int


def smoothed_gradient_oracle(
    d,
    emp,
    w: QueryWorkload,
    sigma: float,
    rng: NoiseStream,
    zero_noise: bool = False,
) -> OracleDraw:
    """Stochastic gradient of the Gaussian-smoothed primal at d.

    Draws xi ~ N(0, sigma^2 I), scans the rows for the maximizer of
    <q, emp - d + xi>, and returns the negated winning row, a descent
    direction for the smoothed objective.  Ties (a null event for sigma > 0)
    resolve to the lowest row index.  ``zero_noise`` forces xi = 0, turning
    the oracle into the exact subgradient used by non-private debug runs.
    """
    if sigma <= 0.0:
        raise ValidationError(f"need sigma > 0, got {sigma}")
    dv = as_values(d)
    _check_dims(dv, w)
    if zero_noise:
        xi = np.zeros(w.k)
    else:
        xi = rng.gaussian(sigma, size=w.k)
    scores = w.queries @ (as_values(emp) - dv + xi)
    row = int(np.argmax(scores))
    return OracleDraw(gradient=-w.queries[row].copy(), noise=xi, row=row)


@dataclass(frozen=True)
class WidthEstimate:
    """Monte Carlo estimate of the Gaussian width of a workload."""

    mean: float
    stderr: float
    samples: int

    def __post_init__(self):
        if self.stderr < 0.0 or self.samples < 1:
            raise ValidationError("need stderr >= 0 and samples >= 1")


def gaussian_width(w: QueryWorkload, samples: int, rng: NoiseStream) -> WidthEstimate:
    """E[max over rows of <q, xi>] for standard normal xi, with its standard error."""
    if samples < 2:
        raise ValidationError(f"need samples >= 2, got {samples}")
    def draw(chunk):
        return (rng.gaussian(1.0, size=(chunk, w.k)) @ w.queries.T).max(axis=1)

    mean, stderr = _mc_mean(samples, draw)
    return WidthEstimate(mean=mean, stderr=stderr, samples=samples)


def smoothed_primal_mc(
    d,
    ref,
    w: QueryWorkload,
    sigma: float,
    samples: int,
    rng: NoiseStream,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of E[phi(d + xi)], xi ~ N(0, sigma^2 I).

    Diagnostic-only; nothing on the solver path calls this.
    """
    if sigma <= 0.0:
        raise ValidationError(f"need sigma > 0, got {sigma}")
    if samples < 2:
        raise ValidationError(f"need samples >= 2, got {samples}")
    dv = as_values(d)
    _check_dims(dv, w)
    base = w.queries @ (as_values(ref) - dv)
    def draw(chunk):
        return (base[None, :] - rng.gaussian(sigma, size=(chunk, w.k)) @ w.queries.T).max(axis=1)

    return _mc_mean(samples, draw)
