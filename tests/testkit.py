"""Independent brute-force oracles and reference objectives for the tests.

Nothing in ``dpqr`` imports this module; it exists so tests can check
closed forms against slow, geometrically different computations: a projected
gradient method with Euclidean simplex projection for the composite prox,
and exhaustive simplex grids for the primal/dual optima at desk scale.  It
also holds the entropy-regularized primal and dual objectives, and the
gradient of the dual, which those checks evaluate and no release computes,
together with the entropy functionals, the Monte Carlo smoothed primal, the
Frank-Wolfe gap replay, the distribution writer that only tests call, and
the per-line dataset writer that the vectorized one must match byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from dpqr.cli import _write_json
from dpqr.core import (
    Dataset, QueryWorkload, SimplexVector, as_alpha, as_values, empirical, new_simplex,
)
from dpqr.entropy import softmax
from dpqr.errors import ValidationError
from dpqr.mechanisms import FWSchedule, NoiseStream
from dpqr.objective import _check_dims, frank_wolfe_gap, max_query_error


class GridTooLarge(ValidationError):
    """A simplex grid would exceed the enumeration cap."""


class NonConvergence(RuntimeError):
    """An iterative oracle exhausted its iteration budget."""


_GRID_CAP = 10_000_000
_EVAL_CHUNK = 1 << 16
_MC_CHUNK = 1 << 15
# iterate floor used only inside gradient evaluations; the objective itself
# is finite at exact zeros (0 log 0 = 0)
_GRAD_FLOOR = 1e-18


@dataclass(frozen=True)
class GridSpec:
    """Resolution (points per simplex edge) and dimension of a simplex grid."""

    resolution: int
    k: int

    def __post_init__(self):
        if self.resolution < 10:
            raise ValidationError(f"need resolution >= 10, got {self.resolution}")
        if self.k < 1 or self.k > 4:
            raise ValidationError(f"grid dimension capped at 4, got {self.k}")
        if self.size > _GRID_CAP:
            raise GridTooLarge(f"{self.size} grid points exceed cap {_GRID_CAP}")

    @property
    def size(self) -> int:
        return math.comb(self.resolution + self.k - 1, self.k - 1)

    @property
    def l1_bound(self) -> float:
        """Every simplex point is within this l1 distance of a grid point."""
        return self.k / self.resolution


def simplex_grid(spec: GridSpec) -> np.ndarray:
    """All distributions with masses that are multiples of 1/resolution."""
    n, k = spec.resolution, spec.k
    if k == 1:
        return np.ones((1, 1))
    # compositions of n into k parts via divider positions
    dividers = np.array(
        list(itertools.combinations(range(n + k - 1), k - 1)), dtype=np.int64
    )
    bounded = np.hstack(
        [
            np.full((dividers.shape[0], 1), -1, dtype=np.int64),
            dividers,
            np.full((dividers.shape[0], 1), n + k - 1, dtype=np.int64),
        ]
    )
    parts = np.diff(bounded, axis=1) - 1
    return parts.astype(float) / n


def _prox_objective(d: np.ndarray, g, log_anchor, A, B, C) -> float:
    pos = d > 0.0
    dp = d[pos]
    ent = float(np.sum(dp * np.log(dp)))
    kl = ent - float(np.sum(dp * log_anchor[pos]))
    return float(A * (g @ d)) + B * ent + C * kl


def _prox_gradient(d: np.ndarray, g, log_anchor, A, B, C) -> np.ndarray:
    logs = np.log(np.maximum(d, _GRAD_FLOOR))
    return A * g + B * (1.0 + logs) + C * (1.0 + logs - log_anchor)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.shape[0] + 1)
    cond = u - css / idx > 0
    rho = int(idx[cond][-1])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def brute_force_prox(g, anchor, A: float, B: float, C: float, iters: int = 50_000) -> SimplexVector:
    """Numerically minimize A <g, d> + B H(d) + C KL(d, anchor) on the simplex.

    Takes the arguments of ``entropy.composite_prox`` and assumes they pass
    its checks (B + C > 0, a strictly positive anchor of g's shape).
    Projected gradient descent with Armijo backtracking from the uniform
    start, stopping once the objective stagnates below 1e-12 for several
    consecutive accepted steps.  The Euclidean geometry keeps this oracle
    independent of the entropic closed form it is used to validate.
    """
    g = np.asarray(g, dtype=float)
    coefs = (g, np.log(as_values(anchor)), A, B, C)
    k = g.shape[0]
    d = np.full(k, 1.0 / k)
    f = _prox_objective(d, *coefs)
    best_d, best_f = d, f
    step = 1.0
    stall = 0
    for _ in range(iters):
        grad = _prox_gradient(d, *coefs)
        accepted = False
        while step > 1e-18:
            cand = project_simplex(d - step * grad)
            f_cand = _prox_objective(cand, *coefs)
            if f_cand <= f + 1e-4 * float(grad @ (cand - d)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return new_simplex(best_d)
        d, f = cand, f_cand
        if f < best_f - 1e-12:
            best_d, best_f = d, f
            stall = 0
        else:
            stall += 1
            if stall >= 50:
                return new_simplex(best_d)
        step = min(step * 2.0, 1e6)
    raise NonConvergence(f"prox oracle did not stagnate within {iters} iterations")


def _alpha_or_zero(alpha) -> float:
    """alpha as a float; the primal references also take alpha = 0 (no entropy term)."""
    a = float(alpha)
    if not (0.0 <= a < math.inf):
        raise ValidationError(f"alpha must be finite and nonnegative, got {a}")
    return a


def primal_grid_bound(grid: GridSpec, alpha) -> float:
    """Covering slack of the primal grid value over the true minimum.

    The worst-query term is 1-Lipschitz in l1 (contributes k/res); each
    entropy coordinate moves by at most delta (1 + log(1/delta)), summing to
    at most 2k (1 + log res) / res across the rounding of one point.
    """
    a = _alpha_or_zero(alpha)
    res, k = grid.resolution, grid.k
    return k / res + a * 2.0 * k * (1.0 + math.log(res)) / res


def dual_grid_bound(grid: GridSpec) -> float:
    """Covering slack of the hull-weight grid value under the true maximum.

    The dual is 2-Lipschitz in the sup norm of q and moving weights by l1
    distance m/res moves q by at most that much in sup norm.
    """
    return 2.0 * grid.k / grid.resolution


def grid_min_primal(ref, w: QueryWorkload, alpha, grid: GridSpec) -> tuple[SimplexVector, float]:
    """Exhaustive minimizer of the entropy-regularized primal over a simplex grid."""
    a = _alpha_or_zero(alpha)
    if grid.k != w.k:
        raise ValidationError(f"grid dimension {grid.k} vs workload k={w.k}")
    rv = as_values(ref)
    points = simplex_grid(grid)
    best_val = np.inf
    best_idx = -1
    for lo in range(0, points.shape[0], _EVAL_CHUNK):
        block = points[lo : lo + _EVAL_CHUNK]
        gaps = ((rv[None, :] - block) @ w.queries.T).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(block > 0.0, block * np.log(np.maximum(block, 1e-300)), 0.0).sum(axis=1)
        vals = gaps + a * ent
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_idx = lo + i
    return new_simplex(points[best_idx]), best_val


def grid_max_dual(ref, w: QueryWorkload, alpha, grid: GridSpec) -> tuple[np.ndarray, float]:
    """Exhaustive maximizer of the regularized dual over hull-weight grids.

    The hull of the workload is parameterized by convex weights on its rows,
    so the grid lives on the m-dimensional simplex.  Returns the maximizing
    weights and the dual value; the dual vector is ``weights @ w.queries``.
    """
    a = as_alpha(alpha)
    if grid.k != w.m:
        raise ValidationError(f"grid dimension {grid.k} vs workload m={w.m}")
    rv = as_values(ref)
    weights = simplex_grid(grid)
    best_val = -np.inf
    best_idx = -1
    for lo in range(0, weights.shape[0], _EVAL_CHUNK):
        block = weights[lo : lo + _EVAL_CHUNK]
        q = block @ w.queries
        scaled = q / a
        top = scaled.max(axis=1, keepdims=True)
        lse = top[:, 0] + np.log(np.exp(scaled - top).sum(axis=1))
        vals = q @ rv - a * lse
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_idx = lo + i
    return weights[best_idx], best_val


def neg_entropy(d) -> float:
    """sum d(z) log d(z), with the 0 log 0 = 0 convention.  In [-log k, 0]."""
    v = as_values(d)
    pos = v > 0.0
    return float(np.sum(v[pos] * np.log(v[pos])))


def log_sum_exp(y) -> float:
    """log sum_j exp(y_j), computed stably by max subtraction."""
    v = np.asarray(y, dtype=float)
    if v.size == 0:
        raise ValidationError("log_sum_exp of an empty array")
    top = float(v.max())
    if not np.isfinite(top):
        return top
    return top + float(np.log(np.sum(np.exp(v - top))))


def kl_divergence(d, anchor) -> float:
    """KL(d || anchor) = sum d(z) log(d(z)/anchor(z)); nonnegative."""
    dv = as_values(d)
    av = as_values(anchor)
    if dv.shape != av.shape:
        raise ValidationError(f"shape mismatch {dv.shape} vs {av.shape}")
    pos = dv > 0.0
    if np.any(av[pos] == 0.0):
        raise ValidationError("anchor has zero mass where d does not")
    return float(np.sum(dv[pos] * (np.log(dv[pos]) - np.log(av[pos]))))


def primal_objective(d, ref, w: QueryWorkload) -> float:
    """max over rows of <q, ref - d>; d may be any real vector (not just simplex)."""
    return max_query_error(ref, d, w)


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


def fw_gaps(
    data: Dataset, workload: QueryWorkload, alpha, schedule: FWSchedule, rows
) -> np.ndarray:
    """Frank-Wolfe gap, against the empirical distribution, of every DPFW iterate.

    ``rows`` are the selections ``run_dpfw`` returns.  The replay repeats
    the solver's update from q_0 = rows[0], so its iterates, and hence the
    gaps, are the solver's own bit for bit.
    """
    emp = empirical(data, workload.k).values
    q = workload.queries[0].copy()
    gaps = np.empty(len(rows))
    for t, i in enumerate(rows):
        gaps[t] = frank_wolfe_gap(q, emp, alpha, workload)
        q += schedule.gamma * (workload.queries[i] - q)
    return gaps


def save_distribution(p: SimplexVector, path: str):
    _write_json({"k": p.k, "values": [float(x) for x in p.values]}, path)


def save_dataset_lines(data: Dataset, k: int, path: str):
    """Dataset writer by one formatted line per point: the reference for cli.save_dataset."""
    with open(path, "w", newline="") as fh:
        fh.write(f"k={k}\n")
        fh.writelines(f"{z}\n" for z in data.points.tolist())


def regularized_primal(d, ref, w: QueryWorkload, alpha) -> float:
    """primal_objective(d) plus alpha times the negative entropy of d."""
    a = _alpha_or_zero(alpha)
    return primal_objective(d, ref, w) + a * neg_entropy(d)


def regularized_dual(q, ref, alpha) -> float:
    """<q, ref> - alpha logsumexp(q / alpha); concave, 2-Lipschitz in q."""
    a = as_alpha(alpha)
    qv = as_values(q)
    rv = as_values(ref)
    if qv.shape != rv.shape:
        raise ValidationError(f"shape mismatch {qv.shape} vs {rv.shape}")
    return float(qv @ rv) - a * log_sum_exp(qv / a)


def empirical_dual_gradient(q, emp, alpha) -> np.ndarray:
    """Gradient of the regularized dual with the empirical reference plugged in.

    Equals emp - softmax(q / alpha); its coordinates sum to zero.
    """
    a = as_alpha(alpha)
    qv = as_values(q)
    ev = as_values(emp)
    if qv.shape != ev.shape:
        raise ValidationError(f"shape mismatch {qv.shape} vs {ev.shape}")
    return ev - softmax(qv / a)
