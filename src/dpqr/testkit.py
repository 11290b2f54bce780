"""Independent brute-force oracles for validating the analytic machinery.

Nothing on a solver path imports this module; it exists so tests can check
closed forms against slow, geometrically different computations: a projected
gradient method with Euclidean simplex projection for the composite prox,
and exhaustive simplex grids for the primal/dual optima at desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import QueryWorkload, SimplexVector, as_alpha, as_values, new_simplex
from .errors import GridTooLarge, NonConvergence, ValidationError

_GRID_CAP = 10_000_000
_EVAL_CHUNK = 1 << 16
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


def primal_grid_bound(grid: GridSpec, alpha) -> float:
    """Covering slack of the primal grid value over the true minimum.

    The worst-query term is 1-Lipschitz in l1 (contributes k/res); each
    entropy coordinate moves by at most delta (1 + log(1/delta)), summing to
    at most 2k (1 + log res) / res across the rounding of one point.
    """
    a = as_alpha(alpha)
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
    a = as_alpha(alpha)
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
    a = as_alpha(alpha, positive=True)
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
