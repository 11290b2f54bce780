"""Domain types: distributions on a finite universe, query workloads, datasets.

A universe of size k is identified with {0, ..., k-1}.  Distributions are
points of the probability simplex, queries are vectors in [-1, 1]^k, and a
workload is a finite collection of queries stacked as an m x k matrix.  All
types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidAlpha,
    InvalidParams,
    NegativeMass,
    NotNormalized,
    ValidationError,
)

# Absolute tolerance on the mass total; entries in [-NEG_TOL, 0) are treated
# as floating-point dust and clamped to zero before renormalizing.
SUM_TOL = 1e-9
NEG_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SimplexVector:
    """A probability distribution over the universe, stored densely."""

    values: np.ndarray

    @property
    def k(self) -> int:
        return self.values.shape[0]

    def __len__(self) -> int:
        return self.k


def new_simplex(values) -> SimplexVector:
    """Validate and normalize a nonnegative vector of total mass one.

    Raises NegativeMass if an entry is below -1e-12 and NotNormalized if the
    total differs from 1 by more than 1e-9.  Entries in [-1e-12, 0) are
    clamped to zero; the result is renormalized so it sums to one exactly.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError("expected a nonempty 1-d array of masses")
    if not np.all(np.isfinite(v)):
        raise ValidationError("masses must be finite")
    if np.any(v < -NEG_TOL):
        worst = float(v.min())
        raise NegativeMass(f"entry {worst} below tolerance {-NEG_TOL}")
    total = float(v.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise NotNormalized(f"mass sums to {total}, expected 1 within {SUM_TOL}")
    v = np.where(v < 0.0, 0.0, v)
    v = v / v.sum()
    return SimplexVector(_freeze(v))


def uniform(k: int) -> SimplexVector:
    """The uniform distribution on a universe of size k."""
    if k < 1:
        raise ValidationError(f"universe size must be >= 1, got {k}")
    return SimplexVector(_freeze(np.full(k, 1.0 / k)))


@dataclass(frozen=True)
class Dataset:
    """n observed universe elements, stored as integer indices."""

    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]


def new_dataset(points) -> Dataset:
    p = np.asarray(points, dtype=np.int64)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("expected a nonempty 1-d array of indices")
    if np.any(p < 0):
        raise IndexOutOfRange(f"negative index {int(p.min())}")
    return Dataset(_freeze(p))


def empirical(data: Dataset, k: int) -> SimplexVector:
    """Empirical distribution of a dataset over a universe of size k."""
    if k < 1:
        raise ValidationError(f"universe size must be >= 1, got {k}")
    pts = data.points
    if pts.size and int(pts.max()) >= k:
        raise IndexOutOfRange(f"index {int(pts.max())} outside universe of size {k}")
    counts = np.bincount(pts, minlength=k).astype(float)
    return SimplexVector(_freeze(counts / pts.size))


@dataclass(frozen=True)
class QueryWorkload:
    """m queries over a k-element universe, one row per query.

    The ``symmetric`` flag records that the row set is closed under negation,
    which turns signed max-error into absolute max-error.
    """

    queries: np.ndarray
    symmetric: bool = False

    @property
    def m(self) -> int:
        return self.queries.shape[0]

    @property
    def k(self) -> int:
        return self.queries.shape[1]


def new_workload(queries, symmetric: bool = False) -> QueryWorkload:
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
        raise ValidationError("expected a nonempty m x k query matrix")
    bad = ~np.isfinite(q) | (np.abs(q) > 1.0)
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), q.shape)
        raise ValidationError(
            f"query entry {q[i, j]} at row {i}, column {j} outside [-1, 1]"
        )
    return QueryWorkload(_freeze(q.copy()), symmetric)


def symmetrize(w: QueryWorkload) -> QueryWorkload:
    """Close a workload under negation, deduplicating exactly equal rows.

    Input rows keep their order and duplicates are dropped on first sight;
    missing negations are appended afterwards, again in input order.  A row
    equal to its own negation (all zeros) appears once.
    """
    def key(row: np.ndarray) -> bytes:
        # adding 0.0 sends -0.0 to +0.0 so byte keys agree with ==
        return (row + 0.0).tobytes()

    seen: set[bytes] = set()
    rows: list[np.ndarray] = []
    for row in w.queries:
        if key(row) not in seen:
            seen.add(key(row))
            rows.append(row)
    for row in list(rows):
        neg = -row + 0.0
        if key(neg) not in seen:
            seen.add(key(neg))
            rows.append(neg)
    return QueryWorkload(_freeze(np.array(rows)), symmetric=True)


def _closed_under_negation(q: np.ndarray) -> bool:
    """Whether the negation of every row is also a row (checked, not trusted)."""

    def keys(rows: np.ndarray) -> set[bytes]:
        # one byte key per row, as in symmetrize; adding 0.0 sends -0.0 to +0.0
        rows = np.ascontiguousarray(rows + 0.0)
        return set(rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist())

    return keys(q) == keys(-q)


def _scan_d1(q: np.ndarray) -> float:
    """Largest computed l1 distance between two rows, by a pairwise scan."""
    m = q.shape[0]
    d1 = 0.0
    # chunk the pairwise scan to bound memory on large workloads
    step = max(1, int(2_000_000 / max(1, m * q.shape[1])))
    for lo in range(0, m, step):
        block = q[lo : lo + step]
        diff = np.abs(block[:, None, :] - q[None, :, :])
        d1 = max(d1, float(diff.sum(axis=2).max()))
    return d1


def diameters(w: QueryWorkload) -> tuple[float, float]:
    """Exact l1 and l-infinity diameters of the query set.

    Both norms attain the diameter of the convex hull at vertex pairs, and
    the results are bit-identical to a floating-point scan over all row
    pairs.  The l-infinity diameter is the largest column range: rounded
    subtraction is monotone, so no pair beats a column's max and min rows.
    For rows with entries in {-1, 0, 1} (so every sum is exact) that are
    closed under negation (checked on the rows, whatever the ``symmetric``
    flag says), the l1 diameter is 2 max ||q||_1: the triangle inequality
    bounds every pair by it and (q, -q) attains it.  Other workloads scan
    all pairs.
    """
    q = w.queries
    dinf = float(np.ptp(q, axis=0).max()) + 0.0  # + 0.0: -0.0 reads as 0.0
    if np.array_equal(q, np.rint(q)) and _closed_under_negation(q):
        return 2.0 * float(np.abs(q).sum(axis=1).max()), dinf
    return _scan_d1(q), dinf


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy budget."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise InvalidParams(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidParams(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class DualPoint:
    """A point of the workload's convex hull, optionally with hull weights."""

    vector: np.ndarray
    weights: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.vector.shape[0]


def new_dual_point(vector, weights=None) -> DualPoint:
    v = np.asarray(vector, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError("expected a nonempty 1-d dual vector")
    if np.any(np.abs(v) > 1.0 + SUM_TOL):
        raise ValidationError(f"dual vector entry {float(np.abs(v).max())} outside [-1, 1]")
    wts = None
    if weights is not None:
        wts = np.asarray(weights, dtype=float)
        if np.any(wts < -NEG_TOL):
            raise NegativeMass("hull weights must be nonnegative")
        if abs(float(wts.sum()) - 1.0) > SUM_TOL:
            raise NotNormalized(f"hull weights sum to {float(wts.sum())}")
        wts = _freeze(np.where(wts < 0.0, 0.0, wts))
    return DualPoint(_freeze(v.copy()), wts)


def hull_residual(q: DualPoint, w: QueryWorkload) -> float:
    """Max-coordinate gap between q.vector and its hull-weight reconstruction."""
    if q.weights is None:
        raise ValidationError("dual point carries no hull weights")
    if q.weights.shape[0] != w.m:
        raise DimensionMismatch(f"{q.weights.shape[0]} weights for {w.m} rows")
    recon = q.weights @ w.queries
    return float(np.abs(recon - q.vector).max())


@dataclass(frozen=True)
class RegParam:
    """Entropy-regularization strength; zero disables regularization."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha >= 0.0 and np.isfinite(self.alpha)):
            raise InvalidAlpha(f"alpha must be a finite nonnegative real, got {self.alpha}")


def as_alpha(value, positive: bool = False) -> float:
    """Coerce a RegParam or bare float; optionally require strict positivity."""
    a = value.alpha if isinstance(value, RegParam) else float(value)
    if not np.isfinite(a) or a < 0.0:
        raise InvalidAlpha(f"alpha must be a finite nonnegative real, got {a}")
    if positive and a == 0.0:
        raise InvalidAlpha("alpha must be strictly positive here")
    return a


def as_values(x) -> np.ndarray:
    """Accept a SimplexVector, DualPoint, or raw array; return the ndarray."""
    if isinstance(x, SimplexVector):
        return x.values
    if isinstance(x, DualPoint):
        return x.vector
    return np.asarray(x, dtype=float)
