"""Domain types: distributions on a finite universe, query workloads, datasets.

A universe of size k is identified with {0, ..., k-1}.  Distributions are
points of the probability simplex, queries are vectors in [-1, 1]^k, and a
workload is a finite collection of queries stacked as an m x k matrix.  All
types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

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


def new_simplex(values) -> SimplexVector:
    """Validate and normalize a nonnegative vector of total mass one.

    Raises ValidationError if an entry is below -1e-12 or the total
    differs from 1 by more than 1e-9.  Entries in [-1e-12, 0) are
    clamped to zero; the result is renormalized so it sums to one exactly.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError("expected a nonempty 1-d array of masses")
    if not np.all(np.isfinite(v)):
        raise ValidationError("masses must be finite")
    if np.any(v < -NEG_TOL):
        worst = float(v.min())
        raise ValidationError(f"entry {worst} below tolerance {-NEG_TOL}")
    total = float(v.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"mass sums to {total}, expected 1 within {SUM_TOL}")
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
        raise ValidationError(f"negative index {int(p.min())}")
    return Dataset(_freeze(p))


def empirical(data: Dataset, k: int) -> SimplexVector:
    """Empirical distribution of a dataset over a universe of size k."""
    if k < 1:
        raise ValidationError(f"universe size must be >= 1, got {k}")
    pts = data.points
    if pts.size and int(pts.max()) >= k:
        raise ValidationError(f"index {int(pts.max())} outside universe of size {k}")
    counts = np.bincount(pts, minlength=k).astype(float)
    return SimplexVector(_freeze(counts / pts.size))


def _row_keys(rows: np.ndarray, negate: bool = False) -> Iterator[bytes]:
    """Byte key per row (of -rows if negate), ~1 MiB of rows at a time; + 0.0 maps -0.0 to 0.0."""
    step = max(1, (1 << 17) // max(1, rows.shape[1]))
    for lo in range(0, rows.shape[0], step):
        block = np.ascontiguousarray((-1.0 if negate else 1.0) * rows[lo : lo + step] + 0.0)
        yield from block.view(f"V{block.itemsize * block.shape[1]}").ravel().tolist()


@dataclass(frozen=True)
class QueryWorkload:
    """m queries over a k-element universe, one row per query."""

    queries: np.ndarray

    @property
    def m(self) -> int:
        return self.queries.shape[0]

    @property
    def k(self) -> int:
        return self.queries.shape[1]

    @cached_property
    def symmetric(self) -> bool:
        """Whether the row set is closed under negation, which turns signed
        max-error into absolute max-error.

        Computed from the rows on first use and cached: computing it at
        construction would hold the keys of a large workload while the
        caller's temporaries are still alive.
        """
        keys = set(_row_keys(self.queries))
        return all(key in keys for key in _row_keys(self.queries, negate=True))


def new_workload(queries) -> QueryWorkload:
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
        raise ValidationError("expected a nonempty m x k query matrix")
    bad = ~((q >= -1.0) & (q <= 1.0))  # also flags NaN and infinities
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), q.shape)
        raise ValidationError(
            f"query entry {q[i, j]} at row {i}, column {j} outside [-1, 1]"
        )
    return QueryWorkload(_freeze(q.copy()))


def symmetrize(w: QueryWorkload) -> QueryWorkload:
    """Close a workload under negation, deduplicating exactly equal rows.

    Input rows keep their order and duplicates are dropped on first sight;
    missing negations are appended afterwards, again in input order.  A row
    equal to its own negation (all zeros) appears once.
    """
    first: dict[bytes, int] = {}
    for i, key in enumerate(_row_keys(w.queries)):
        first.setdefault(key, i)
    absent = [key not in first for key in _row_keys(w.queries, negate=True)]
    keep = list(first.values())
    out = w.queries[keep + [i for i in keep if absent[i]]]
    np.subtract(0.0, out[len(keep) :], out=out[len(keep) :])  # = -q + 0.0, so no -0.0
    return QueryWorkload(_freeze(out))


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
    closed under negation (``w.symmetric``), the l1 diameter is
    2 max ||q||_1: the triangle inequality bounds every pair by it and
    (q, -q) attains it.  Other workloads scan all pairs.
    """
    q = w.queries
    dinf = float(np.ptp(q, axis=0).max()) + 0.0  # + 0.0: -0.0 reads as 0.0
    if w.symmetric and np.array_equal(q, np.rint(q)):
        return 2.0 * float(np.abs(q).sum(axis=1).max()), dinf
    return _scan_d1(q), dinf


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy budget."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta}")


def as_alpha(value) -> float:
    """Coerce alpha to a float and require it finite and positive."""
    a = float(value)
    if not (0.0 < a < math.inf):
        raise ValidationError(f"alpha must be finite and positive, got {a}")
    return a


def as_values(x) -> np.ndarray:
    """Accept a SimplexVector or raw array; return the ndarray."""
    if isinstance(x, SimplexVector):
        return x.values
    return np.asarray(x, dtype=float)
