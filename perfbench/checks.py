"""Correctness checks computed by the benchmark itself, apart from dpqr.

Every check recomputes its reference value with plain numpy and the formulas
written out here, so a fault in a dpqr helper cannot hide a fault in the
output it is compared with.
"""

from __future__ import annotations

import math

import numpy as np

# Reported query answers and errors are compared after independent
# recomputation; both sides are sums of at most k products of floats in [-1, 1].
ANSWER_TOL = 1e-12
# Spent epsilon may exceed the budget by this factor (rounding in the formulas).
BUDGET_SLACK = 1e-6
DPAM_SLOPE_BAND = (-0.65, -0.35)


class Checks:
    """Named pass/fail verdicts, accumulated over a run."""

    def __init__(self):
        self.verdicts: dict[str, bool] = {}

    def record(self, name: str, ok: bool):
        self.verdicts[name] = self.verdicts.get(name, True) and bool(ok)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def is_symmetric(queries: np.ndarray) -> bool:
    """Whether the row set is closed under negation (so D1 = 2 max ||q||_1)."""
    rows = {(r + 0.0).tobytes() for r in queries}
    return all((-r + 0.0).tobytes() in rows for r in queries)


def empirical_from_points(points: np.ndarray, k: int) -> np.ndarray:
    return np.bincount(points, minlength=k) / points.shape[0]


def spent_epsilon(report: dict, queries: np.ndarray, n: int, delta: float) -> float:
    """Epsilon spent by a release, recomputed from its reported schedule.

    DPFW: T Report Noisy Max steps, each (D1 / (n lam))-DP with
    D1 = 2 max ||q||_1, under advanced composition 4 e sqrt(2 T log(1/delta)).
    DPAM: T Gaussian steps of l2 sensitivity sqrt(2)/n at Renyi order
    beta* = 1 + sqrt(log(1/delta) / T) n sigma, converted to (eps, delta).
    """
    log_d = math.log(1.0 / delta)
    sched = report["schedule"]
    t = int(sched["T"])
    if report["algorithm"] == "dpfw":
        d1 = 2.0 * float(np.abs(queries).sum(axis=1).max())
        eps_step = d1 / (n * float(sched["lam"]))
        return 4.0 * eps_step * math.sqrt(2.0 * t * log_d)
    sigma = float(sched["sigma"])
    beta = 1.0 + math.sqrt(log_d / t) * n * sigma
    sens = math.sqrt(2.0) / n
    rdp = t * beta * sens ** 2 / (2.0 * sigma ** 2)
    return rdp + log_d / (beta - 1.0)


def check_release(
    checks: Checks,
    algorithm: str,
    report: dict,
    queries: np.ndarray,
    points: np.ndarray,
    epsilon: float,
    delta: float,
    target: np.ndarray | None = None,
) -> np.ndarray:
    """Record the verdicts of one release; returns its p_priv."""
    p = np.asarray(report["p_priv"], dtype=float)
    n = points.shape[0]
    emp = empirical_from_points(points, queries.shape[1])
    checks.record(
        "inputs echoed (algorithm, k, m, n, eps, delta)",
        report["algorithm"] == algorithm
        and report["k"] == queries.shape[1]
        and report["m"] == queries.shape[0]
        and report["n"] == n
        and report["epsilon"] == epsilon
        and report["delta"] == delta,
    )
    checks.record(
        "p_priv finite, nonnegative, sums to 1 within 1e-9",
        p.shape == (queries.shape[1],)
        and bool(np.all(np.isfinite(p)))
        and float(p.min()) >= 0.0
        and abs(float(p.sum()) - 1.0) <= 1e-9,
    )
    answers = queries @ p
    reported = np.asarray(report["per_query_answers"], dtype=float)
    checks.record(
        "per_query_answers equal Q @ p_priv",
        reported.shape == answers.shape and float(np.abs(reported - answers).max()) <= ANSWER_TOL,
    )
    checks.record(
        "empirical_max_error equals max Q @ (bincount/n - p_priv)",
        abs(float(report["empirical_max_error"]) - float((queries @ (emp - p)).max())) <= ANSWER_TOL,
    )
    if target is not None:
        pop = report.get("population_max_error")
        checks.record(
            "population_max_error equals max Q @ (target - p_priv)",
            pop is not None and abs(float(pop) - float((queries @ (target - p)).max())) <= ANSWER_TOL,
        )
    spent = spent_epsilon(report, queries, n, delta)
    checks.record(
        f"budget closes ({algorithm}: spent eps <= eps (1 + 1e-6))",
        spent <= epsilon * (1.0 + BUDGET_SLACK),
    )
    return p


def loglog_slope(ns, errors) -> float:
    """Least-squares slope of log(error) on log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def check_sample(checks: Checks, points: np.ndarray, k: int, count: int, p: np.ndarray):
    """A synthetic sample has the asked size and follows p (6-sigma per cell)."""
    ok = points.shape == (count,) and int(points.min()) >= 0 and int(points.max()) < k
    if ok:
        freq = np.bincount(points, minlength=k) / count
        limit = 6.0 * np.sqrt(p * (1.0 - p) / count) + 1.0 / count
        ok = bool(np.all(np.abs(freq - p) <= limit))
    checks.record("sample has the asked size and follows p_priv (6 sigma)", ok)
