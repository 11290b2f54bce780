"""Seeded noise sources, private selection, and privacy calibration.

Noise is drawn from streams keyed by (seed, label): each stream owns one
generator, seeded from those two values on its first draw, and every draw
reads the next values from it.  Consumers that draw a different amount of
noise take their own substreams (distinct labels, independent generators), so
one consumer's draws never shift another's.  Laplace variates use the
inverse CDF of a single uniform draw, which is easy to audit and identical
across platforms.

Calibration covers both solvers: the Frank-Wolfe run is a chain of Report
Noisy Max selections composed under advanced composition, and the mirror
descent run is a chain of Gaussian mechanisms accounted in Renyi DP and
converted back to (epsilon, delta).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import PrivacyBudget, as_alpha
from .errors import DegenerateSchedule, HypothesisViolated, ValidationError

_MASK64 = (1 << 64) - 1
# iteration cap of both schedules; a capped schedule is flagged
MAX_T = 1_000_000
# keep inverse-CDF logs finite even on the measure-zero u = 0 draw
_LOG_FLOOR = 1e-300


class NoiseStream:
    """Deterministic noise source: one generator per (seed, label).

    Two streams with equal seed and label produce identical sequences over
    the same series of calls, and ``uniform(size=3)`` then ``uniform(size=5)``
    reads the same values as one ``uniform(size=8)``.  The generator is built
    on the first draw, so a stream that only derives substreams costs nothing.
    A stream is single-owner mutable state: it may be handed between threads
    but never shared concurrently.
    """

    def __init__(self, seed: int, label: str = "root"):
        self.seed = int(seed) & _MASK64
        self.label = label
        self._gen = None

    def substream(self, label: str) -> "NoiseStream":
        """An independent stream derived by extending the label."""
        return NoiseStream(self.seed, f"{self.label}/{label}")

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            # the seed's 8 bytes, the label's bytes and a closing 1: distinct
            # (seed, label) pairs never give the same integer
            key = self.seed.to_bytes(8, "little") + self.label.encode("utf-8") + b"\x01"
            ss = np.random.SeedSequence(int.from_bytes(key, "little"))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def uniform(self, size=None):
        return self._generator().random(size)

    def laplace(self, scale: float, size=None):
        """Centered Laplace draws by inverse CDF; scale 0 gives exact zeros."""
        if not (0.0 <= scale < math.inf):
            raise ValidationError(f"laplace scale must be finite and >= 0, got {scale}")
        u = self._generator().random(size)
        p = u - 0.5
        mag = np.log(np.maximum(1.0 - 2.0 * np.abs(p), _LOG_FLOOR))
        return -scale * np.sign(p) * mag

    def gaussian(self, sigma: float, size=None):
        if not (0.0 <= sigma < math.inf):
            raise ValidationError(f"gaussian scale must be finite and >= 0, got {sigma}")
        return self._generator().standard_normal(size) * sigma

    def integers(self, n: int, size=None):
        """Uniform draws from {0, ..., n-1}."""
        if n < 1:
            raise ValidationError(f"need n >= 1, got {n}")
        return self._generator().integers(0, n, size=size)

    def dirichlet(self, concentration, size=None):
        return self._generator().dirichlet(np.asarray(concentration, dtype=float), size=size)

    def __repr__(self):
        return f"NoiseStream(seed={self.seed}, label={self.label!r})"


def report_noisy_max(scores, noise) -> int:
    """Index of the largest score after adding its row of Laplace noise.

    ``noise`` holds one i.i.d. Laplace(scale) value per score, in row order,
    and must have the shape of ``scores``.  It does not depend on the data, so
    a caller may draw it ahead of the scores (DPFW draws a block of iterations
    at a time) and the mechanism is the same.  The selection is (R/scale)-DP
    when R bounds the range max_i ds_i - min_i ds_i of the per-row score
    change ds between neighbouring inputs: argmax is shift-invariant, so a
    per-score sensitivity bound L gives only R <= 2L.  Exact ties (certain at
    scale 0) resolve to the lowest index.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValidationError("expected a nonempty 1-d score array")
    if np.shape(noise) != s.shape:
        raise ValidationError(f"noise shape {np.shape(noise)} differs from scores {s.shape}")
    return int(np.argmax(s + noise))


@dataclass(frozen=True)
class FWSchedule:
    """Iteration count, step size, and per-score Laplace scale for one run."""

    T: int
    gamma: float
    lam: float
    capped: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise DegenerateSchedule(f"need T >= 1, got {self.T}")
        if not (0.0 < self.gamma <= 1.0):
            raise DegenerateSchedule(f"need 0 < gamma <= 1, got {self.gamma}")
        if not (0.0 <= self.lam < math.inf):
            raise DegenerateSchedule(f"need finite lam >= 0, got {self.lam}")


@dataclass(frozen=True)
class AMSchedule:
    """Iteration count, smoothing scale, and step-size rule for one run.

    eta(t) = t + eta_offset is strictly positive and nondecreasing; the
    offset is fixed by the regularization strength and smoothing scale at
    calibration time.  sigma = 0 turns the oracle noise off, as lam = 0 does
    for ``FWSchedule``; such a run is not private.
    """

    T: int
    sigma: float
    eta_offset: float
    capped: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise DegenerateSchedule(f"need T >= 1, got {self.T}")
        if not (0.0 <= self.sigma < math.inf):
            raise DegenerateSchedule(f"need finite sigma >= 0, got {self.sigma}")
        if not (0.0 < self.eta_offset < math.inf):
            raise DegenerateSchedule(f"need finite eta_offset > 0, got {self.eta_offset}")

    def eta(self, t: int) -> float:
        """Step weight for iteration t (1-based)."""
        return float(t) + self.eta_offset


def _iteration_count(t_raw: float) -> tuple[int, bool]:
    """(T, capped): t_raw floored, clamped to >= 1, and capped at ``MAX_T``."""
    if not math.isfinite(t_raw) or t_raw <= 0.0:
        raise DegenerateSchedule(f"iteration formula produced {t_raw}")
    t = max(1, math.floor(t_raw))
    return min(t, MAX_T), t > MAX_T


def dpfw_schedule(
    budget: PrivacyBudget,
    alpha,
    d1: float,
    dinf: float,
    m_queries: int,
    n: int,
    use_inf_diameter: bool = False,
) -> FWSchedule:
    """Calibrate the private Frank-Wolfe run to an (epsilon, delta) budget.

        T     = D^{3/2} eps n / (sqrt(32 alpha log(1/delta)) log(2 m))
        gamma = 2 sqrt(alpha / (T D_inf))
        lam   = 4 D_1 sqrt(2 T log(1/delta)) / (eps n)

    D is the l1 diameter by default; ``use_inf_diameter`` switches the
    iteration count to the l-infinity diameter, which balances the noise and
    curvature terms of the error bound and is much smaller for workloads
    closed under negation.  Privacy is unaffected: lam is always calibrated
    to the l1 diameter with the rounded T actually run.  D_1 / n bounds the
    ``report_noisy_max`` score-change range R: for z != z', a row pair's gap
    moves by at most (|(q_i - q_j)(z')| + |(q_i - q_j)(z)|) / n <= ||q_i - q_j||_1 / n.

    T is floored, clamped to >= 1 and capped at ``MAX_T``; gamma is clamped
    to <= 1 so the iterate update stays a convex combination.
    """
    a = as_alpha(alpha)
    if not (d1 > 0.0 and dinf > 0.0):
        raise DegenerateSchedule(f"diameters must be positive, got d1={d1}, dinf={dinf}")
    if m_queries < 1 or n < 1:
        raise ValidationError(f"need m >= 1 and n >= 1, got m={m_queries}, n={n}")
    base = dinf if use_inf_diameter else d1
    log_delta = math.log(1.0 / budget.delta)
    t_raw = (base ** 1.5) * budget.epsilon * n / (
        math.sqrt(32.0 * a * log_delta) * math.log(2.0 * m_queries)
    )
    t, capped = _iteration_count(t_raw)
    gamma = min(1.0, 2.0 * math.sqrt(a / (t * dinf)))
    lam = 4.0 * d1 * math.sqrt(2.0 * t * log_delta) / (budget.epsilon * n)
    return FWSchedule(T=t, gamma=gamma, lam=lam, capped=capped)


def dpam_schedule(
    budget: PrivacyBudget,
    alpha,
    width: float,
    k: int,
    n: int,
) -> AMSchedule:
    """Calibrate the private mirror-descent run to an (epsilon, delta) budget.

        T     = sqrt(log k / log(1/delta)) eps n / width
        sigma = 4 sqrt(T log(1/delta)) / (n eps)
        eta_t = t + sqrt(4 / (alpha sigma)) + 1

    T is floored, clamped to >= 1, and capped at ``MAX_T`` (flagged on the
    schedule so callers can surface a warning); sigma uses the T actually
    run, which is what the Renyi accounting consumes.
    """
    a = as_alpha(alpha)
    if not (width > 0.0):
        raise DegenerateSchedule(f"width must be positive, got {width}")
    if k < 2:
        raise ValidationError(f"need k >= 2, got {k}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    log_delta = math.log(1.0 / budget.delta)
    t_raw = math.sqrt(math.log(k) / log_delta) * budget.epsilon * n / width
    t, capped = _iteration_count(t_raw)
    sigma = 4.0 * math.sqrt(t * log_delta) / (n * budget.epsilon)
    if not sigma > 0.0:
        raise DegenerateSchedule(f"noise scale formula produced {sigma}")
    if not a * sigma > 0.0:
        raise DegenerateSchedule(f"alpha * sigma underflows to {a * sigma}")
    eta_offset = math.sqrt(4.0 / (a * sigma)) + 1.0
    return AMSchedule(T=t, sigma=sigma, eta_offset=eta_offset, capped=capped)


def advanced_composition(eps_step: float, t: int, delta: float) -> float:
    """Total budget of t adaptive eps_step-DP steps: 4 eps_step sqrt(2 t log(1/delta)).

    The underlying theorem assumes log(1/delta) >= eps_step^2 t; evaluating
    outside that regime emits a HypothesisViolated warning but still returns
    the formula value.
    """
    if eps_step < 0.0 or t < 0:
        raise ValidationError(f"need eps_step >= 0 and t >= 0, got {eps_step}, {t}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")
    if t == 0:
        return 0.0
    log_delta = math.log(1.0 / delta)
    if eps_step ** 2 * t > log_delta:
        warnings.warn(
            f"composition hypothesis log(1/delta) >= eps^2 T fails: "
            f"{log_delta:.4g} < {eps_step ** 2 * t:.4g}",
            HypothesisViolated,
            stacklevel=2,
        )
    return 4.0 * eps_step * math.sqrt(2.0 * t * log_delta)


def gaussian_rdp(beta: float, sigma: float, l2_sensitivity: float) -> float:
    """Renyi-DP epsilon of order beta for one Gaussian mechanism release."""
    if beta <= 1.0:
        raise ValidationError(f"Renyi order must exceed 1, got {beta}")
    if sigma <= 0.0 or l2_sensitivity < 0.0:
        raise ValidationError(f"need sigma > 0, sensitivity >= 0; got {sigma}, {l2_sensitivity}")
    return beta * l2_sensitivity ** 2 / (2.0 * sigma ** 2)


def optimal_rdp_order(t: int, n: int, sigma: float, delta: float) -> float:
    """Renyi order minimizing the converted budget of the t-step Gaussian chain."""
    if t < 1 or n < 1 or sigma <= 0.0:
        raise ValidationError(f"need t, n >= 1 and sigma > 0; got {t}, {n}, {sigma}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")
    return 1.0 + math.sqrt(math.log(1.0 / delta) / t) * n * sigma


def rdp_to_dp(beta: float, eps_rdp: float, delta: float) -> float:
    """Convert (beta, eps_rdp)-RDP to (eps, delta)-DP: eps_rdp + log(1/delta)/(beta-1)."""
    if beta <= 1.0:
        raise ValidationError(f"Renyi order must exceed 1, got {beta}")
    if eps_rdp < 0.0:
        raise ValidationError(f"need eps_rdp >= 0, got {eps_rdp}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")
    return eps_rdp + math.log(1.0 / delta) / (beta - 1.0)
