"""Negative entropy, its conjugate, and the entropic composite prox.

The negative entropy H(d) = sum_z d(z) log d(z) is 1-strongly convex on the
simplex with respect to the l1 norm.  Its Fenchel conjugate is log-sum-exp,
whose gradient is the softmax map; the Bregman divergence it induces is the
KL divergence.  ``composite_prox`` minimizes

    A <g, d> + B H(d) + C KL(d, anchor)

over the simplex in closed form: the minimizer is proportional to
exp((-A g_i - B + C log anchor_i) / (B + C)).
"""

from __future__ import annotations

import numpy as np

from .core import SimplexVector, as_values, _freeze
from .errors import AnchorHasZero, ValidationError

# floor applied to prox outputs so later entropy/KL evaluations stay finite
PROX_FLOOR = 1e-300


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


def softmax(y) -> SimplexVector:
    """exp(y_j) / sum_i exp(y_i); invariant under adding a constant to y."""
    v = np.asarray(y, dtype=float)
    if v.size == 0:
        raise ValidationError("softmax of an empty array")
    e = np.exp(v - v.max())
    return SimplexVector(_freeze(e / e.sum()))


def kl_divergence(d, anchor) -> float:
    """KL(d || anchor) = sum d(z) log(d(z)/anchor(z)); nonnegative."""
    dv = as_values(d)
    av = as_values(anchor)
    if dv.shape != av.shape:
        raise ValidationError(f"shape mismatch {dv.shape} vs {av.shape}")
    pos = dv > 0.0
    if np.any(av[pos] == 0.0):
        raise AnchorHasZero("anchor has zero mass where d does not")
    return float(np.sum(dv[pos] * (np.log(dv[pos]) - np.log(av[pos]))))


def composite_prox(g, anchor, A: float, B: float, C: float) -> SimplexVector:
    """Unique simplex minimizer of A <g, d> + B H(d) + C KL(d, anchor).

    ``g`` and ``anchor`` share one shape.  B may be zero (pure KL step) as
    long as B + C > 0; the anchor must be strictly positive.  The exponent
    goes through the stable softmax, since it is large when B + C is small;
    each output entry is floored at 1e-300 against exp underflow, and the
    floored vector is renormalized without being validated again.
    """
    if not (B >= 0.0 and C >= 0.0 and B + C > 0.0):
        raise ValidationError(f"need B >= 0, C >= 0, B + C > 0; got B={B}, C={C}")
    g = np.asarray(g, dtype=float)
    a = as_values(anchor)
    if g.shape != a.shape:
        raise ValidationError(f"g has shape {g.shape}, anchor {a.shape}")
    if np.any(a <= 0.0):
        raise AnchorHasZero("prox anchor must be strictly positive")
    exponent = (-A * g - B + C * np.log(a)) / (B + C)
    out = np.maximum(softmax(exponent).values, PROX_FLOOR)
    return SimplexVector(_freeze(out / out.sum()))
