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
from .errors import ValidationError

# floor applied to prox outputs so later entropy/KL evaluations stay finite
PROX_FLOOR = 1e-300


def softmax(y) -> SimplexVector:
    """exp(y_j) / sum_i exp(y_i); invariant under adding a constant to y."""
    v = np.asarray(y, dtype=float)
    if v.size == 0:
        raise ValidationError("softmax of an empty array")
    e = np.exp(v - v.max())
    return SimplexVector(_freeze(e / e.sum()))


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
        raise ValidationError("prox anchor must be strictly positive")
    exponent = (-A * g - B + C * np.log(a)) / (B + C)
    out = np.maximum(softmax(exponent).values, PROX_FLOOR)
    return SimplexVector(_freeze(out / out.sum()))
