# The entropic machinery both solvers stand on: negative entropy, its
# conjugate, KL divergence, and the closed-form composite prox.
import numpy as np

from dpqr.core import new_simplex, uniform
from dpqr.dpfw import dual_to_primal
from dpqr.entropy import (
    composite_prox,
    kl_divergence,
    log_sum_exp,
    neg_entropy,
    softmax,
)
from dpqr.testkit import brute_force_prox

print("negative entropy is largest (0) at point masses, smallest at uniform:")
for d in ([1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]):
    print(f"  H({d}) = {neg_entropy(new_simplex(d)):+.4f}")

print("\nlog-sum-exp is the conjugate; softmax is its gradient:")
y = np.array([1.0, -0.5, 0.25])
print(f"  lse({y}) = {log_sum_exp(y):.6f}")
print(f"  softmax(y) = {softmax(y).values.round(6)}")
print(f"  shifting y by a constant leaves softmax unchanged: "
      f"{np.allclose(softmax(y).values, softmax(y + 10).values)}")

print("\nKL divergence is the Bregman divergence of H:")
d = new_simplex([0.5, 0.3, 0.2])
a = new_simplex([0.2, 0.4, 0.4])
print(f"  KL(d, a) = {kl_divergence(d, a):.6f}  (>= 0, zero iff equal)")

# one mirror-descent step solves
#   min_d  A <g, d> + B H(d) + C KL(d, anchor)
# in closed form; a projected-gradient oracle confirms it numerically
rng = np.random.default_rng(1)
prob = dict(
    A=3.0, B=0.8, C=2.5, g=rng.uniform(-1, 1, 3), anchor=new_simplex([0.5, 0.25, 0.25])
)
closed = composite_prox(**prob).values
brute = brute_force_prox(**prob).values
print("\ncomposite prox, closed form:  ", closed.round(8))
print("projected-gradient minimizer: ", brute.round(8))
print(f"agreement (Linf): {np.abs(closed - brute).max():.2e}")

# the same map sends a dual point to the released distribution
q = rng.uniform(-1, 1, 4)
alpha = 0.4
p = dual_to_primal(q, alpha)
print(f"\ndual point {q.round(3)} maps to distribution {p.values.round(4)}")
print(f"which solves min_d <q, -d> + {alpha} H(d); every coordinate stays positive.")
print(f"uniform check: dual_to_primal(0, alpha) = {dual_to_primal(np.zeros(4), alpha).values}")
print(f"compare uniform(4) = {uniform(4).values}")
