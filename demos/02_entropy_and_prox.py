# The entropic machinery both solvers stand on: negative entropy, its
# conjugate, KL divergence, and the closed-form composite prox, checked
# against its first-order optimality condition.
import numpy as np

from dpqr.core import new_simplex, uniform
from dpqr.dpfw import dual_to_primal
from dpqr.entropy import composite_prox, softmax


def neg_entropy(d):
    # H(d) = sum d log d, with 0 log 0 = 0
    v = d.values[d.values > 0.0]
    return float(np.sum(v * np.log(v)))


print("negative entropy is largest (0) at point masses, smallest at uniform:")
for d in ([1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]):
    print(f"  H({d}) = {neg_entropy(new_simplex(d)):+.4f}")

print("\nlog-sum-exp is the conjugate; softmax is its gradient:")
y = np.array([1.0, -0.5, 0.25])
lse = y.max() + np.log(np.sum(np.exp(y - y.max())))
print(f"  lse({y}) = {lse:.6f}")
print(f"  softmax(y) = {softmax(y).values.round(6)}")
print(f"  shifting y by a constant leaves softmax unchanged: "
      f"{np.allclose(softmax(y).values, softmax(y + 10).values)}")

print("\nKL divergence is the Bregman divergence of H:")
d = new_simplex([0.5, 0.3, 0.2])
a = new_simplex([0.2, 0.4, 0.4])
kl = float(np.sum(d.values * np.log(d.values / a.values)))
print(f"  KL(d, a) = {kl:.6f}  (>= 0, zero iff equal)")

# one mirror-descent step solves
#   min_d  A <g, d> + B H(d) + C KL(d, anchor)
# in closed form.  At an interior minimizer the gradient of the objective,
#   A g + (B + C) log(d) - C log(anchor)  (plus the constant B + C),
# is the same in every coordinate: the Lagrange condition for sum(d) = 1
rng = np.random.default_rng(1)
A, B, C = 3.0, 0.8, 2.5
g = rng.uniform(-1, 1, 3)
anchor = new_simplex([0.5, 0.25, 0.25])
closed = composite_prox(g, anchor, A, B, C).values
stationary = A * g + (B + C) * np.log(closed) - C * np.log(anchor.values)
print("\ncomposite prox, closed form:", closed.round(8))
print(f"optimality condition, spread across coordinates: {np.ptp(stationary):.1e}")

# the same map sends a dual point to the released distribution
q = rng.uniform(-1, 1, 4)
alpha = 0.4
p = dual_to_primal(q, alpha)
print(f"\ndual point {q.round(3)} maps to distribution {p.values.round(4)}")
print(f"which solves min_d <q, -d> + {alpha} H(d); every coordinate stays positive.")
print(f"uniform check: dual_to_primal(0, alpha) = {dual_to_primal(np.zeros(4), alpha).values}")
print(f"compare uniform(4) = {uniform(4).values}")
