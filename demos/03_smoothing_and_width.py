# Gaussian smoothing of the worst-query objective: the smoothed function
# stays within sigma * width(Q) of the original, and a single noisy row
# scan gives an unbiased gradient of it.
import math

import numpy as np

from dpqr import NoiseStream, gen_workload
from dpqr.core import new_simplex, uniform
from dpqr.objective import (
    gaussian_width,
    primal_objective,
    smoothed_gradient_oracle,
    smoothed_primal_mc,
)

rng = NoiseStream(11, "demo3")
k = 8
workload = gen_workload(k, 8, "random_sign", rng.substream("w"))

width = gaussian_width(workload, 200_000, rng.substream("width"))
print(f"Gaussian width of the workload: {width.mean:.4f} +- {width.stderr:.4f} "
      f"({width.samples} samples)")

target = new_simplex(np.random.default_rng(0).dirichlet(np.ones(k)))
d = uniform(k)
phi = primal_objective(d, target, workload)
print(f"\nworst-query gap at the uniform distribution: {phi:.4f}")

print("\nsigma    smoothed estimate    |smoothed - exact|    sigma*width")
for sigma in (0.02, 0.1, 0.4):
    mean, se = smoothed_primal_mc(d, target, workload, sigma, 200_000, rng.substream(f"mc{sigma}"))
    print(f"{sigma:5.2f}    {mean:.4f} +- {3 * se:.4f}       {abs(mean - phi):.4f}"
          f"                {sigma * width.mean:.4f}")

# the oracle averages to the smoothed gradient
sigma = 0.3
draws = 50_000
stream = rng.substream("oracle")
grads = np.empty((draws, k))
for i in range(draws):
    grads[i], _ = smoothed_gradient_oracle(d, target, workload, sigma, stream)
mean_grad = grads.mean(axis=0)
se = grads.std(axis=0, ddof=1) / math.sqrt(draws)
print(f"\nmean oracle gradient at sigma={sigma} (+- 3 stderr):")
for j in range(k):
    print(f"  coord {j}: {mean_grad[j]:+.4f} +- {3 * se[j]:.4f}")
print("each draw is just a (negated) workload row, yet the average tracks the")
print("smoothed objective's gradient; that single-row scan is what gets privatized.")
