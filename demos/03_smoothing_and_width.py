# Gaussian smoothing of the worst-query objective: the smoothed function
# stays within sigma * width(Q) of the original, and a single noisy row
# scan gives an unbiased gradient of it.
import math

import numpy as np

from dpqr import NoiseStream, gen_workload
from dpqr.core import new_simplex, uniform
from dpqr.objective import gaussian_width, max_query_error, smoothed_gradient_oracle

rng = NoiseStream(11, "demo3")
k = 8
workload = gen_workload(k, 8, "random_sign", rng.substream("w"))

width = gaussian_width(workload, 200_000, rng.substream("width"))
print(f"Gaussian width of the workload: {width.mean:.4f} +- {width.stderr:.4f} "
      f"({width.samples} samples)")

target = new_simplex(np.random.default_rng(0).dirichlet(np.ones(k)))
d = uniform(k)
phi = max_query_error(target, d, workload)
print(f"\nworst-query gap at the uniform distribution: {phi:.4f}")

print("\nsigma    smoothed estimate    |smoothed - exact|    sigma*width")
base = workload.queries @ (target.values - d.values)
for sigma in (0.02, 0.1, 0.4):
    # Monte Carlo over phi(d + xi), xi ~ N(0, sigma^2 I), drawn 32768 rows at a time
    stream = rng.substream(f"mc{sigma}")
    vals = np.concatenate([
        (base - stream.gaussian(sigma, size=(min(1 << 15, 200_000 - lo), k))
         @ workload.queries.T).max(axis=1)
        for lo in range(0, 200_000, 1 << 15)
    ])
    mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
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
