# How the two calibration schedules spend an (eps, delta) budget, and a
# direct look at the selection primitive on neighboring datasets.
import math

import numpy as np

from dpqr import NoiseStream, PrivacyBudget
from dpqr.core import empirical, new_dataset, new_workload, symmetrize
from dpqr.mechanisms import (
    advanced_composition,
    dpam_schedule,
    dpfw_schedule,
    gaussian_rdp,
    optimal_rdp_order,
    rdp_to_dp,
)

budget = PrivacyBudget(1.0, 1e-6)
n = 10_000

# Frank-Wolfe chain: T Report-Noisy-Max selections under advanced composition
fw = dpfw_schedule(budget, alpha=0.05, d1=8.0, dinf=2.0, m_queries=32, n=n)
eps_step = 8.0 / (n * fw.lam)
print("DPFW schedule:", fw)
print(f"  per-selection budget eps~ = {eps_step:.6f}")
print(f"  advanced composition over T={fw.T} steps: "
      f"{advanced_composition(eps_step, fw.T, budget.delta):.9f}  (target {budget.epsilon})")

# mirror-descent chain: T Gaussian releases accounted in Renyi DP
am = dpam_schedule(budget, alpha=0.05, width=6.0, k=16, n=n)
beta = optimal_rdp_order(am.T, n, am.sigma, budget.delta)
eps_rdp = am.T * gaussian_rdp(beta, am.sigma, math.sqrt(2.0) / n)
print("\nDPAM schedule:", am)
print(f"  optimal Renyi order beta* = {beta:.3f}")
print(f"  total Renyi budget {eps_rdp:.4f} converts to "
      f"{rdp_to_dp(beta, eps_rdp, budget.delta):.6f}-DP  (<= target {budget.epsilon})")

# the selection primitive itself: frequencies on neighbors differ by at
# most an e^eps factor (plus delta)
swap = symmetrize(new_workload([[1.0, -1.0]]))
small_n = 5
lam = 4.0 / (small_n * 1.0)  # l1 diameter / (n * per-step eps of 1)
trials = 200_000
print(f"\nReport Noisy Max on neighboring 5-point datasets, Laplace scale {lam}:")
for tag, points in (("S1", [0, 0, 0, 1, 1]), ("S2", [0, 0, 1, 1, 1])):
    scores = swap.queries @ empirical(new_dataset(points), 2).values
    noise = NoiseStream(99, f"rnm-{tag}").laplace(lam, size=(trials, swap.m))
    freq = np.bincount((scores + noise).argmax(axis=1), minlength=swap.m) / trials
    print(f"  {tag}: selection frequencies {freq.round(4)}")
print(f"  ratio bound for a per-step budget of 1: e^1 = {math.e:.3f}")
