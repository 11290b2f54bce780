# End-to-end tour: build a workload, sample a dataset, release a private
# distribution with both solvers, and draw synthetic data from the result.
import numpy as np

from dpqr import (
    NoiseStream,
    PrivacyBudget,
    empirical,
    gen_distribution,
    gen_workload,
    max_query_error,
    release_dpam,
    release_dpfw,
    sample_dataset,
    new_simplex,
)

rng = NoiseStream(2024, "demo")

# a 16-element universe, a skewed target distribution, and 32 sign queries
k = 16
target = gen_distribution(k, "dirichlet(0.5)", rng.substream("target"))
workload = gen_workload(k, 16, "random_sign", rng.substream("workload"))
print(f"universe k={k}, workload m={workload.m} (closed under negation)")

n = 20_000
data = sample_dataset(target, n, rng.substream("data"))
emp = empirical(data, k)
print(f"dataset n={n}, sampling gap max_q <q, P - P_n> = "
      f"{max_query_error(target, emp, workload):.4f}")

budget = PrivacyBudget(epsilon=1.0, delta=1e-6)
print(f"\nbudget: eps={budget.epsilon}, delta={budget.delta}")

for release in (release_dpfw, release_dpam):
    report = release(data, workload, budget, NoiseStream(7, "run"), true_dist=target)
    print(f"\n--- {report.algorithm} ---")
    print("schedule:", report.schedule)
    print(f"auto alpha: {report.alpha:.4f}")
    print(f"empirical max error:  {report.empirical_max_error:.4f}")
    print(f"population max error: {report.population_max_error:.4f}")
    if report.warnings:
        print("warnings:", report.warnings)

    # the released distribution is an ordinary simplex vector: post-process at will
    priv = new_simplex(report.p_priv)
    synthetic = sample_dataset(priv, 50_000, NoiseStream(8, "synth"))
    syn_emp = empirical(synthetic, k)
    print(f"synthetic dataset of {synthetic.n} rows; "
          f"max_q <q, P_priv - emp(synthetic)> = "
          f"{max_query_error(priv, syn_emp, workload):.4f}")

print("\nuniform baseline (ignores the data):",
      f"{max_query_error(target, np.full(k, 1.0 / k), workload):.4f}")

# DPFW's default iteration count is driven by the l1 diameter (2k for sign
# workloads), which buys many iterations at the cost of a large per-score
# noise scale; the l-infinity variant balances the two error terms instead
report = release_dpfw(data, workload, budget, NoiseStream(7, "run"),
                      true_dist=target, use_inf_diameter=True)
print(f"\ndpfw with the l-infinity iteration rule: T={report.schedule['T']}, "
      f"lam={report.schedule['lam']:.3f}, "
      f"population max error {report.population_max_error:.4f}")
