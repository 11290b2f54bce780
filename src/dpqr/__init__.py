"""Differentially private answers to linear query workloads.

Two solvers release a privatized distribution over a finite universe whose
query answers track those of the data-generating distribution: DPFW runs
private Frank-Wolfe on the entropy-regularized dual and maps the result back
through the conjugate gradient, and DPAM runs private accelerated mirror
descent on the Gaussian-smoothed primal.  Supporting modules provide simplex
and workload types, seeded noise and privacy accounting, the saddle
objectives, an experiment harness, and the command line.

The top-level namespace holds what a synthetic release or an error-scaling
experiment needs; everything else is imported from its submodule
(``dpqr.core``, ``dpqr.mechanisms``, ``dpqr.objective``, ...).
"""

from .bench import default_plan, gen_distribution, gen_workload, run_experiment, sample_dataset
from .core import PrivacyBudget
from .dpam import release_dpam
from .dpfw import release_dpfw
from .mechanisms import NoiseStream

__all__ = [
    "NoiseStream",
    "PrivacyBudget",
    "default_plan",
    "gen_distribution",
    "gen_workload",
    "release_dpam",
    "release_dpfw",
    "run_experiment",
    "sample_dataset",
]
