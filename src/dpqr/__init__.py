"""Differentially private answers to linear query workloads.

Two solvers release a privatized distribution over a finite universe whose
query answers track those of the data-generating distribution: DPFW runs
private Frank-Wolfe on the entropy-regularized dual and maps the result back
through the conjugate gradient, and DPAM runs private accelerated mirror
descent on the Gaussian-smoothed primal.  Supporting modules provide simplex
and workload types, seeded noise and privacy accounting, the saddle
objectives, brute-force validation oracles, and an experiment harness.
"""

from .core import (
    Dataset,
    DualPoint,
    PrivacyBudget,
    QueryWorkload,
    RegParam,
    SimplexVector,
    diameters,
    empirical,
    hull_residual,
    new_dataset,
    new_dual_point,
    new_simplex,
    new_workload,
    symmetrize,
    uniform,
)
from .entropy import ProxProblem, composite_prox, kl_divergence, log_sum_exp, neg_entropy, softmax
from .mechanisms import (
    AMSchedule,
    FWSchedule,
    NoiseStream,
    advanced_composition,
    dpam_schedule,
    dpfw_schedule,
    gaussian_rdp,
    optimal_rdp_order,
    rdp_to_dp,
    report_noisy_max,
)
from .objective import (
    OracleDraw,
    WidthEstimate,
    empirical_dual_gradient,
    frank_wolfe_gap,
    gaussian_width,
    max_query_error,
    primal_objective,
    regularized_dual,
    regularized_primal,
    smoothed_gradient_oracle,
    smoothed_primal_mc,
)
from .dpfw import FWTrace, dual_to_primal, release_dpfw, run_dpfw
from .dpam import AMTrace, regime_ok, release_dpam, run_dpam
from .bench import (
    ExperimentPlan,
    ExperimentResult,
    default_plan,
    fit_loglog_slope,
    gen_distribution,
    gen_workload,
    run_experiment,
    sample_dataset,
)
from .report import RunReport
from . import errors

__all__ = [
    "AMSchedule",
    "AMTrace",
    "Dataset",
    "DualPoint",
    "ExperimentPlan",
    "ExperimentResult",
    "FWSchedule",
    "FWTrace",
    "NoiseStream",
    "OracleDraw",
    "PrivacyBudget",
    "ProxProblem",
    "QueryWorkload",
    "RegParam",
    "RunReport",
    "SimplexVector",
    "WidthEstimate",
    "advanced_composition",
    "composite_prox",
    "default_plan",
    "diameters",
    "dpam_schedule",
    "dpfw_schedule",
    "dual_to_primal",
    "empirical",
    "empirical_dual_gradient",
    "errors",
    "fit_loglog_slope",
    "frank_wolfe_gap",
    "gaussian_rdp",
    "gaussian_width",
    "gen_distribution",
    "gen_workload",
    "hull_residual",
    "kl_divergence",
    "log_sum_exp",
    "max_query_error",
    "neg_entropy",
    "new_dataset",
    "new_dual_point",
    "new_simplex",
    "new_workload",
    "optimal_rdp_order",
    "primal_objective",
    "rdp_to_dp",
    "regime_ok",
    "regularized_dual",
    "regularized_primal",
    "release_dpam",
    "release_dpfw",
    "report_noisy_max",
    "run_dpam",
    "run_dpfw",
    "run_experiment",
    "sample_dataset",
    "smoothed_gradient_oracle",
    "smoothed_primal_mc",
    "softmax",
    "symmetrize",
    "uniform",
]
