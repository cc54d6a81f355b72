"""HistSim — the paper's primary contribution (Sections 2 and 3).

Public surface:

- :class:`HistSimConfig` — the (k, ε, δ, σ) parameters of Problem 1.
- :func:`run_histsim` / :class:`HistSim` — Algorithm 1 over any sampler.
- :class:`ArraySampler` — the in-memory reference sampler.
- Distances (:func:`l1_distance`, …), Theorem 1 bounds, the stage-1
  hypergeometric test, Holm–Bonferroni, and guarantee auditing.
"""

from .config import DEFAULT_CONFIG, HistSimConfig
from .deviation import (
    deviation_log_pvalue,
    deviation_pvalue,
    epsilon_given_samples,
    samples_for_deviation,
    stage2_sample_budget,
    stage3_sample_target,
)
from .distance import (
    DISTANCE_FUNCTIONS,
    candidate_distances,
    kl_divergence,
    l1_distance,
    l2_distance,
    normalize,
    total_variation,
)
from .guarantees import AuditTruth, GuaranteeAudit, audit_result, delta_d, true_top_k
from .histsim import (
    HistSim,
    HistSimStepper,
    StepReport,
    run_histsim,
    select_matching,
    split_point,
)
from .hypergeometric import (
    rare_threshold,
    underrepresentation_pvalue,
    underrepresentation_pvalues,
)
from .multiple_testing import (
    bonferroni,
    holm_bonferroni,
    simultaneous_rejection,
    simultaneous_rejection_log,
)
from .result import MatchResult, RoundTrace, StageStats
from .sampler import ArraySampler, TupleSampler
from .state import CandidateState
from .target import TargetSpec, resolve_target, uniform_target

__all__ = [
    "DEFAULT_CONFIG",
    "HistSimConfig",
    "HistSim",
    "HistSimStepper",
    "StepReport",
    "run_histsim",
    "select_matching",
    "split_point",
    "ArraySampler",
    "TupleSampler",
    "CandidateState",
    "MatchResult",
    "RoundTrace",
    "StageStats",
    "TargetSpec",
    "resolve_target",
    "uniform_target",
    "AuditTruth",
    "GuaranteeAudit",
    "audit_result",
    "delta_d",
    "true_top_k",
    "DISTANCE_FUNCTIONS",
    "candidate_distances",
    "kl_divergence",
    "l1_distance",
    "l2_distance",
    "normalize",
    "total_variation",
    "deviation_log_pvalue",
    "deviation_pvalue",
    "epsilon_given_samples",
    "samples_for_deviation",
    "stage2_sample_budget",
    "stage3_sample_target",
    "rare_threshold",
    "underrepresentation_pvalue",
    "underrepresentation_pvalues",
    "bonferroni",
    "holm_bonferroni",
    "simultaneous_rejection",
    "simultaneous_rejection_log",
]
