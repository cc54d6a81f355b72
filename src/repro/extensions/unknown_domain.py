"""Unknown candidate domains (paper Appendix A.1.5).

When the candidate domain is not known at query time (no index over ``Z``),
stage 1 must also account for candidates it has *never seen*.  The appendix
adds one "dummy" candidate that aggregates all unseen values: if the dummy's
under-representation test rejects, then the unseen candidates' combined
selectivity is below σ, hence each individually is too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hypergeometric import rare_candidates

__all__ = ["UnknownDomainPruneResult", "prune_unknown_domain"]


@dataclass(frozen=True)
class UnknownDomainPruneResult:
    """Outcome of stage-1 pruning without a known domain."""

    seen_values: tuple[int, ...]
    pruned_seen: tuple[int, ...]
    unseen_all_rare: bool


def prune_unknown_domain(
    sampled_values: np.ndarray,
    total_rows: int,
    sigma: float,
    delta: float,
) -> UnknownDomainPruneResult:
    """Stage 1 over a stream of sampled ``Z`` values with unknown domain.

    ``sampled_values`` are the candidate-attribute values of ``m`` uniform
    without-replacement samples.  State is created for values as they are
    discovered; one extra dummy test with an observed count of zero covers
    every unseen value.  Family-wise error is controlled at ``delta / 3``
    (the stage-1 share) by Holm–Bonferroni over seen values + dummy.
    """
    sampled_values = np.asarray(sampled_values)
    if sampled_values.ndim != 1:
        raise ValueError("sampled_values must be a 1-D array")
    m = int(sampled_values.size)
    if m == 0:
        raise ValueError("need at least one sample")
    if m > total_rows:
        raise ValueError("cannot sample more rows than the table holds")

    seen, counts = np.unique(sampled_values, return_counts=True)
    observed = np.concatenate([counts, [0]])  # trailing dummy: unseen values
    rejected = rare_candidates(observed, total_rows, sigma, m, delta / 3.0)

    pruned_seen = tuple(int(v) for v, r in zip(seen, rejected[:-1]) if r)
    return UnknownDomainPruneResult(
        seen_values=tuple(int(v) for v in seen),
        pruned_seen=pruned_seen,
        unseen_all_rare=bool(rejected[-1]),
    )
