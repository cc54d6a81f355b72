"""Retrieving a flexible number of matches, k ∈ [k1, k2] (paper Appendix A.2.3).

When the analyst accepts anywhere between ``k1`` and ``k2`` matches, HistSim
may pick the ``k`` whose boundary is easiest to certify — the one with the
largest gap between the k-th and (k+1)-th estimated distances, since stage-2
budgets scale as ``1/margin²`` and the split point sits in that gap.

The variant is a :class:`~repro.core.histsim.HistSim` whose stage 1 ends by
choosing k; stages 2–3 then run at that k through the ordinary stepper, so
the result is exactly a plain run at the chosen k.
"""

from __future__ import annotations

import numpy as np

from ..core.config import HistSimConfig
from ..core.histsim import HistSim
from ..core.result import MatchResult
from ..core.sampler import TupleSampler

__all__ = ["choose_k", "run_histsim_range_k"]


def choose_k(distances: np.ndarray, alive: np.ndarray, k_min: int, k_max: int) -> int:
    """The k in [k_min, k_max] with the widest (k, k+1) distance gap."""
    if not 1 <= k_min <= k_max:
        raise ValueError(f"need 1 <= k_min <= k_max, got [{k_min}, {k_max}]")
    alive_distances = np.sort(np.asarray(distances, dtype=np.float64)[alive])
    if alive_distances.size <= k_min:
        return k_min
    k_max = min(k_max, alive_distances.size - 1)
    if k_max < k_min:
        return k_min
    gaps = alive_distances[k_min : k_max + 1] - alive_distances[k_min - 1 : k_max]
    return k_min + int(np.argmax(gaps))


class _RangeKHistSim(HistSim):
    """HistSim that sets ``config.k`` from the post-stage-1 estimates."""

    def __init__(
        self,
        sampler: TupleSampler,
        target: np.ndarray,
        config: HistSimConfig,
        k_min: int,
        k_max: int,
    ) -> None:
        if not 1 <= k_min <= k_max:
            raise ValueError(f"need 1 <= k_min <= k_max, got [{k_min}, {k_max}]")
        super().__init__(sampler, target, config)
        self.k_min = k_min
        self.k_max = k_max

    def run_stage1(self) -> np.ndarray:
        pruned = super().run_stage1()
        tau = self.alive_distances(self.state.counts, self.state.samples)
        k = choose_k(tau, self.alive, self.k_min, self.k_max)
        self.config = self.config.with_(k=k)
        return pruned


def run_histsim_range_k(
    sampler: TupleSampler,
    target: np.ndarray,
    config: HistSimConfig,
    k_min: int,
    k_max: int,
) -> MatchResult:
    """HistSim with k chosen adaptively inside [k_min, k_max].

    Stage 1 runs first; the post-stage-1 estimates pick the easiest k
    (widest boundary gap), then stages 2–3 run at that k.  The guarantees
    hold for the chosen k: the choice only affects which hypotheses stage 2
    tests, not their error control.
    """
    algo = _RangeKHistSim(
        sampler, np.asarray(target, dtype=np.float64), config, k_min, k_max
    )
    return algo.run()
