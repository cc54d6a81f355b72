"""Distinct ε₁ (separation) and ε₂ (reconstruction) (paper Appendix A.2.1).

An analyst who cares more about one guarantee supplies two tolerances:
stages 1–2 run at ε₁, stage 3 reconstructs to ε₂.  The proof of Theorem 2
is untouched — each stage keeps its δ/3 budget and its own ε.
"""

from __future__ import annotations

import numpy as np

from ..core.config import HistSimConfig
from ..core.deviation import stage3_sample_target
from ..core.histsim import HistSim
from ..core.result import MatchResult
from ..core.sampler import TupleSampler

__all__ = ["DualEpsilonHistSim", "run_histsim_dual_epsilon"]


class DualEpsilonHistSim(HistSim):
    """HistSim with separation tolerance ε₁ and reconstruction tolerance ε₂."""

    def __init__(
        self,
        sampler: TupleSampler,
        target: np.ndarray,
        config: HistSimConfig,
        epsilon_reconstruction: float,
        stats_cost=None,
    ) -> None:
        if not 0.0 < epsilon_reconstruction < 2.0:
            raise ValueError(
                f"epsilon_reconstruction must be in (0, 2), got {epsilon_reconstruction}"
            )
        # config.epsilon plays the role of ε₁ throughout stages 1-2.
        super().__init__(sampler, target, config, stats_cost)
        self.epsilon_reconstruction = epsilon_reconstruction

    def stage3_needed(self, matching: np.ndarray) -> np.ndarray:
        """Reconstruction budgets at ε₂ — the stepper budgets stage 3 through
        this method.  (Stage-2 round-budget ceilings still scale with the ε₁
        target, as before.)"""
        cfg = self.config
        target_n = stage3_sample_target(
            self.epsilon_reconstruction, cfg.delta, cfg.k, self.sampler.num_groups
        )
        needed = np.zeros(self.alive.size, dtype=np.float64)
        needed[matching] = np.maximum(0, target_n - self.state.samples[matching])
        return needed


def run_histsim_dual_epsilon(
    sampler: TupleSampler,
    target: np.ndarray,
    config: HistSimConfig,
    epsilon_separation: float,
    epsilon_reconstruction: float,
) -> MatchResult:
    """Run HistSim with separate tolerances for Guarantees 1 and 2."""
    cfg = config.with_(epsilon=epsilon_separation)
    algo = DualEpsilonHistSim(
        sampler, np.asarray(target, dtype=np.float64), cfg, epsilon_reconstruction
    )
    return algo.run()
