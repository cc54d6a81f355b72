"""Configuration for HistSim / FastMatch runs (paper Table 1 parameters).

Defaults mirror Section 5.2: ``δ = 0.01``, ``ε = 0.04``, ``σ = 0.0008``,
``m = 5·10⁵`` stage-1 samples, ``lookahead = 1024`` blocks.  The stage-1
sample count is additionally capped at a fraction of the dataset so that the
same configuration behaves sensibly on laptop-scale synthetic data (the
paper's footnote: m must be neither too small nor "a nontrivial fraction of
the data").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["HistSimConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class HistSimConfig:
    """User-supplied parameters of Problem 1 plus system knobs.

    Attributes
    ----------
    k:
        Number of matching histograms to retrieve.
    epsilon:
        Approximation error upper bound ε shared by Guarantees 1 and 2.
        (Use :mod:`repro.extensions.dual_epsilon` for distinct ε1/ε2.)
    delta:
        Total error-probability budget δ; each stage spends δ/3.
    sigma:
        Selectivity threshold below which candidates may be pruned.
    stage1_samples:
        Stage-1 uniform sample count ``m`` (paper default 5·10⁵).
    stage1_max_fraction:
        Cap on ``m`` as a fraction of the dataset, so the prune stage never
        degenerates into a near-complete scan on small (simulated) datasets.
    lookahead:
        Number of blocks marked per batch by the asynchronous block-selection
        thread (Section 4.2, Challenge 4).

    How stage 2 sizes its rounds is not configurable: the oversampling
    factor, the per-round cap and floor, and the round limit are the
    constants ``ROUND_BUDGET_FACTOR``, ``ROUND_BUDGET_CAP``,
    ``MIN_ROUND_SAMPLES`` and ``MAX_ROUNDS`` of :mod:`repro.core.histsim`.
    """

    k: int = 10
    epsilon: float = 0.04
    delta: float = 0.01
    sigma: float = 0.0008
    stage1_samples: int = 500_000
    stage1_max_fraction: float = 0.1
    lookahead: int = 1024

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.epsilon < 2.0:
            raise ValueError(f"epsilon must be in (0, 2), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must be in [0, 1], got {self.sigma}")
        if self.stage1_samples < 1:
            raise ValueError(f"stage1_samples must be >= 1, got {self.stage1_samples}")
        if not 0.0 < self.stage1_max_fraction <= 1.0:
            raise ValueError(
                f"stage1_max_fraction must be in (0, 1], got {self.stage1_max_fraction}"
            )
        if self.lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {self.lookahead}")

    @property
    def stage_delta(self) -> float:
        """Per-stage error budget δ/3 (Algorithm 1 lines 5, 12, 26)."""
        return self.delta / 3.0

    def effective_stage1_samples(self, total_rows: int) -> int:
        """Stage-1 sample count after applying the dataset-fraction cap."""
        cap = max(1, int(self.stage1_max_fraction * total_rows))
        return max(1, min(self.stage1_samples, cap, total_rows))

    def with_(self, **changes) -> "HistSimConfig":
        """Functional update, e.g. ``config.with_(epsilon=0.08)``."""
        return replace(self, **changes)


#: Paper Section 5.2 defaults.
DEFAULT_CONFIG = HistSimConfig()
