"""Mutable per-candidate state carried through a HistSim run (paper Table 1).

Cumulative quantities (``n_i``, ``r_i``, ``τ_i``) accumulate across every
sample ever taken for a candidate; round quantities (``n∂_i``, ``r∂_i``,
``τ∂_i``) cover only the *fresh* samples of the current stage-2 round so that
the round's statistical test is independent of earlier data (Section 3.4).
"""

from __future__ import annotations

import numpy as np

from ..parallel.kernels import rows_per_candidate

__all__ = ["CandidateState"]


class CandidateState:
    """Vectors of per-candidate sampling state.

    Parameters
    ----------
    num_candidates:
        ``|V_Z|`` — the number of candidate attribute values.
    num_groups:
        ``|V_X|`` — the size of each histogram's support.
    candidate_rows:
        Optional per-candidate true row counts ``N_i``.  When provided, the
        state can report which candidates have been fully observed (their
        empirical histogram is exact), which matters on finite data.
    """

    def __init__(
        self,
        num_candidates: int,
        num_groups: int,
        candidate_rows: np.ndarray | None = None,
    ) -> None:
        if num_candidates < 1:
            raise ValueError(f"need at least one candidate, got {num_candidates}")
        if num_groups < 1:
            raise ValueError(f"need at least one group, got {num_groups}")
        self.num_candidates = num_candidates
        self.num_groups = num_groups
        # Cumulative across the whole run.
        self.samples = np.zeros(num_candidates, dtype=np.int64)
        self.counts = np.zeros((num_candidates, num_groups), dtype=np.int64)
        # Fresh samples for the current stage-2 round only.
        self.round_samples = np.zeros(num_candidates, dtype=np.int64)
        self.round_counts = np.zeros((num_candidates, num_groups), dtype=np.int64)
        if candidate_rows is not None:
            rows = np.asarray(candidate_rows, dtype=np.int64)
            if rows.shape != (num_candidates,):
                raise ValueError(
                    f"candidate_rows must have shape ({num_candidates},), got {rows.shape}"
                )
            if np.any(rows < 0):
                raise ValueError("candidate_rows must be non-negative")
            self.candidate_rows = rows
        else:
            self.candidate_rows = None

    def record_round_counts(self, fresh_counts: np.ndarray) -> np.ndarray:
        """Add a batch of fresh per-(candidate, group) counts to the round state.

        Returns the batch's per-candidate row sums — the one reduction of
        the batch, for callers that need fresh rows per candidate or in total.
        """
        fresh = np.asarray(fresh_counts)
        if fresh.shape != self.round_counts.shape:
            raise ValueError(
                f"expected counts of shape {self.round_counts.shape}, got {fresh.shape}"
            )
        if fresh.min() < 0:  # one reduction; the shape is never empty
            raise ValueError("fresh counts must be non-negative")
        row_sums = rows_per_candidate(fresh)
        self.round_counts += fresh
        self.round_samples += row_sums
        return row_sums

    def fold_round_into_cumulative(self) -> None:
        """Algorithm 1 lines 15–16: ``n_i += n∂_i``, ``r_i += r∂_i``, reset round.

        An empty round (round 1 folds right after stage 1, which wrote the
        cumulative state directly; stage 3 folds again after a rejected
        round already did) has only zeros to add and to clear, so the two
        ``|V_Z| × |V_X|`` passes are skipped.
        """
        if not self.round_samples.any():
            return
        self.counts += self.round_counts
        self.samples += self.round_samples
        self.reset_round()

    def reset_round(self) -> None:
        """Clear the fresh-sample accumulators (start of a stage-2 round)."""
        self.round_samples[:] = 0
        self.round_counts[:] = 0

    def exhausted(self) -> np.ndarray:
        """Mask of candidates whose every row has been observed (exact histograms).

        Only meaningful when true row counts were supplied; otherwise no
        candidate is ever considered exhausted.
        """
        if self.candidate_rows is None:
            return np.zeros(self.num_candidates, dtype=bool)
        return self.samples >= self.candidate_rows
