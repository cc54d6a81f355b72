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

    ``samples`` and ``round_samples`` are always the row sums of ``counts``
    and ``round_counts``: every batch is recorded with its row sums, so
    readers divide by these totals instead of summing the matrices again.
    HistSim hands each batch's row sums in, read off its sampler's
    ``delivered_rows()`` (the :class:`~repro.core.sampler.TupleSampler`
    delivery contract), so a batch is not summed here either; a batch
    recorded without them is summed once.

    The round's counts live in one buffer that is written only by the
    round's batches: the first batch of an empty round is copied into it,
    later ones are added.  A fold adds it into ``counts`` and marks the
    round empty without a ``|V_Z| × |V_X|`` zero-fill; between rounds
    ``round_counts`` reads as a read-only matrix of zeros, never as the
    folded round's stale buffer.

    Survivor rows: once stage 1 has pruned candidates, :meth:`keep_only`
    narrows ``counts`` and the round buffer to the survivors' rows
    (``survivors``, ascending candidate ids), so each later record, fold
    and distance costs ``|A| × |V_X|``, not ``|V_Z| × |V_X|``.  Row ``r``
    of the matrices then holds candidate ``survivors[r]``; read a
    candidate's histogram through :meth:`rows`, which maps candidate ids
    to rows.  Batches still arrive full-shaped (``num_candidates`` rows)
    and are checked whole; the survivors' rows are gathered out of them,
    and that gather is the copy.  ``samples``, ``round_samples`` and
    ``candidate_rows`` stay full length, indexed by candidate id.

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
        #: Candidate ids of the matrices' rows once narrowed; None while
        #: row ``i`` is candidate ``i``.
        self.survivors: np.ndarray | None = None
        self._row_of: np.ndarray | None = None  # candidate id -> row, -1 if dropped
        self._round_buffer = np.empty_like(self.counts)
        self._round_held = False  # whether the buffer holds the round
        self._no_round: np.ndarray | None = None  # zeros, made when first read
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

    @property
    def round_counts(self) -> np.ndarray:
        """``(candidate, group)`` counts of the current round's fresh
        samples; zeros (read-only) while the round is empty."""
        if self._round_held:
            return self._round_buffer
        if self._no_round is None:
            self._no_round = np.zeros(self.counts.shape, dtype=np.int64)
            self._no_round.setflags(write=False)
        return self._no_round

    def rows(self, candidates: np.ndarray) -> np.ndarray:
        """The rows of ``counts`` / ``round_counts`` that hold the given
        candidate ids; raises for a candidate whose rows were dropped."""
        if self._row_of is None:
            return candidates
        rows = self._row_of[candidates]
        if rows.size and rows.min() < 0:
            raise ValueError("a pruned candidate's histogram is not kept")
        return rows

    def keep_only(self, survivors: np.ndarray) -> None:
        """Keep the histograms of the candidates in the boolean mask
        ``survivors`` only; a no-op when it drops nobody.  A dropped
        candidate cannot come back."""
        ids = np.flatnonzero(survivors)
        rows = self.rows(ids)
        if rows.size == self.counts.shape[0]:
            return
        # Only held data is gathered; empty matrices are made at the new size.
        if self.samples.any():
            self.counts = self.counts[rows]
        else:
            self.counts = np.zeros((ids.size, self.num_groups), dtype=np.int64)
        if self._round_held:
            self._round_buffer = self._round_buffer[rows]
        else:
            self._round_buffer = np.empty_like(self.counts)
        self._no_round = None
        self.survivors = ids
        self._row_of = np.full(self.num_candidates, -1, dtype=np.int64)
        self._row_of[ids] = np.arange(ids.size)

    def _shaped(self, counts: np.ndarray) -> np.ndarray:
        """The batch as an array, checked to be full-shaped and non-negative
        (one ``min`` over the batch) before anything moves."""
        counts = np.asarray(counts)
        shape = (self.num_candidates, self.num_groups)
        if counts.shape != shape:
            raise ValueError(f"expected counts of shape {shape}, got {counts.shape}")
        if counts.min() < 0:  # one reduction; the shape is never empty
            raise ValueError("counts must be non-negative")
        return counts

    def _held(self, counts: np.ndarray) -> np.ndarray:
        """The batch's rows that the state keeps: all of it, or the
        survivors' rows gathered out (a copy)."""
        return counts if self.survivors is None else counts[self.survivors]

    def _row_sums(self, counts: np.ndarray, row_sums: np.ndarray | None) -> np.ndarray:
        """The batch's per-candidate row sums: handed in, or summed here."""
        if row_sums is None:
            return rows_per_candidate(counts)
        if row_sums.shape != self.samples.shape:
            raise ValueError(
                f"expected row sums of shape {self.samples.shape}, got {row_sums.shape}"
            )
        return row_sums

    def record_counts(
        self, counts: np.ndarray, row_sums: np.ndarray | None = None
    ) -> np.ndarray:
        """Add a batch straight into the cumulative state (stage 1, which
        has no round); returns its per-candidate row sums — ``row_sums``
        when the caller hands them in (they must be the batch's), else
        summed here.  Into an empty state the batch is copied, not added
        to zeros."""
        counts = self._shaped(counts)
        row_sums = self._row_sums(counts, row_sums)
        if self.samples.any():
            self.counts += self._held(counts)
        else:
            np.copyto(self.counts, self._held(counts))
        self.samples += row_sums
        return row_sums

    def record_round_counts(
        self, fresh_counts: np.ndarray, row_sums: np.ndarray | None = None
    ) -> np.ndarray:
        """Add a batch of fresh per-(candidate, group) counts to the round state.

        Returns the batch's per-candidate row sums — the one reduction of
        the batch, for callers that need fresh rows per candidate or in
        total.  A caller that already holds them (HistSim reads them off
        its sampler's ``delivered_rows()``) hands them in as ``row_sums``
        and the matrix is not summed again.  The batch is copied or added
        into the state's own buffer, never kept.
        """
        fresh = self._shaped(fresh_counts)
        row_sums = self._row_sums(fresh, row_sums)
        if self._round_held:
            self._round_buffer += self._held(fresh)
        elif self.survivors is None:
            np.copyto(self._round_buffer, fresh)
        else:  # the survivor gather is the copy
            self._round_buffer = fresh[self.survivors].astype(np.int64, copy=False)
        self._round_held = True
        self.round_samples += row_sums
        return row_sums

    def fold_round_into_cumulative(self) -> None:
        """Algorithm 1 lines 15–16: ``n_i += n∂_i``, ``r_i += r∂_i``, reset round.

        An empty round (round 1 folds right after stage 1, which wrote the
        cumulative state directly; stage 3 folds again after a rejected
        round already did) has only zeros to add, so the matrix pass is
        skipped.
        """
        if not self.round_samples.any():
            return
        self.counts += self._round_buffer
        self.samples += self.round_samples
        self.reset_round()

    def reset_round(self) -> None:
        """Clear the fresh-sample accumulators (start of a stage-2 round):
        the buffer is marked empty, not zero-filled."""
        self.round_samples[:] = 0
        self._round_held = False

    def exhausted(self) -> np.ndarray:
        """Mask of candidates whose every row has been observed (exact histograms).

        Only meaningful when true row counts were supplied; otherwise no
        candidate is ever considered exhausted.
        """
        if self.candidate_rows is None:
            return np.zeros(self.num_candidates, dtype=bool)
        return self.samples >= self.candidate_rows
