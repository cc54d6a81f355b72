"""Candidates from arbitrary boolean predicates (paper Appendix A.1.2).

Instead of one candidate per value of ``Z``, each candidate is an arbitrary
predicate (e.g. ``Z1 = a AND Z2 = b``).  Tuples may then satisfy several
candidates at once; HistSim's guarantees survive because Holm–Bonferroni and
the union-intersection tester are valid under arbitrary dependence (the
appendix makes exactly this point).

For block selection, plain bit-per-block bitmaps are not enough; the
appendix prescribes *density maps* — :func:`predicate_block_counts` shows
the AnyActive primitive built on :class:`~repro.bitmap.DensityMap`.
"""

from __future__ import annotations

import numpy as np

from ..bitmap.density_map import DensityMap
from ..core.sampler import ArraySampler
from ..parallel.kernels import count_pairs
from ..query.predicate import Predicate
from ..storage.table import ColumnTable

__all__ = ["PredicateCandidateSampler", "predicate_block_counts", "exact_predicate_counts"]


def exact_predicate_counts(
    table: ColumnTable, candidates: list[Predicate], grouping_attribute: str
) -> np.ndarray:
    """Ground-truth histogram matrix for predicate-defined candidates.

    One kernel call instead of a per-candidate Python loop: every
    ``(candidate, matching row)`` membership pair becomes one pair code, so
    a single bincount produces the whole matrix (tuples satisfying several
    candidates contribute once per candidate, exactly as the loop did).
    """
    x = table.column(grouping_attribute)
    num_groups = table.cardinality(grouping_attribute)
    membership = np.stack([predicate.mask(table) for predicate in candidates])
    cand, rows = np.nonzero(membership)
    return count_pairs(cand, x[rows], len(candidates), num_groups)


def predicate_block_counts(
    density: DensityMap, value_mask: np.ndarray, start_block: int, stop_block: int
) -> np.ndarray:
    """Estimated per-block tuple counts for a single-attribute predicate.

    This is the density-map AnyActive primitive: a block is worth reading
    for a candidate iff its matching-tuple count is positive.  (For
    multi-attribute conjunctions the appendix's cited technique combines
    per-attribute estimates; we expose the per-attribute building block.)
    """
    return density.tuples_matching(value_mask, start_block, stop_block)


class PredicateCandidateSampler(ArraySampler):
    """A TupleSampler over predicate-defined candidates.

    A scanned tuple increments the histogram of *every* candidate whose
    predicate it satisfies.  Budgets are per candidate exactly as in the
    base algorithm; the stream is the shuffled row order, scanned by
    :class:`~repro.core.sampler.ArraySampler`'s loop — only the stream and
    the slice count differ.
    """

    def __init__(
        self,
        table: ColumnTable,
        candidates: list[Predicate],
        grouping_attribute: str,
        rng: np.random.Generator,
        batch_size: int = 8192,
    ) -> None:
        if not candidates:
            raise ValueError("need at least one predicate candidate")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._num_groups = table.cardinality(grouping_attribute)
        self._num_candidates = len(candidates)
        order = rng.permutation(table.num_rows)
        self._x = table.column(grouping_attribute)[order]
        # Row-membership matrix: candidates are typically few (hand-written
        # predicates), so a dense boolean matrix is the simple right choice.
        self._membership = np.stack(
            [predicate.mask(table)[order] for predicate in candidates]
        )
        self._totals = self._membership.sum(axis=1).astype(np.int64)
        self._delivered = np.zeros(self._num_candidates, dtype=np.int64)
        self._cursor = 0
        self._batch_size = batch_size

    def _deliver(self, start: int, stop: int) -> np.ndarray:
        x = self._x[start:stop]
        members = self._membership[:, start:stop]
        # One kernel call over all (candidate, matching row) pairs instead
        # of a per-candidate bincount loop.
        cand, rows = np.nonzero(members)
        counts = count_pairs(cand, x[rows], self._num_candidates, self._num_groups)
        self._delivered += counts.sum(axis=1)
        return counts
