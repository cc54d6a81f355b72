"""Merging per-shard results back into the serial path's exact state.

Per-shard counts cover disjoint row sets, so integer summation reconstructs
*exactly* the count matrix the serial path would have produced for the same
blocks — the property (selective-downsampling style partition-and-merge)
that lets the sharded backend be byte-identical to serial execution.  The
merger validates shapes and dtypes before summing: a silently broadcast or
float-upcast partial result would corrupt every downstream P-value.  Given
the planner's shards it also checks each result's row tally against the
rows the coordinator planned for it — a number the producer never saw.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .shard import Shard
from .worker import ShardResult

__all__ = ["ShardMerger"]


class ShardMerger:
    """Sums per-shard ``(candidate, group)`` count matrices exactly."""

    def __init__(self, num_candidates: int, num_groups: int) -> None:
        if num_candidates < 1 or num_groups < 1:
            raise ValueError(
                f"need positive dimensions, got {num_candidates}x{num_groups}"
            )
        self.num_candidates = num_candidates
        self.num_groups = num_groups

    def merge(
        self,
        results: Iterable[ShardResult],
        shards: Sequence[Shard] | None = None,
        *,
        exact: bool = False,
    ) -> np.ndarray:
        """Sum shard counts into one int64 matrix; validates every shard.

        ``shards`` are the planner's, in result order: a result may not
        tally more rows than its shard covers, and tallies exactly those
        when nothing drops rows (``exact``: no filter, no folded codes).
        """
        results = list(results)
        if shards is not None and len(shards) != len(results):
            raise ValueError(
                f"{len(results)} shard results for {len(shards)} planned shards"
            )
        merged = np.zeros((self.num_candidates, self.num_groups), dtype=np.int64)
        for i, result in enumerate(results):
            counts = np.asarray(result.counts)
            if counts.shape != merged.shape:
                raise ValueError(
                    f"shard {result.task_id} counts have shape {counts.shape}, "
                    f"expected {merged.shape}"
                )
            if not np.issubdtype(counts.dtype, np.integer):
                raise ValueError(
                    f"shard {result.task_id} counts must be integer, "
                    f"got {counts.dtype}"
                )
            if shards is not None:
                planned = shards[i].rows
                if result.rows > planned or (exact and result.rows != planned):
                    raise ValueError(
                        f"shard {result.task_id} tallied {result.rows} rows, "
                        f"planned {'' if exact else 'at most '}{planned}"
                    )
            merged += counts
        return merged
