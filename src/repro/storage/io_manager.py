"""Simulated I/O manager (paper Section 4.1).

"The I/O manager simply services requests for blocks in a synchronous
fashion."  Here it gathers the requested blocks' column values from the
shuffled table and reports the simulated cost of doing so; the caller (the
sampling engine) decides how that cost composes with block-selection cost
(serial for SyncMatch, overlapped for FastMatch's lookahead).
"""

from __future__ import annotations

import numpy as np

from .cost_model import CostModel
from .shuffle import ShuffledTable

__all__ = ["IOManager", "BlockRead"]


class BlockRead:
    """The outcome of one batch of block reads."""

    __slots__ = ("columns", "rows_read", "blocks_read", "cost_ns")

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        rows_read: int,
        blocks_read: int,
        cost_ns: float,
    ) -> None:
        self.columns = columns
        self.rows_read = rows_read
        self.blocks_read = blocks_read
        self.cost_ns = cost_ns


class IOManager:
    """Services block-read requests against a shuffled table."""

    def __init__(self, shuffled: ShuffledTable, cost_model: CostModel) -> None:
        self.shuffled = shuffled
        self.cost_model = cost_model
        self.total_blocks_read = 0
        self.total_rows_read = 0
        self.total_cost_ns = 0.0

    def read_cost(self, blocks: np.ndarray) -> float:
        """Account a batch of block reads without gathering any values.

        The cost and effort counters are identical to :meth:`read_blocks`
        for the same blocks.  The sampling engine charges every window it
        delivers through this method, once, whichever execution backend
        gathers and counts the rows (and whenever it does), so cost
        accounting cannot differ across backends.
        ``blocks`` must be sorted and unique (the engine reads in storage
        order — Section 4.2's locality discussion).
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.size == 0:
            return 0.0
        if np.any(np.diff(blocks) <= 0):
            raise ValueError("blocks must be sorted and unique")
        tuples_per_block = self.shuffled.layout.rows_per_block(blocks)
        cost = self.cost_model.block_read_cost(tuples_per_block)
        self.total_blocks_read += int(blocks.size)
        self.total_rows_read += int(tuples_per_block.sum())
        self.total_cost_ns += cost
        return cost

    def read_blocks(self, blocks: np.ndarray, columns: tuple[str, ...]) -> BlockRead:
        """Read the given blocks and return the requested columns' values.

        ``blocks`` must be sorted and unique (the engine reads in storage
        order — Section 4.2's locality discussion).
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.size == 0:
            # Empty reads still honour each column's stored dtype, so
            # downstream concatenation never silently upcasts.
            empty = {
                name: np.empty(0, dtype=self.shuffled.table.column(name).dtype)
                for name in columns
            }
            return BlockRead(empty, 0, 0, 0.0)
        cost = self.read_cost(blocks)
        # Walk contiguous block runs as slices rather than materializing a
        # per-row index gather; a single run (the sequential-scan common
        # case) comes back as a zero-copy view of the stored column.
        starts, stops = self.shuffled.layout.run_bounds(blocks)
        if starts.size == 1:
            lo, hi = int(starts[0]), int(stops[0])
            gathered = {
                name: self.shuffled.table.column(name)[lo:hi] for name in columns
            }
        else:
            gathered = {
                name: np.concatenate(
                    [
                        self.shuffled.table.column(name)[lo:hi]
                        for lo, hi in zip(starts, stops)
                    ]
                )
                for name in columns
            }
        rows_read = int((stops - starts).sum())
        return BlockRead(gathered, rows_read, int(blocks.size), cost)
