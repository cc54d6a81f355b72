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
        order — Section 4.2's locality discussion) and inside the layout;
        a rejected batch moves no counter.

        Constant arithmetic once the batch is checked: every block but the
        table's last holds ``block_size`` rows, so the batch's row count is
        read off the layout, with no per-block array, and charged as
        :meth:`CostModel.scan_cost(rows, count) <CostModel.scan_cost>` —
        the Scan baseline's own formula, here for a subset of the blocks.
        It equals the per-block sum :meth:`CostModel.block_read_cost` to the
        last bit for integer-valued cost constants (see there).
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        count = int(blocks.size)
        if count == 0:
            return 0.0
        if (blocks[1:] <= blocks[:-1]).any():
            raise ValueError("blocks must be sorted and unique")
        layout = self.shuffled.layout
        first, last = int(blocks[0]), int(blocks[-1])
        if first < 0 or last >= layout.num_blocks:
            raise ValueError("block index out of range")
        # Sorted, so only the batch's last block can be the table's short one.
        rows = (count - 1) * layout.block_size + layout.block_rows(last)
        cost = self.cost_model.scan_cost(rows, count)
        self.total_blocks_read += count
        self.total_rows_read += rows
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
