"""Simulated I/O manager (paper Section 4.1).

"The I/O manager simply services requests for blocks in a synchronous
fashion."  Here it accounts the simulated cost of reading the requested
blocks (the execution backend gathers and counts their rows); the caller
(the sampling engine) decides how that cost composes with block-selection
cost (serial for SyncMatch, overlapped for FastMatch's lookahead).
"""

from __future__ import annotations

import numpy as np

from .cost_model import CostModel
from .shuffle import ShuffledTable

__all__ = ["IOManager"]


class IOManager:
    """Accounts block-read requests against a shuffled table."""

    def __init__(self, shuffled: ShuffledTable, cost_model: CostModel) -> None:
        self.shuffled = shuffled
        self.cost_model = cost_model
        self.total_blocks_read = 0
        self.total_rows_read = 0
        self.total_cost_ns = 0.0

    def read_cost(self, blocks: np.ndarray) -> float:
        """Account a batch of block reads without gathering any values.

        ``blocks`` must be sorted and unique (the engine reads in storage
        order — Section 4.2's locality discussion) and inside the layout;
        a rejected batch moves no counter.  A checked batch is charged by
        :meth:`charge`.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        count = int(blocks.size)
        if count == 0:
            return 0.0
        if (blocks[1:] <= blocks[:-1]).any():
            raise ValueError("blocks must be sorted and unique")
        if blocks[0] < 0:
            raise ValueError("block index out of range")
        return self.charge(count, int(blocks[-1]))

    def charge(self, count: int, last_block: int) -> float:
        """Account ``count`` distinct blocks read in ascending order up to
        ``last_block``, in O(1).

        The sampling engine charges every window it delivers here, once,
        whichever execution backend gathers and counts the rows (and
        whenever it does), so cost accounting cannot differ across backends.
        The engine builds each window ascending, so it hands over the
        batch's size and last block and skips :meth:`read_cost`'s pass over
        the batch; only ``last_block`` is range-checked.

        Every block but the table's last holds ``block_size`` rows, so the
        batch's row count is read off the layout, with no per-block array,
        and charged as :meth:`CostModel.scan_cost(rows, count)
        <CostModel.scan_cost>` — the Scan baseline's own formula, here for a
        subset of the blocks.  It equals the per-block sum
        :meth:`CostModel.block_read_cost` to the last bit for integer-valued
        cost constants (see there).
        """
        if count == 0:
            return 0.0
        layout = self.shuffled.layout
        if not 0 <= last_block < layout.num_blocks:
            raise ValueError("block index out of range")
        # Ascending, so only the batch's last block can be the table's short one.
        rows = (count - 1) * layout.block_size + layout.block_rows(last_block)
        cost = self.cost_model.scan_cost(rows, count)
        self.total_blocks_read += count
        self.total_rows_read += rows
        self.total_cost_ns += cost
        return cost
