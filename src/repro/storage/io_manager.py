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

        The sampling engine charges every window it delivers through this
        method, once, whichever execution backend gathers and counts the
        rows (and whenever it does), so cost accounting cannot differ
        across backends.  ``blocks`` must be sorted and unique (the engine reads in storage
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
