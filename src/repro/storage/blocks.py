"""Block layout: the granularity at which FastMatch requests I/O (Section 4.1).

The paper sets the block size per column to 600 bytes; with fixed-width
encoded columns this is a fixed number of *tuples* per block, which is the
quantity the simulation needs.  All index math between tuple offsets and
block indexes lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BlockLayout"]


@dataclass(frozen=True)
class BlockLayout:
    """Partition of ``num_rows`` tuples into fixed-size sequential blocks."""

    num_rows: int
    block_size: int

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise ValueError(f"num_rows must be non-negative, got {self.num_rows}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")

    @property
    def num_blocks(self) -> int:
        return -(-self.num_rows // self.block_size)  # ceil division

    def block_of_row(self, row: int | np.ndarray) -> int | np.ndarray:
        """Block index containing a tuple offset."""
        rows = np.asarray(row)
        if np.any(rows < 0) or np.any(rows >= self.num_rows):
            raise ValueError("row offset out of range")
        result = rows // self.block_size
        if np.ndim(row) == 0:
            return int(result)
        return result

    def block_bounds(self, block: int) -> tuple[int, int]:
        """Half-open tuple range ``[start, stop)`` of one block."""
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range [0, {self.num_blocks})")
        start = block * self.block_size
        return start, min(start + self.block_size, self.num_rows)

    def block_rows(self, block: int) -> int:
        """Number of tuples stored in one block (the last may be short)."""
        start, stop = self.block_bounds(block)
        return stop - start

    def rows_per_block(self, blocks: np.ndarray) -> np.ndarray:
        """Tuples stored in each given block (the final block may be short)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.size and (blocks.min() < 0 or blocks.max() >= self.num_blocks):
            raise ValueError("block index out of range")
        return np.minimum(self.block_size, self.num_rows - blocks * self.block_size)

    def ascending_rows(self, blocks: np.ndarray) -> int:
        """Tuples in ``blocks``, distinct and ascending, in O(1) from their
        size and last block: every block but the table's last holds
        ``block_size`` rows, so only the batch's last block can be short.
        The last block is range-checked as :meth:`block_bounds` checks it;
        no blocks hold no rows."""
        if blocks.size == 0:
            return 0
        return (blocks.size - 1) * self.block_size + self.block_rows(int(blocks[-1]))

    def rows_of_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Tuple offsets covered by the given block indexes, in block order."""
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.size == 0:
            return np.empty(0, dtype=np.int64)
        if blocks.min() < 0 or blocks.max() >= self.num_blocks:
            raise ValueError("block index out of range")
        starts = blocks * self.block_size
        stops = np.minimum(starts + self.block_size, self.num_rows)
        lengths = stops - starts
        offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths)
        return np.arange(lengths.sum(), dtype=np.int64) + offsets
