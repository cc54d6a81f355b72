"""Random-permutation preprocessing (paper Section 4.2, Challenge 1).

FastMatch randomly permutes tuples once, offline; afterwards a *sequential*
scan starting anywhere is a uniform without-replacement sample, letting the
system trade random I/O for cheap sequential I/O.  The same trick is used by
other AQP systems the paper cites [76, 63, 78].
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockLayout
from .table import ColumnTable

__all__ = ["ShuffledTable", "shuffle_table"]


class ShuffledTable:
    """A permuted table plus its block layout — the unit FastMatch runs on."""

    def __init__(self, table: ColumnTable, layout: BlockLayout) -> None:
        if layout.num_rows != table.num_rows:
            raise ValueError(
                f"layout covers {layout.num_rows} rows, table has {table.num_rows}"
            )
        self.table = table
        self.layout = layout

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def num_blocks(self) -> int:
        return self.layout.num_blocks

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    def random_start_block(self, rng: np.random.Generator) -> int:
        """A uniform starting block for a run (Section 5.2: 'started from a
        random position in the shuffled data')."""
        if self.num_blocks == 0:
            return 0
        return int(rng.integers(0, self.num_blocks))


def shuffle_table(
    table: ColumnTable, block_size: int, rng: np.random.Generator
) -> ShuffledTable:
    """Permute a table's rows and lay it out in fixed-size blocks."""
    permuted = table.permuted(rng)
    return ShuffledTable(permuted, BlockLayout(permuted.num_rows, block_size))
