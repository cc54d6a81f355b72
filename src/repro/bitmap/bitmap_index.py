"""Bit-per-block bitmap index (paper Section 4.1, "Bitmap Index Structures").

For an attribute value ``v``, bit ``b`` is set iff block ``b`` contains at
least one tuple with that value.  This is the paper's storage-frugal variant
of the per-tuple bitmaps used in earlier sampling engines — one bit per
block per value — and is what the AnyActive policy probes.

Bits are stored MSB-first inside each byte (NumPy ``packbits`` convention).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockBitmapIndex"]

#: Bound on :meth:`BlockBitmapIndex.build`'s unpacked scratch, in bytes.  On
#: TAXI's location column (7,641 values, 32-row blocks; best of five on a
#: 2-vCPU Xeon, peak traced by ``tracemalloc``, index included), 400k rows
#: build in six chunks in 0.025 s at a 29 MiB peak, against 0.041 s and
#: 103 MiB in one 128 MiB chunk; 6M rows (1.43 GB unpacked) build in 0.45 s
#: at a 189 MiB peak (171 MiB of it the index), against 0.79 s and 315 MiB.
#: 8 MiB saves another 9 MiB at 6M rows and is no faster.
_BUILD_SCRATCH_BYTES = 16 << 20


def _packed_presence(
    rows: np.ndarray, cardinality: int, num_blocks: int, block_size: int
) -> np.ndarray:
    """Packed presence bits of ``rows`` over their own ``num_blocks`` blocks."""
    bits = np.zeros((cardinality, num_blocks), dtype=np.uint8)
    if rows.size:
        bits[rows, np.arange(rows.size, dtype=np.int64) // block_size] = 1
    return np.packbits(bits, axis=1)


class BlockBitmapIndex:
    """Packed presence bitmaps: shape ``(cardinality, ⌈num_blocks/8⌉)`` bytes."""

    def __init__(self, packed: np.ndarray, cardinality: int, num_blocks: int) -> None:
        expected_bytes = -(-num_blocks // 8)
        if packed.shape != (cardinality, expected_bytes):
            raise ValueError(
                f"packed shape {packed.shape} does not match "
                f"({cardinality}, {expected_bytes})"
            )
        self._packed = packed
        self.cardinality = cardinality
        self.num_blocks = num_blocks

    # ------------------------------------------------------------ construction

    @classmethod
    def build(cls, column: np.ndarray, cardinality: int, block_size: int) -> "BlockBitmapIndex":
        """Build from an encoded column laid out in ``block_size``-row blocks."""
        column = np.asarray(column)
        if column.ndim != 1:
            raise ValueError("column must be 1-D")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        num_rows = column.size
        num_blocks = -(-num_rows // block_size) if num_rows else 0
        if num_rows and (column.min() < 0 or column.max() >= cardinality):
            raise ValueError("column codes out of range")
        # One unpacked (cardinality, chunk) byte matrix at a time, its chunk a
        # multiple of 8 blocks so each packs into whole bytes.
        chunk = max(8, _BUILD_SCRATCH_BYTES // max(cardinality, 1) // 8 * 8)
        if num_blocks <= chunk:
            packed = _packed_presence(column, cardinality, num_blocks, block_size)
        else:
            packed = np.empty((cardinality, -(-num_blocks // 8)), dtype=np.uint8)
            for first in range(0, num_blocks, chunk):
                last = min(first + chunk, num_blocks)
                packed[:, first // 8 : -(-last // 8)] = _packed_presence(
                    column[first * block_size : last * block_size],
                    cardinality, last - first, block_size,
                )
        return cls(packed, cardinality, num_blocks)

    # ----------------------------------------------------------------- queries

    def contains(self, value: int, block: int) -> bool:
        """Is there any tuple with ``value`` in ``block``? (one probe)"""
        if not 0 <= value < self.cardinality:
            raise ValueError(f"value {value} out of range")
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range")
        byte = self._packed[value, block >> 3]
        return bool((byte >> (7 - (block & 7))) & 1)

    def blocks_with_value(self, value: int) -> np.ndarray:
        """Boolean presence vector over all blocks for one value."""
        if not 0 <= value < self.cardinality:
            raise ValueError(f"value {value} out of range")
        bits = np.unpackbits(self._packed[value])[: self.num_blocks]
        return bits.astype(bool)

    def _checked_span(self, start_block: int, stop_block: int) -> int:
        """The span of the window ``[start_block, stop_block)``, which must
        lie inside the index; O(1)."""
        if not 0 <= start_block <= stop_block <= self.num_blocks:
            raise ValueError(
                f"window [{start_block}, {stop_block}) outside [0, {self.num_blocks})"
            )
        return stop_block - start_block

    def _checked_window(
        self, values: np.ndarray, start_block: int, stop_block: int
    ) -> tuple[np.ndarray, int]:
        """Validate a window query; the values as int64 and the window's span."""
        values = np.asarray(values, dtype=np.int64)
        span = self._checked_span(start_block, stop_block)
        if values.size and span:  # an empty query touches no value
            if values.min() < 0 or values.max() >= self.cardinality:
                raise ValueError("values out of range")
        return values, span

    def chunk_presence(
        self, values: np.ndarray, start_block: int, stop_block: int
    ) -> np.ndarray:
        """Presence matrix ``(len(values), stop−start)`` for a block window.

        This is the batch the lookahead thread (Algorithm 3) walks: for each
        candidate row, the window's bits are contiguous in storage.
        """
        values, span = self._checked_window(values, start_block, stop_block)
        if values.size == 0 or span == 0:
            return np.zeros((values.size, span), dtype=bool)
        byte0 = start_block >> 3
        byte1 = -(-stop_block // 8)
        window = np.unpackbits(self._packed[values, byte0:byte1], axis=1)
        offset = start_block - byte0 * 8
        return window[:, offset : offset + span].astype(bool)

    def any_present(
        self, values: np.ndarray, start_block: int, stop_block: int
    ) -> np.ndarray:
        """Per block of the window: is *any* of ``values`` present?

        Equal to ``chunk_presence(values, start, stop).any(axis=0)`` without
        the ``(len(values), span)`` boolean matrix: the candidates' *packed*
        bytes are OR-reduced over the window (Algorithm 3 streams packed
        words) and one row is unpacked.  When ``values`` is every candidate
        in order the packed rows are a plain slice, not a gather.
        """
        values, span = self._checked_window(values, start_block, stop_block)
        if values.size == 0 or span == 0:
            return np.zeros(span, dtype=bool)
        every = values.size == self.cardinality and (np.diff(values) == 1).all()
        return self._union_bits(slice(None) if every else values, start_block, stop_block)

    def any_present_ascending(
        self, values: np.ndarray, start_block: int, stop_block: int
    ) -> np.ndarray:
        """:meth:`any_present` for ``values`` ascending and distinct — the
        sampling engine's active set, a ``flatnonzero``.

        Such a set is in range when its two ends are, so the check is O(1)
        instead of a min/max pass, and it is every candidate exactly when it
        has ``cardinality`` entries.  The window is checked as
        :meth:`any_present` checks it: a descending one raises.
        """
        span = self._checked_span(start_block, stop_block)
        if values.size == 0 or span == 0:
            return np.zeros(span, dtype=bool)
        if values[0] < 0 or values[-1] >= self.cardinality:
            raise ValueError("values out of range")
        every = values.size == self.cardinality
        return self._union_bits(slice(None) if every else values, start_block, stop_block)

    def _union_bits(self, rows, start_block: int, stop_block: int) -> np.ndarray:
        """OR of the packed ``rows`` (a checked value array, or a slice) over
        the non-empty window ``[start_block, stop_block)``, one bit per block."""
        byte0 = start_block >> 3
        byte1 = -(-stop_block // 8)
        bits = np.unpackbits(
            np.bitwise_or.reduce(self._packed[rows, byte0:byte1], axis=0)
        )
        offset = start_block - byte0 * 8
        return bits[offset : offset + stop_block - start_block].view(np.bool_)

    def first_present(
        self, values: np.ndarray, start_block: int, stop_block: int
    ) -> np.ndarray:
        """For each block in the window: the index *within* ``values`` of the
        first value present, or ``len(values)`` when none is.

        This models Algorithm 2's early-exit probe loop: the number of probes
        spent on block ``b`` is ``first_present[b] + 1`` when a value is found
        and ``len(values)`` when the block is skipped.
        """
        presence = self.chunk_presence(values, start_block, stop_block)
        if presence.size == 0:
            return np.full(stop_block - start_block, values.size, dtype=np.int64)
        first = np.argmax(presence, axis=0).astype(np.int64)
        none_present = ~presence.any(axis=0)
        first[none_present] = values.size
        return first

    @property
    def nbytes(self) -> int:
        """Index footprint — the quantity the residency model cares about."""
        return int(self._packed.nbytes)
