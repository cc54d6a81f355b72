"""Bit-per-block bitmap index (paper Section 4.1, "Bitmap Index Structures").

For an attribute value ``v``, bit ``b`` is set iff block ``b`` contains at
least one tuple with that value.  This is the paper's storage-frugal variant
of the per-tuple bitmaps used in earlier sampling engines — one bit per
block per value — and is what the AnyActive policy probes.

Bits are stored MSB-first inside each byte (NumPy ``packbits`` convention).

Beside the bits the index keeps one number per block: how many distinct
values the block holds (its column of bits, summed).  With it a block holds
an active value exactly when it holds more distinct values than inactive
ones, so marking a window for an active set ``A`` can read the bits of the
inactive set ``I`` instead of ``A``'s — the smaller side once most
candidates are active (:meth:`BlockBitmapIndex.any_present_ascending`).
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

#: Rows whose flat scratch index :func:`_packed_presence` holds at once
#: (8 bytes each): 512 KiB of index, so the build's transient memory is its
#: scratch.
_SCATTER_ROWS = 1 << 16

#: Distinct counts are read off the build's scratch, ``cardinality`` bytes
#: a block, until sorting each block's own ``block_size`` rows is cheaper:
#: above ``_SORT_BLOCKS_ABOVE * block_size`` values.  On a 2-vCPU Xeon the
#: sum costs about 0.07 ns a scratch byte (1.1 ms a 16 MiB chunk) and the
#: sort about 3.5 ns a row (1.4 ms for 400k rows of 32-row blocks), which
#: meet near 50 values a row of a block.  At 32-row blocks, TAXI's location
#: (7,641 values) and POLICE's violation (2,110) sort; FLIGHTS' origin (347)
#: and POLICE's road (210) sum.
_SORT_BLOCKS_ABOVE = 64

#: Marking reads the inactive set's bits when ``|I| * _INACTIVE_SIDE <
#: |A|``: unpacking and summing ``|I|`` rows costs about what OR-reducing
#: ``8 * |I|`` packed rows does on the narrowest Table-3 column.  Over a
#: 1,024-block window (best of 50, 2-vCPU Xeon): 347 values with 40
#: inactive read 13.9 against 15.3 µs for the OR, with 80 inactive 18.5
#: against 14.0; 2,110 values with 160 inactive 35 against 83 µs; 7,641
#: values with 160 inactive 55 against 342 µs.
_INACTIVE_SIDE = 8


def _packed_presence(
    rows: np.ndarray, cardinality: int, num_blocks: int, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Packed presence bits of ``rows`` over their own ``num_blocks`` blocks,
    and each block's count of distinct values."""
    bits = np.zeros((cardinality, num_blocks), dtype=np.uint8)
    flat = bits.reshape(-1)
    # Row r sets byte (rows[r], r // block_size), through one flat index per
    # row, made a bounded slab of whole blocks at a time.
    step = max(1, _SCATTER_ROWS // block_size)
    for first in range(0, num_blocks, step):
        slab = rows[first * block_size : (first + step) * block_size]
        at = np.multiply(slab, num_blocks, dtype=np.intp)
        whole = slab.size // block_size
        body = at[: whole * block_size].reshape(whole, block_size)
        body += np.arange(first, first + whole, dtype=np.intp)[:, None]
        at[whole * block_size :] += first + whole  # the short last block
        flat[at] = 1
    dtype = _distinct_dtype(cardinality, block_size)
    if cardinality > _SORT_BLOCKS_ABOVE * block_size:
        distinct = _distinct_sorted(rows, num_blocks, block_size, dtype)
    else:
        distinct = _distinct_of_bits(bits, dtype)
    return np.packbits(bits, axis=1), distinct


def _distinct_dtype(cardinality: int, block_size: int) -> np.dtype:
    """The narrowest unsigned dtype holding a block's distinct count."""
    return np.min_scalar_type(min(int(block_size), int(cardinality)))


def _distinct_of_bits(bits: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Column sums of an unpacked 0/1 ``(values, blocks)`` byte matrix: byte
    adds of up to 255 rows at a time, which cannot overflow a byte."""
    distinct = np.zeros(bits.shape[1], dtype=dtype)
    for first in range(0, bits.shape[0], 255):
        distinct += np.add.reduce(bits[first : first + 255], axis=0, dtype=np.uint8)
    return distinct


def _distinct_sorted(
    rows: np.ndarray, num_blocks: int, block_size: int, dtype: np.dtype
) -> np.ndarray:
    """Distinct values per block of ``rows``, each block's rows sorted: its
    first value and each one that differs from its neighbour."""
    whole = rows.size // block_size
    body = np.sort(rows[: whole * block_size].reshape(whole, block_size), axis=1)
    new = np.empty(body.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(body[:, 1:], body[:, :-1], out=new[:, 1:])
    distinct = np.empty(num_blocks, dtype=dtype)
    np.add.reduce(new.view(np.uint8), axis=1, dtype=dtype, out=distinct[:whole])
    if whole < num_blocks:  # the short last block
        distinct[whole] = np.unique(rows[whole * block_size :]).size
    return distinct


class BlockBitmapIndex:
    """Packed presence bitmaps: shape ``(cardinality, ⌈num_blocks/8⌉)`` bytes,
    and each block's count of distinct values.

    ``distinct`` is what :meth:`build` computes beside the bits; an index
    constructed from bits alone derives it from them, once.
    """

    def __init__(
        self,
        packed: np.ndarray,
        cardinality: int,
        num_blocks: int,
        distinct: np.ndarray | None = None,
    ) -> None:
        expected_bytes = -(-num_blocks // 8)
        if packed.shape != (cardinality, expected_bytes):
            raise ValueError(
                f"packed shape {packed.shape} does not match "
                f"({cardinality}, {expected_bytes})"
            )
        if distinct is None:  # sum each block's bits, one bounded chunk at a time
            distinct = np.empty(expected_bytes * 8, dtype=np.min_scalar_type(cardinality))
            step = max(1, _BUILD_SCRATCH_BYTES // max(cardinality, 1) // 8)
            for first in range(0, expected_bytes, step):
                bits = np.unpackbits(packed[:, first : first + step], axis=1)
                distinct[first * 8 : first * 8 + bits.shape[1]] = _distinct_of_bits(
                    bits, distinct.dtype
                )
            distinct = distinct[:num_blocks]
        elif distinct.shape != (num_blocks,):
            raise ValueError(
                f"distinct counts of shape {distinct.shape}, expected ({num_blocks},)"
            )
        self._packed = packed
        self._distinct = distinct
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
        # multiple of 8 blocks so each packs into whole bytes; the distinct
        # counts come from the same scratch (or the chunk's own rows).
        chunk = max(8, _BUILD_SCRATCH_BYTES // max(cardinality, 1) // 8 * 8)
        if num_blocks <= chunk:
            packed, distinct = _packed_presence(
                column, cardinality, num_blocks, block_size
            )
        else:
            packed = np.empty((cardinality, -(-num_blocks // 8)), dtype=np.uint8)
            distinct = np.empty(num_blocks, dtype=_distinct_dtype(cardinality, block_size))
            for first in range(0, num_blocks, chunk):
                last = min(first + chunk, num_blocks)
                bits, counts = _packed_presence(
                    column[first * block_size : last * block_size],
                    cardinality, last - first, block_size,
                )
                packed[:, first // 8 : -(-last // 8)] = bits
                distinct[first:last] = counts
        return cls(packed, cardinality, num_blocks, distinct)

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
        instead of a min/max pass.  The window is checked as
        :meth:`any_present` checks it: a descending one raises.

        It also reads the smaller side of the set.  When the inactive values
        ``I`` are few next to the active ``A`` (``|I| * _INACTIVE_SIDE <
        |A|``), a block is marked iff its distinct count exceeds the number
        of inactive values present in it — ``|I|`` rows unpacked and summed
        over the window instead of ``|A|`` rows OR-reduced.  Both answers
        are exact, so the read mask is the same either way.
        """
        span = self._checked_span(start_block, stop_block)
        if values.size == 0 or span == 0:
            return np.zeros(span, dtype=bool)
        if values[0] < 0 or values[-1] >= self.cardinality:
            raise ValueError("values out of range")
        inactive = self.cardinality - values.size
        if inactive * _INACTIVE_SIDE >= values.size:
            return self._union_bits(values, start_block, stop_block)
        distinct = self._distinct[start_block:stop_block]
        if not inactive:  # every block holds a value, and every value is active
            return distinct > 0
        others = np.ones(self.cardinality, dtype=bool)
        others[values] = False
        byte0 = start_block >> 3
        bits = np.unpackbits(
            self._packed[others, byte0 : -(-stop_block // 8)], axis=1
        )
        offset = start_block - byte0 * 8
        present = np.add.reduce(
            bits[:, offset : offset + span], axis=0,
            dtype=np.min_scalar_type(inactive),
        )
        return distinct > present

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
