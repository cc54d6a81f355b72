"""Bit-per-block presence index (paper Section 4.1, "Bitmap Index Structures").

For an attribute value ``v``, block ``b`` is marked iff it contains at least
one tuple with that value.  This is the paper's storage-frugal variant of
the per-tuple bitmaps used in earlier sampling engines — one bit per block
per value — and is what the AnyActive policy probes.

Each value's presence is kept in one of two forms, chosen per value at
build time from the data (the Roaring-bitmap idiom; Chambi, Lemire, Kaser
and Godin, 2016):

- a *dense* value keeps a packed row of ``⌈num_blocks/8⌉`` bytes, bits
  MSB-first inside each byte (NumPy ``packbits`` convention);
- a *listed* value keeps the ascending list of the blocks it occurs in.

A value's rows bound the blocks it occupies, so its list is the smaller
form whenever its row count times an entry's width is under a packed row's
bytes.  A value is listed when that holds with the entry priced at
``_LIST_COST`` times its width, since a list costs more to read than its
bytes suggest; on a column with a long rare tail (TAXI's 7,641 locations)
most values are still listed, and a column whose values each fill a good
share of the blocks keeps them all dense.  The lists are stored together as
one ascending array of keys ``value << shift | block``, where ``shift``
bits hold a block id and the dtype is the narrowest unsigned one holding
``cardinality << shift``, so every value's blocks inside a window come out
of one ``searchsorted``, whichever values a query asks about.

Beside the rows the index keeps one number per block: how many distinct
dense values the block holds (its column of dense bits, summed).  With it a
block holds an active dense value exactly when it holds more distinct dense
values than inactive ones, so marking a window for an active set ``A`` can
read the bits of the inactive dense values instead of ``A``'s — the smaller
side once most candidates are active
(:meth:`BlockBitmapIndex.any_present_ascending`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockBitmapIndex"]

#: Bound on :meth:`BlockBitmapIndex.build`'s unpacked scratch for the dense
#: values, in bytes.  A freed scratch stays resident in the allocator's heap,
#: so the bound also sets what a build leaves behind.  In table4_oneshot's
#: set-up (three datasets, its four indexes, set up three times; 2-vCPU
#: Xeon) the process settled at 117.4 MiB RSS with 8 MiB, 118.1 with 4 MiB
#: and 122.0 with 16 MiB, and the four builds took 0.056-0.065 s at 8 MiB
#: against 0.066-0.067 s at 16 (best of five).  Built all dense, TAXI's
#: location column at 6M rows (1.43 GB unpacked) took 0.45 s at a 189 MiB
#: traced peak in 16 MiB chunks, against 0.79 s and 315 MiB in 128 MiB ones.
_BUILD_SCRATCH_BYTES = 8 << 20

#: Rows whose flat scratch index :func:`_packed_presence` holds at once
#: (8 bytes each): 512 KiB of index, so the build's transient memory is its
#: scratch.  The listed values' keys are made this many rows at a time too.
_SCATTER_ROWS = 1 << 16

#: Distinct counts are read off the build's scratch, one byte per dense
#: value a block, until sorting each block's own ``block_size`` rows is
#: cheaper: above ``_SORT_BLOCKS_ABOVE * block_size`` dense values.  On a
#: 2-vCPU Xeon the sum costs about 0.07 ns a scratch byte (1.1 ms a 16 MiB
#: chunk) and the sort about 3.5 ns a row (1.4 ms for 400k rows of 32-row
#: blocks), which meet near 50 values a row of a block.
_SORT_BLOCKS_ABOVE = 64

#: Marking reads the inactive dense values' bits when ``|I| *
#: _INACTIVE_SIDE < |A|``: unpacking and summing ``|I|`` rows costs about
#: what OR-reducing ``8 * |I|`` packed rows does on the narrowest Table-3
#: column.  Over a 1,024-block window (best of 50, 2-vCPU Xeon): 347 values
#: with 40 inactive read 13.9 against 15.3 µs for the OR, with 80 inactive
#: 18.5 against 14.0; 2,110 values with 160 inactive 35 against 83 µs;
#: 7,641 values with 160 inactive 55 against 342 µs.
_INACTIVE_SIDE = 8

#: A value is listed only when its list, each entry priced at this many
#: times its width, is still smaller than its packed row.  Reading a listed
#: value's window costs a search and a gather per block where a dense row
#: streams ``⌈span/8⌉`` bytes.  Replaying police-q3's recorded windows
#: (POLICE's 2,110 violations at 1M rows in 32-row blocks, 4-byte keys;
#: 2-vCPU Xeon), its marking took 4.7x the all-dense time at 1, where a
#: median 155 of the active values were listed; 3.0x at 4 (13 listed);
#: 1.13x at 8 (none).  At 8 and 4-byte keys a listed value has fewer rows
#: than 1/256 of the blocks — at 32-row blocks a share of the table under
#: 1/8192, below the ``sigma`` of 0.0008 under which HistSim drops a
#: candidate after stage 1 — so the values marking reads stay dense.
_LIST_COST = 8


def _packed_presence(
    codes: np.ndarray, dense: int, num_blocks: int, block_size: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Packed presence bits of the codes below ``dense`` over their own
    ``num_blocks`` blocks, and each block's count of distinct such codes.
    Code ``dense`` marks a listed value's row: its bits fall in a sink row
    that is dropped."""
    bits = np.zeros((dense + 1, num_blocks), dtype=np.uint8)
    flat = bits.reshape(-1)
    # Row r sets byte (codes[r], r // block_size), through one flat index
    # per row, made a bounded slab of whole blocks at a time.
    step = max(1, _SCATTER_ROWS // block_size)
    for first in range(0, num_blocks, step):
        slab = codes[first * block_size : (first + step) * block_size]
        at = np.multiply(slab, num_blocks, dtype=np.intp)
        whole = slab.size // block_size
        body = at[: whole * block_size].reshape(whole, block_size)
        body += np.arange(first, first + whole, dtype=np.intp)[:, None]
        at[whole * block_size :] += first + whole  # the short last block
        flat[at] = 1
    bits = bits[:dense]
    if dense > _SORT_BLOCKS_ABOVE * block_size:
        distinct = _distinct_sorted(codes, num_blocks, block_size, dtype, sink=dense)
    else:
        distinct = _distinct_of_bits(bits, dtype)
    return np.packbits(bits, axis=1), distinct


def _distinct_of_bits(bits: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Column sums of an unpacked 0/1 ``(values, blocks)`` byte matrix: byte
    adds of up to 255 rows at a time, which cannot overflow a byte."""
    distinct = np.zeros(bits.shape[1], dtype=dtype)
    for first in range(0, bits.shape[0], 255):
        distinct += np.add.reduce(bits[first : first + 255], axis=0, dtype=np.uint8)
    return distinct


def _distinct_sorted(
    codes: np.ndarray, num_blocks: int, block_size: int, dtype: np.dtype, sink: int
) -> np.ndarray:
    """Distinct codes other than ``sink`` (the largest) per block, each
    block's codes sorted: its first code and each one that differs from its
    neighbour, less one where the block's last code is the sink."""
    whole = codes.size // block_size
    body = np.sort(codes[: whole * block_size].reshape(whole, block_size), axis=1)
    new = np.empty(body.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(body[:, 1:], body[:, :-1], out=new[:, 1:])
    distinct = np.empty(num_blocks, dtype=dtype)
    np.add.reduce(new.view(np.uint8), axis=1, dtype=dtype, out=distinct[:whole])
    distinct[:whole] -= (body[:, -1] == sink).view(np.uint8)
    if whole < num_blocks:  # the short last block
        tail = np.unique(codes[whole * block_size :])
        distinct[whole] = tail.size - (tail[-1] == sink)
    return distinct


class BlockBitmapIndex:
    """Per-value block presence: packed rows for the dense values, a sorted
    key list for the others, and each block's count of distinct dense
    values.  Made by :meth:`build`."""

    def __init__(
        self,
        cardinality: int,
        num_blocks: int,
        rank: np.ndarray,
        packed: np.ndarray,
        distinct: np.ndarray,
        keys: np.ndarray,
        shift: int,
    ) -> None:
        #: Row of each value in ``_packed``, or -1 for a listed value.
        self._rank = rank
        self._packed = packed
        self._distinct = distinct
        #: ``value << _shift | block`` of every listed value's blocks.
        self._keys = keys
        self._shift = shift
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
        # Each value's row count decides its form; a code past the last value
        # lengthens the counts, which is the range check's upper half.
        if num_rows and column.dtype.kind != "u" and column.min() < 0:
            raise ValueError("column codes out of range")
        rows = np.bincount(column, minlength=cardinality) if num_rows else np.zeros(cardinality)
        if rows.size > cardinality:
            raise ValueError("column codes out of range")
        shift = max(num_blocks - 1, 0).bit_length()
        key_dtype = np.min_scalar_type(cardinality << shift)
        listed = rows * (key_dtype.itemsize * _LIST_COST) < -(-num_blocks // 8)
        dense = np.flatnonzero(~listed)
        rank = np.full(cardinality, -1, dtype=np.intp)
        rank[dense] = np.arange(dense.size)
        # The dense values' codes are their rows in the packed matrix; every
        # listed value's code is ``dense.size``, the scratch's sink row.
        if listed.any():
            code_of = rank.astype(np.min_scalar_type(dense.size))
            code_of[listed] = dense.size
        else:
            code_of = None
        packed, distinct = _dense_rows(
            column, code_of, dense.size, num_blocks, block_size,
            np.min_scalar_type(min(int(block_size), int(cardinality))),
        )
        keys = _listed_keys(column, listed, shift, block_size, key_dtype)
        return cls(cardinality, num_blocks, rank, packed, distinct, keys, shift)

    # ----------------------------------------------------------------- queries

    def _check_value(self, value: int) -> None:
        if not 0 <= value < self.cardinality:
            raise ValueError(f"value {value} out of range")

    def contains(self, value: int, block: int) -> bool:
        """Is there any tuple with ``value`` in ``block``? (one probe)"""
        self._check_value(value)
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range")
        row = self._rank[value]
        if row >= 0:
            byte = self._packed[row, block >> 3]
            return bool((byte >> (7 - (block & 7))) & 1)
        key = self._keys.dtype.type(value << self._shift | block)
        at = int(np.searchsorted(self._keys, key))
        return at < self._keys.size and int(self._keys[at]) == key

    def blocks_with_value(self, value: int) -> np.ndarray:
        """Boolean presence vector over all blocks for one value."""
        self._check_value(value)
        row = self._rank[value]
        if row >= 0:
            return np.unpackbits(self._packed[row])[: self.num_blocks].astype(bool)
        first = value << self._shift
        lo, hi = np.searchsorted(
            self._keys, np.array([first, first + self.num_blocks], dtype=self._keys.dtype)
        )
        present = np.zeros(self.num_blocks, dtype=bool)
        present[self._keys[lo:hi] - first] = True
        return present

    @property
    def distinct(self) -> np.ndarray:
        """Each block's count of distinct values."""
        listed = np.bincount((self._keys & self._mask).astype(np.intp), minlength=self.num_blocks)
        return self._distinct + listed.astype(self._distinct.dtype)

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
        candidate row, the window's bits.
        """
        values, span = self._checked_window(values, start_block, stop_block)
        if values.size == 0 or span == 0:
            return np.zeros((values.size, span), dtype=bool)
        unique, inverse = np.unique(values, return_inverse=True)
        rank = self._rank[unique]
        dense = rank >= 0
        found = np.zeros((unique.size, span), dtype=bool)
        if dense.any():
            found[dense] = self._window_bits(rank[dense], start_block, stop_block)
        which = np.flatnonzero(~dense)
        if which.size:
            counts, blocks = self._listed_in_window(unique[which], start_block, stop_block)
            found[np.repeat(which, counts), blocks] = True
        return found[inverse]

    def any_present(
        self, values: np.ndarray, start_block: int, stop_block: int
    ) -> np.ndarray:
        """Per block of the window: is *any* of ``values`` present?

        Equal to ``chunk_presence(values, start, stop).any(axis=0)`` without
        the ``(len(values), span)`` boolean matrix (see
        :meth:`any_present_ascending`).
        """
        values, span = self._checked_window(values, start_block, stop_block)
        if values.size == 0 or span == 0:
            return np.zeros(span, dtype=bool)
        return self._marks(np.unique(values), start_block, stop_block)

    def any_present_ascending(
        self, values: np.ndarray, start_block: int, stop_block: int
    ) -> np.ndarray:
        """:meth:`any_present` for ``values`` ascending and distinct — the
        sampling engine's active set, a ``flatnonzero``.

        Such a set is in range when its two ends are, so the check is O(1)
        instead of a min/max pass.  The window is checked as
        :meth:`any_present` checks it: a descending one raises.
        """
        span = self._checked_span(start_block, stop_block)
        if values.size == 0 or span == 0:
            return np.zeros(span, dtype=bool)
        if values[0] < 0 or values[-1] >= self.cardinality:
            raise ValueError("values out of range")
        return self._marks(values, start_block, stop_block)

    def _marks(self, values: np.ndarray, start_block: int, stop_block: int) -> np.ndarray:
        """Per block of the non-empty window: does it hold any of ``values``
        (ascending, distinct, non-empty)?

        The active dense rows' packed bytes are OR-reduced over the window
        (Algorithm 3 streams packed words) and one row is unpacked.  When the
        inactive dense values ``I`` are few next to the active ``A`` (``|I| *
        _INACTIVE_SIDE < |A|``), a block is marked iff its distinct dense
        count exceeds the number of inactive dense values present in it —
        ``|I|`` rows unpacked and summed instead of ``|A|`` rows OR-reduced.
        The active listed values' blocks in the window are then marked too.
        Every answer is exact, so the read mask is the same either way.
        """
        if self._packed.shape[0] == self.cardinality:  # a value is its row
            return self._dense_marks(values, start_block, stop_block)
        rank = self._rank[values]
        if rank.min() >= 0:
            return self._dense_marks(rank, start_block, stop_block)
        marks = self._dense_marks(rank[rank >= 0], start_block, stop_block)
        listed = values[rank < 0]
        marks[self._listed_in_window(listed, start_block, stop_block)[1]] = True
        return marks

    def _dense_marks(self, rows: np.ndarray, start_block: int, stop_block: int) -> np.ndarray:
        """Per block of the window: does it hold a dense value of ``rows``
        (ascending packed rows)?  Reads the smaller side."""
        span = stop_block - start_block
        if not rows.size:
            return np.zeros(span, dtype=bool)
        dense = self._packed.shape[0]
        inactive = dense - rows.size
        if inactive * _INACTIVE_SIDE >= rows.size:
            return self._union_bits(rows, start_block, stop_block)
        distinct = self._distinct[start_block:stop_block]
        if not inactive:  # every dense value is active
            return distinct > 0
        others = np.ones(dense, dtype=bool)
        others[rows] = False
        present = np.add.reduce(
            self._window_bits(others, start_block, stop_block), axis=0,
            dtype=np.min_scalar_type(inactive),
        )
        return distinct > present

    def _window_bits(self, rows, start_block: int, stop_block: int) -> np.ndarray:
        """Unpacked 0/1 bytes of the packed ``rows`` over the window."""
        byte0 = start_block >> 3
        bits = np.unpackbits(self._packed[rows, byte0 : -(-stop_block // 8)], axis=1)
        offset = start_block - byte0 * 8
        return bits[:, offset : offset + stop_block - start_block]

    def _union_bits(self, rows, start_block: int, stop_block: int) -> np.ndarray:
        """OR of the packed ``rows`` over the non-empty window ``[start_block,
        stop_block)``, one bit per block."""
        byte0 = start_block >> 3
        byte1 = -(-stop_block // 8)
        bits = np.unpackbits(
            np.bitwise_or.reduce(self._packed[rows, byte0:byte1], axis=0)
        )
        offset = start_block - byte0 * 8
        return bits[offset : offset + stop_block - start_block].view(np.bool_)

    def _listed_in_window(
        self, values: np.ndarray, start_block: int, stop_block: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """How many blocks of the window hold each of the listed ``values``
        (ascending, distinct), and those blocks' offsets in the window,
        value by value.

        Each value's blocks in the window are the keys from ``value <<
        _shift | start_block`` up to ``... | stop_block``: one search over
        every value's two bounds finds them all.
        """
        keys = self._keys
        bounds = np.add.outer(
            values.astype(keys.dtype) << self._shift,
            np.array([start_block, stop_block], dtype=keys.dtype),
        )
        found = np.searchsorted(keys, bounds)
        first = found[:, 0]
        counts = found[:, 1] - first
        at = np.repeat(first - (np.cumsum(counts) - counts), counts)
        at += np.arange(at.size)
        blocks = keys[at] & self._mask
        blocks -= start_block
        return counts, blocks

    @property
    def _mask(self):
        """The block bits of a key."""
        return self._keys.dtype.type((1 << self._shift) - 1)

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
        """Bytes of presence data: the dense values' packed rows and the
        listed values' keys.  The per-block distinct counts and the
        value-to-row map are left out, as the counts always were, so an
        index whose values are all dense weighs what it did in a
        byte-bounded artifact cache.  The cost model's residency test prices
        the paper's dense ``cardinality × num_blocks`` bits instead
        (:meth:`~repro.storage.cost_model.CostModel.bitmaps_resident`)."""
        return int(self._packed.nbytes + self._keys.nbytes)


def _dense_rows(
    column: np.ndarray,
    code_of: np.ndarray | None,
    dense: int,
    num_blocks: int,
    block_size: int,
    dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Packed rows of the ``dense`` values and each block's distinct dense
    count, one unpacked ``(dense + 1, chunk)`` byte matrix at a time; the
    chunk is a multiple of 8 blocks so each packs into whole bytes.
    ``code_of`` maps a value to its row (``dense`` for a listed value), or
    is None when every value is dense."""
    chunk = max(8, _BUILD_SCRATCH_BYTES // (dense + 1) // 8 * 8)
    packed = np.empty((dense, -(-num_blocks // 8)), dtype=np.uint8)
    distinct = np.empty(num_blocks, dtype=dtype)
    for first in range(0, num_blocks, chunk):
        last = min(first + chunk, num_blocks)
        codes = column[first * block_size : last * block_size]
        if code_of is not None:
            codes = code_of[codes]
        bits, counts = _packed_presence(codes, dense, last - first, block_size, dtype)
        packed[:, first // 8 : -(-last // 8)] = bits
        distinct[first:last] = counts
    return packed, distinct


def _listed_keys(
    column: np.ndarray,
    listed: np.ndarray,
    shift: int,
    block_size: int,
    dtype: np.dtype,
) -> np.ndarray:
    """``value << shift | block`` of every listed value's blocks, ascending
    and distinct: made from the listed values' rows alone, a bounded slab of
    rows at a time, then sorted once."""
    if not listed.any():
        return np.empty(0, dtype=dtype)
    step = max(1, _SCATTER_ROWS // block_size) * block_size
    parts = []
    for first in range(0, column.size, step):
        slab = column[first : first + step]
        at = np.flatnonzero(listed[slab])
        key = slab[at].astype(dtype)
        key <<= shift
        at += first
        at //= block_size
        key |= at.astype(dtype)
        parts.append(key)
    keys = np.concatenate(parts)
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]
