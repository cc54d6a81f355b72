"""Block-based sampling engine (paper Section 4: the Sampling Engine).

Implements the :class:`~repro.core.sampler.TupleSampler` protocol on top of
the storage and bitmap substrates, so HistSim runs unmodified against real
block mechanics:

- the scan proceeds sequentially from a random start block, wrapping once
  per pass (Challenge 1: randomness via shuffled layout);
- per window, a block-selection policy decides which blocks to read and what
  the decision costs (Challenge 3: AnyActive);
- already-read blocks are never re-read — their tuples were consumed, and
  fresh samples must be fresh;
- costs are charged to a simulated clock, serially (SyncMatch) or
  overlapped (FastMatch lookahead — Challenge 4);
- counting the delivered blocks' ``(candidate, group)`` cells routes
  through an :class:`~repro.parallel.ExecutionBackend`, so the serial and
  sharded execution paths share one engine and differ only in *who* counts.

The loop and the caller need different things from a window.  Block
selection needs *rows per candidate* now (who is still short of budget);
the histograms are read only when the call returns.  So a window is
delivered in one of two regimes, fixed at construction by one rule over
the code space, the same on every backend:

- **dense**: the backend counts the window's matrix at once and the call
  accumulates it.  Each matrix is reduced only as far as something reads
  it: a stage-2/3 window sums the rows of the candidates still active (the
  next active set reads nothing else, and a candidate that met its goal
  stays met), a stage-1 window none, and the call sums its accumulated
  matrix once, at its end, into the delivered totals.  A window's row
  count is block arithmetic — its size times ``block_size``, less the
  short last block's shortfall — or, under a row filter, the matrix's sum;
- **deferred**: the window only tallies the candidate column —
  O(rows + candidates) instead of O(rows + cells) — and the call counts all
  of its blocks in one ``count_blocks`` before returning.  That call-end
  window can hold most of the table in a few long runs (a near-full
  stage-2 pass); the kernel then counts it run by run, from zero-copy
  slices, instead of gathering its blocks.

A window defers when its matrix would be mostly zeros:
``num_candidates * num_groups`` exceeds ``window_blocks * block_size``,
more cells than a window has rows.  Whether a count crosses to workers is
the backend's own floor, in rows per call; below it a worker backend counts
inline, exactly as serial does.

Both return the same matrices and charge the same clock: simulated I/O is
accounted here, per window, never by the backend.

A window is built once, ascending, and checked once.  It is arithmetic on
the random start block and the scan position: one run of the table, or, in
the one window per pass that wraps, the head run from block 0 followed by
the tail run up to the table's end, each a slice of the consumed mask.
Every sampling call runs the same window step (:meth:`_sample`) — stage 1,
stages 2 and 3 and the wrap window alike — with what it reads every window
taken off the engine once per call.  Stage 1 still trims its row budget off
the *scan* (tail, then head).  What the construction proves, the layers
below read instead of re-checking, down to the counting kernel:

- the policy takes the window's span from its two ends (and uses the bit
  slice itself as the read mask when the window is one run); a window
  whose last block is below its first raises there;
- the active set is a ``flatnonzero``, so the bitmap range-checks it at its
  two ends and, once most candidates are active, reads the few inactive
  ones' bits instead (:meth:`~repro.bitmap.BlockBitmapIndex.any_present_ascending`);
- the I/O manager charges a delivered subset from its size and last block
  (:meth:`~repro.storage.io_manager.IOManager.charge`), and a worker
  backend reads its per-call row floor off the same two numbers
  (:meth:`~repro.storage.blocks.BlockLayout.ascending_rows`);
- the kernel range-checks a delivered subset at its two ends and knows it
  for one run when it spans as many blocks as it holds: the deferred
  regime's tally (:func:`~repro.parallel.kernels.tally_window`) and every
  inline ``count_blocks``
  (:func:`~repro.parallel.kernels.count_window_ascending`);
- stage 1 trims its row budget off the window's size and whether its tail
  ends on the table's short last block, with no per-block row array;
- the deferred regime's call-end count concatenates the call's ascending
  windows, or, when the call scanned past the table's end, reads its
  blocks off a mask.

The public entry points keep every check for arbitrary input:
:meth:`IOManager.read_cost <repro.storage.io_manager.IOManager.read_cost>`
still rejects an unsorted or out-of-range batch,
:meth:`BlockBitmapIndex.any_present
<repro.bitmap.BlockBitmapIndex.any_present>` still min/max-checks its
values, and :func:`~repro.parallel.count_window` takes blocks in any
order and min/max-checks them.

``row_filter`` and ``codes`` go together.  The filter is the engine's own
business — rows per candidate, the deferred regime's tally, ``total_rows``.
The prepared pair-code column, when the engine is given one, is by contract
the one *folded with that filter* (dropped rows hold the sentinel code), so
the backend counting it is handed the column and no filter: a filtered
window is gather + ``bincount`` on every backend, and a sharded backend
ships no filter segment.  The engine decides this from what it holds; the
column is spot-checked against the filter at construction.
"""

from __future__ import annotations

import time

import numpy as np

from ..bitmap.bitmap_index import BlockBitmapIndex
from ..obs.profiler import NULL_PROFILER
from ..parallel.backend import CountSource, ExecutionBackend, SerialBackend
from ..parallel.kernels import (
    check_pair_codes,
    rows_per_candidate,
    tally_window,
)
from ..storage.cost_model import CostModel
from ..storage.io_manager import IOManager
from ..storage.shuffle import ShuffledTable
from .policies import PolicyDecision, ScanAllPolicy

__all__ = ["BlockSamplingEngine", "EngineCounters"]


class EngineCounters:
    """Observable effort counters for reports and benchmarks."""

    __slots__ = ("blocks_read", "blocks_skipped", "rows_delivered", "probes", "windows")

    def __init__(self) -> None:
        self.blocks_read = 0
        self.blocks_skipped = 0
        self.rows_delivered = 0
        self.probes = 0
        self.windows = 0


class BlockSamplingEngine:
    """A :class:`TupleSampler` over a shuffled, block-laid-out table.

    Parameters
    ----------
    shuffled:
        The permuted table with its block layout.
    candidate_attribute, grouping_attribute:
        ``Z`` and ``X`` of the histogram-generating template.
    index:
        Bit-per-block bitmap index over ``Z`` (what AnyActive probes).
    cost_model, clock:
        The simulated-hardware constants and the clock charges go to.
    policy:
        Block-selection policy instance.
    rng:
        Chooses the random scan start (paper Section 5.2).
    window_blocks:
        Blocks examined per decision window; the active set refreshes at
        this granularity.  FastMatch sets it to ``lookahead``; SyncMatch
        uses a small window to approximate per-block freshness.
    row_filter:
        Optional boolean row mask (extra WHERE predicate).  AnyActive still
        keys on ``Z`` presence — a conservative superset of matching blocks
        — while delivered tuples are filtered exactly: by the backend's
        count, or by ``codes`` when the engine has them.
    backend:
        The :class:`~repro.parallel.ExecutionBackend` that counts the
        delivered blocks.  Default: a private serial backend.
    profiler:
        Optional :class:`~repro.obs.Profiler` the engine threads to the
        backend via its :class:`CountSource` — per-job attribution of
        counting-kernel effort even on a shared backend.  ``None`` (the
        default) wires the shared no-op profiler: one attribute load and
        branch per window, no allocation.
    codes:
        Optional prepared pair-code column, counted instead of ``Z`` and
        ``X`` whenever given (see :mod:`~repro.parallel.kernels`), one
        entry per row, **folded with this engine's** ``row_filter``
        (:func:`~repro.parallel.kernels.build_pair_codes` given the same
        mask; :meth:`PreparedQuery.with_pair_codes
        <repro.system.fastmatch.PreparedQuery.with_pair_codes>` is the one
        builder).  A column of the wrong shape, of a dtype that cannot hold
        the sentinel, or failing a strided spot check against the filter is
        rejected.
    candidate_totals:
        Optional per-candidate row totals *under ``row_filter``*, as a
        prepared artifact already holds them (the row sums of its exact
        counts).  Without them an unfiltered engine takes the table's
        memoised :meth:`~repro.storage.table.ColumnTable.value_counts`; only
        a filtered one counts the candidate column itself, an O(rows) pass.
    """

    def __init__(
        self,
        shuffled: ShuffledTable,
        candidate_attribute: str,
        grouping_attribute: str,
        index: BlockBitmapIndex,
        cost_model: CostModel,
        clock,
        policy=None,
        rng: np.random.Generator | None = None,
        window_blocks: int = 1024,
        row_filter: np.ndarray | None = None,
        start_block: int | None = None,
        backend: ExecutionBackend | None = None,
        profiler=None,
        codes: np.ndarray | None = None,
        candidate_totals: np.ndarray | None = None,
    ) -> None:
        if window_blocks < 1:
            raise ValueError(f"window_blocks must be >= 1, got {window_blocks}")
        self.shuffled = shuffled
        self.layout = shuffled.layout
        self.io = IOManager(shuffled, cost_model)
        self.backend = backend or SerialBackend()
        self.index = index
        self.cost_model = cost_model
        self.clock = clock
        self.policy = policy or ScanAllPolicy()
        self.window_blocks = window_blocks
        self.counters = EngineCounters()
        self.profiler = profiler if profiler is not None else NULL_PROFILER

        self._z_name = candidate_attribute
        self._x_name = grouping_attribute
        self._num_candidates = shuffled.table.cardinality(candidate_attribute)
        self._num_groups = shuffled.table.cardinality(grouping_attribute)
        # A window cannot touch more cells than it has rows: count the
        # call's cells once instead of a mostly-zero matrix per window.
        self._deferred = (
            self._num_candidates * self._num_groups
            > window_blocks * self.layout.block_size
        )

        if row_filter is not None:
            row_filter = np.asarray(row_filter, dtype=bool)
            if row_filter.shape != (shuffled.num_rows,):
                raise ValueError("row_filter must have one entry per row")
        self._row_filter = row_filter
        if codes is not None:
            if codes.shape != (shuffled.num_rows,):
                raise ValueError("codes must have one entry per row")
            check_pair_codes(codes, row_filter, self._num_candidates, self._num_groups)
        # Either the folded column or the filter, never both.
        self._source = CountSource(
            shuffled=shuffled,
            z_name=candidate_attribute,
            x_name=grouping_attribute,
            num_candidates=self._num_candidates,
            num_groups=self._num_groups,
            row_filter=row_filter if codes is None else None,
            profiler=self.profiler,
            codes=codes,
        )

        if candidate_totals is None:
            if row_filter is None:
                candidate_totals = shuffled.table.value_counts(candidate_attribute)
            else:
                candidate_totals = np.bincount(
                    shuffled.table.column(candidate_attribute)[row_filter],
                    minlength=self._num_candidates,
                )
        else:
            candidate_totals = np.asarray(candidate_totals)
            if candidate_totals.shape != (self._num_candidates,):
                raise ValueError("candidate_totals must have one entry per candidate")
        self._totals = candidate_totals.astype(np.int64, copy=False)
        self._delivered = np.zeros(self._num_candidates, dtype=np.int64)
        self._consumed = np.zeros(self.layout.num_blocks, dtype=bool)
        self._unconsumed = self.layout.num_blocks

        if start_block is None:
            start_block = shuffled.random_start_block(rng or np.random.default_rng())
        if self.layout.num_blocks and not 0 <= start_block < self.layout.num_blocks:
            raise ValueError(f"start_block {start_block} out of range")
        self._start = start_block
        self._scan_pos = 0  # blocks of the current pass already scanned

    # -------------------------------------------------------- protocol surface

    @property
    def num_candidates(self) -> int:
        return self._num_candidates

    @property
    def num_groups(self) -> int:
        return self._num_groups

    @property
    def total_rows(self) -> int:
        if self._row_filter is not None:
            return int(self._totals.sum())
        return self.shuffled.num_rows

    @property
    def fully_scanned(self) -> bool:
        return self._unconsumed == 0

    def delivered_rows(self) -> np.ndarray:
        """Rows delivered per candidate.  Each call grows it by exactly its
        matrix's row sums — per window in the deferred regime, once at the
        call's end in the dense one — so HistSim reads a call's row sums
        here instead of summing the matrix again."""
        return self._delivered.copy()

    def candidate_rows(self) -> np.ndarray | None:
        return self._totals.copy()

    # ------------------------------------------------------------- internals

    def _unconsumed_run(self, lo: int, hi: int) -> np.ndarray:
        """The unconsumed blocks of ``[lo, hi)``, ascending: a slice of the
        consumed mask, read as the whole range when none of it is taken."""
        taken = self._consumed[lo:hi]
        if not taken.any():
            return np.arange(lo, hi)
        blocks = np.logical_not(taken).nonzero()[0]
        blocks += lo
        return blocks

    def _fresh_counts(self, call: list[np.ndarray]) -> np.ndarray:
        """The count matrix of everything one sampling call delivered.

        ``call`` is the call's own scratch list: in the dense regime the one
        matrix its windows accumulated into, in the deferred regime the
        block sets its windows tallied, counted here at once.
        """
        if not call:
            return np.zeros((self._num_candidates, self._num_groups), dtype=np.int64)
        if not self._deferred:
            return call[0]
        if all(prev[-1] < nxt[0] for prev, nxt in zip(call, call[1:])):
            blocks = np.concatenate(call)  # ascending windows, in order
        else:  # the call scanned past the table's end
            taken = np.zeros(self.layout.num_blocks, dtype=bool)
            for window in call:
                taken[window] = True
            blocks = np.flatnonzero(taken)
        return self.backend.count_blocks(self._source, blocks)

    def _sample(
        self, m: int | None, goal: np.ndarray | None, max_rows: float | None
    ) -> np.ndarray:
        """The one window loop of every sampling call.

        Stage 1 (``goal is None``) reads each window whole, in scan order,
        until ``m`` rows are delivered, trimmed to the minimal prefix of the
        *scan* reaching the budget (the tail piece, then the head piece the
        scan wraps to), and charges its I/O serially.  Later stages
        (``goal`` per candidate) let the policy select each window's blocks
        for the candidates still short of their goal, and charge the I/O
        pipelined with, or serialized behind, the policy's marking cost.

        Either way a window is built from the consumed-mask slices of one
        run (two, for the window that wraps), ascending; its selected
        blocks are charged by the I/O manager from their size and last
        block, counted (dense regime: the backend counts their matrix now)
        or tallied (deferred regime: the candidate column only), and marked
        consumed.  What the loop reads every window is taken off ``self``
        once per call — not at construction, so a policy or backend swapped
        between calls is the one used.
        """
        layout = self.layout
        num_blocks = layout.num_blocks
        block_size = layout.block_size
        shortfall = -layout.num_rows % block_size  # rows the last block lacks
        width = self.window_blocks
        start = self._start
        consumed = self._consumed
        delivered = self._delivered
        counters = self.counters
        clock = self.clock
        io = self.io
        cost_model = self.cost_model
        policy = self.policy
        index = self.index
        backend = self.backend
        source = self._source
        profiler = self.profiler
        deferred = self._deferred
        row_filter = self._row_filter
        num_candidates = self._num_candidates
        cells = num_candidates * self._num_groups
        z = self.shuffled.table.column(self._z_name) if deferred else None
        uniform = goal is None
        if not uniform:
            fresh_rows = np.zeros(num_candidates, dtype=np.float64)
            resident = cost_model.bitmaps_resident(num_candidates, num_blocks)
            windows_budget = 2 * (-(-max(num_blocks, 1) // width)) + 2
        call: list[np.ndarray] = []
        rows_call = 0
        windows_used = 0
        # Stage 1 needs no window budget: each pass of the scan visits every
        # unconsumed block, and each window holding one reads at least one.
        try:
            while True:
                if uniform:
                    if rows_call >= m or self._unconsumed == 0:
                        break
                else:
                    if windows_used > windows_budget:
                        raise RuntimeError(
                            "sampling engine exceeded its window budget; "
                            "active candidates could not be satisfied in two passes"
                        )
                    active = np.flatnonzero(fresh_rows < goal)
                    if active.size == 0 or self._unconsumed == 0:
                        break
                    if max_rows is not None and rows_call >= max_rows:
                        break

                # The window: ``width`` scan positions from the cursor, cut at
                # the end of the pass — one run of the table, or, once per pass,
                # the head run from block 0 followed by the tail run from the
                # cursor, so ascending as built.
                pos = self._scan_pos
                stop = min(pos + width, num_blocks)
                first, last = start + pos, start + stop
                self._scan_pos = stop % num_blocks
                windows_used += 1
                counters.windows += 1
                if first >= num_blocks:  # wholly past the wrap
                    first, last = first - num_blocks, last - num_blocks
                if last <= num_blocks:
                    blocks, wrapped = self._unconsumed_run(first, last), 0
                else:
                    head = self._unconsumed_run(0, last - num_blocks)
                    blocks = np.concatenate((head, self._unconsumed_run(first, num_blocks)))
                    wrapped = head.size
                if blocks.size == 0:
                    continue

                if uniform:
                    # The scan reads the tail, then the head.  Every block holds
                    # ``block_size`` rows but the table's short last one, which
                    # only the tail can end on.
                    head, tail = blocks[:wrapped], blocks[wrapped:]
                    cumulative = np.arange(1, blocks.size + 1) * block_size
                    if shortfall and tail.size and tail[-1] == num_blocks - 1:
                        cumulative[tail.size - 1 :] -= shortfall
                    cutoff = int(np.searchsorted(cumulative, m - rows_call)) + 1
                    to_read = tail[:cutoff]
                    if cutoff > tail.size and wrapped:
                        to_read = np.concatenate((head[: cutoff - tail.size], tail))
                else:
                    decision: PolicyDecision = policy.select(
                        index, blocks, active, cost_model, resident
                    )
                    counters.probes += decision.probes
                    to_read = blocks[decision.read_mask]
                    counters.blocks_skipped += int(blocks.size - to_read.size)

                count = int(to_read.size)
                rows, io_cost = 0, 0.0
                if count:
                    lo, hi = int(to_read[0]), int(to_read[-1])
                    io_cost = io.charge(count, hi)
                    if deferred:
                        started = time.perf_counter_ns() if profiler.enabled else 0
                        row_sums, moved = tally_window(
                            z, to_read, layout, num_candidates, row_filter=row_filter
                        )
                        call.append(to_read)
                        if profiler.enabled:
                            # rows/blocks stay zero: the call-end count tallies them.
                            profiler.record_kernel(
                                "engine.tally",
                                float(time.perf_counter_ns() - started),
                                nbytes=moved,
                                bincounts=1,
                            )
                        rows = int(row_sums.sum())
                        delivered += row_sums
                        if not uniform:
                            fresh_rows += row_sums
                    else:
                        counts = backend.count_blocks(source, to_read)
                        if call:
                            call[0] += counts
                        else:
                            call.append(counts)
                        if row_filter is None:  # every row of every block
                            rows = count * block_size
                            if hi == num_blocks - 1:
                                rows -= shortfall
                        else:
                            rows = int(counts.sum())
                        if not uniform:
                            # Only the active candidates' rows decide the next
                            # active set: one that met its goal stays met.
                            if active.size == num_candidates:
                                fresh_rows += rows_per_candidate(counts)
                            else:
                                fresh_rows[active] += rows_per_candidate(counts[active])
                    if hi - lo == count - 1:
                        consumed[lo : hi + 1] = True
                    else:
                        consumed[to_read] = True
                    self._unconsumed -= count
                    counters.blocks_read += count
                    counters.rows_delivered += rows
                    if profiler.enabled:
                        # Simulated I/O charge, not wall time, so kept out of the
                        # real-kernel-nanosecond total; rows/blocks are zero
                        # because the backend kernel tallies them.
                        profiler.record_kernel("engine.deliver", float(io_cost))
                        profiler.bump("windows")
                rows_call += rows

                if uniform:
                    clock.charge_serial(io=io_cost)
                elif decision.overlaps_io:
                    clock.charge_pipelined(io_ns=io_cost, mark_ns=decision.mark_cost_ns)
                else:
                    # Synchronous path: block selection, the per-block candidate
                    # state refresh, and a blocking engine↔I/O handoff all
                    # serialize with I/O (Challenge 4).
                    clock.charge_serial(
                        io=io_cost,
                        mark=decision.mark_cost_ns
                        + cost_model.sync_handoff_cost(int(blocks.size)),
                        update=cost_model.sync_update_cost(rows, cells),
                    )
        finally:
            # The dense regime sums rows per candidate once per call, over the
            # call's matrix: nothing reads ``delivered`` mid-call, and a call
            # that raised still accounts for the blocks it consumed.
            if call and not deferred:
                delivered += rows_per_candidate(call[0])
        return self._fresh_counts(call)

    # ---------------------------------------------------------------- stage 1

    def sample_uniform(self, m: int) -> np.ndarray:
        """Sequential scan from the cursor until ``m`` rows are delivered.

        On the shuffled layout this is a uniform without-replacement sample;
        blocks are read unconditionally (no selection cost).
        """
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        return self._sample(m, None, None)

    # ---------------------------------------------------------------- stage 2+

    def sample_until(self, needed: np.ndarray, max_rows: float | None = None) -> np.ndarray:
        """Scan with block selection until every candidate's fresh budget is met.

        ``needed`` is capped per candidate by its remaining (undelivered)
        rows; one full pass over the non-consumed blocks therefore always
        suffices to terminate.

        ``max_rows`` (optional) returns early once this call has delivered
        at least that many rows, at a window boundary; the caller resumes by
        calling again with the residual budgets.  The engine consumes blocks
        in a fixed scan order and the active set is recomputed per window
        from the residuals, so an incremental sequence of calls reads the
        same blocks as one unbounded call.
        """
        needed = np.asarray(needed, dtype=np.float64)
        if needed.shape != (self._num_candidates,):
            raise ValueError(
                f"needed must have shape ({self._num_candidates},), got {needed.shape}"
            )
        remaining = (self._totals - self._delivered).astype(np.float64)
        goal = np.minimum(np.maximum(needed, 0.0), remaining)
        return self._sample(None, goal, max_rows)
