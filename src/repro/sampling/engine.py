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

- **dense**: the backend counts the window's matrix at once and the row
  sums come free with it;
- **deferred**: the window only tallies the candidate column —
  O(rows + candidates) instead of O(rows + cells) — and the call counts all
  of its blocks in one ``count_blocks`` before returning.

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
Stage 1 still trims its row budget off the *scan* (tail, then head).  What
the construction proves, the layers below read instead of re-checking:

- the policy takes the window's span from its two ends (and uses the bit
  slice itself as the read mask when the window is one run); a window
  whose last block is below its first raises there;
- the active set is a ``flatnonzero``, so the bitmap range-checks it at its
  two ends (:meth:`~repro.bitmap.BlockBitmapIndex.any_present_ascending`);
- the I/O manager charges a delivered subset from its size and last block
  (:meth:`~repro.storage.io_manager.IOManager.charge`);
- the deferred regime's call-end count concatenates the call's ascending
  windows, or, when the call scanned past the table's end, reads its
  blocks off a mask.

The public entry points keep every check for arbitrary input:
:meth:`IOManager.read_cost <repro.storage.io_manager.IOManager.read_cost>`
still rejects an unsorted or out-of-range batch,
:meth:`BlockBitmapIndex.any_present
<repro.bitmap.BlockBitmapIndex.any_present>` still min/max-checks its
values, and :func:`~repro.parallel.count_window` its blocks.

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
from ..parallel.kernels import check_pair_codes, rows_per_candidate, tally_window
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
        return self._delivered.copy()

    def candidate_rows(self) -> np.ndarray | None:
        return self._totals.copy()

    # ------------------------------------------------------------- internals

    def _window(self) -> tuple[np.ndarray, int]:
        """The next window's unconsumed blocks, ascending, and how many of
        them this window reaches only after wrapping past the table's end
        (its head run; 0 unless the window wraps).

        The window is ``window_blocks`` scan positions from the cursor, cut
        at the end of the pass.  Its blocks are one run of the table, or,
        once per pass, two: the table's tail from the cursor on and its head
        from block 0.  Each run is a slice of the consumed mask, and the
        head comes first, so the window is ascending as built.
        """
        num_blocks = self.layout.num_blocks
        if num_blocks == 0:
            return np.empty(0, dtype=np.int64), 0
        stop = min(self._scan_pos + self.window_blocks, num_blocks)
        first, last = self._start + self._scan_pos, self._start + stop
        self._scan_pos = stop % num_blocks
        if first >= num_blocks:  # wholly past the wrap
            first, last = first - num_blocks, last - num_blocks
        if last <= num_blocks:
            return self._unconsumed_run(first, last), 0
        head = self._unconsumed_run(0, last - num_blocks)
        return np.concatenate((head, self._unconsumed_run(first, num_blocks))), head.size

    def _unconsumed_run(self, lo: int, hi: int) -> np.ndarray:
        """The unconsumed blocks of ``[lo, hi)``, ascending."""
        return (~self._consumed[lo:hi]).nonzero()[0] + lo

    def _deliver_blocks(
        self, blocks: np.ndarray, call: list[np.ndarray]
    ) -> tuple[np.ndarray, int, float]:
        """Deliver one window's blocks, mark them consumed.

        Returns what the loop needs now — fresh rows per candidate, their
        total, and the simulated I/O cost — and leaves what the caller needs
        at the end in ``call``, the sampling call's own scratch list
        (:meth:`_fresh_counts` turns it into the matrix).  Dense regime: the
        backend counts the window and ``call`` holds the one matrix the
        windows accumulate into.  Deferred regime: the window only tallies
        the candidate column and ``call`` collects the delivered block sets.

        ``blocks`` are a subset of one :meth:`_window`: distinct, not yet
        consumed and ascending, so the I/O manager charges them from their
        size and last block alone.
        """
        if blocks.size == 0:
            return np.zeros(self._num_candidates, dtype=np.int64), 0, 0.0
        cost_ns = self.io.charge(int(blocks.size), int(blocks[-1]))
        profiler = self.profiler
        if self._deferred:
            started = time.perf_counter_ns() if profiler.enabled else 0
            row_sums, moved = tally_window(
                self.shuffled.table.column(self._z_name),
                blocks,
                self.layout,
                self._num_candidates,
                row_filter=self._row_filter,
            )
            call.append(blocks)
            if profiler.enabled:
                # rows/blocks stay zero: the call-end count tallies them.
                profiler.record_kernel(
                    "engine.tally",
                    float(time.perf_counter_ns() - started),
                    nbytes=moved,
                    bincounts=1,
                )
        else:
            counts = self.backend.count_blocks(self._source, blocks)
            row_sums = rows_per_candidate(counts)
            if call:
                call[0] += counts
            else:
                call.append(counts)
        rows = int(row_sums.sum())
        self._delivered += row_sums
        self._consumed[blocks] = True
        self._unconsumed -= int(blocks.size)
        self.counters.blocks_read += int(blocks.size)
        self.counters.rows_delivered += rows
        if profiler.enabled:
            # Simulated I/O charge, not wall time, so kept out of the
            # real-kernel-nanosecond total; rows/blocks are zero because
            # the backend kernel tallies them.
            profiler.record_kernel("engine.deliver", float(cost_ns))
            profiler.bump("windows")
        return row_sums, rows, cost_ns

    def _fresh_counts(self, call: list[np.ndarray]) -> np.ndarray:
        """The count matrix of everything one sampling call delivered."""
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

    # ---------------------------------------------------------------- stage 1

    def sample_uniform(self, m: int) -> np.ndarray:
        """Sequential scan from the cursor until ``m`` rows are delivered.

        On the shuffled layout this is a uniform without-replacement sample;
        blocks are read unconditionally (no selection cost).
        """
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        call: list[np.ndarray] = []
        delivered = 0
        windows_without_blocks = 0
        max_windows = -(-max(self.layout.num_blocks, 1) // self.window_blocks) + 1
        while delivered < m and not self.fully_scanned:
            blocks, wrapped = self._window()
            self.counters.windows += 1
            if blocks.size == 0:
                windows_without_blocks += 1
                if windows_without_blocks > max_windows:
                    break
                continue
            windows_without_blocks = 0
            # Trim to the minimal prefix of the *scan* reaching the budget:
            # the tail piece, then the head piece the scan wraps to.
            head, tail = blocks[:wrapped], blocks[wrapped:]
            scan_rows = self.layout.rows_per_block(np.concatenate((tail, head)))
            cutoff = int(np.searchsorted(np.cumsum(scan_rows), m - delivered)) + 1
            blocks = np.concatenate((head[: max(cutoff - tail.size, 0)], tail[:cutoff]))
            _, rows, io_cost = self._deliver_blocks(blocks, call)
            self.clock.charge_serial(io=io_cost)
            delivered += rows
        return self._fresh_counts(call)

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
        call: list[np.ndarray] = []
        fresh_rows = np.zeros(self._num_candidates, dtype=np.float64)
        delivered_call = 0
        resident = self.cost_model.bitmaps_resident(
            self._num_candidates, self.layout.num_blocks
        )

        num_blocks = max(self.layout.num_blocks, 1)
        windows_budget = 2 * (-(-num_blocks // self.window_blocks)) + 2
        windows_used = 0
        while windows_used <= windows_budget:
            active = np.flatnonzero(fresh_rows < goal)
            if active.size == 0:
                break
            if self.fully_scanned:
                break
            if max_rows is not None and delivered_call >= max_rows:
                break
            blocks, _ = self._window()
            windows_used += 1
            self.counters.windows += 1
            if blocks.size == 0:
                continue
            decision: PolicyDecision = self.policy.select(
                self.index, blocks, active, self.cost_model, resident
            )
            self.counters.probes += decision.probes
            to_read = blocks[decision.read_mask]
            self.counters.blocks_skipped += int(blocks.size - to_read.size)
            row_sums, rows, io_cost = self._deliver_blocks(to_read, call)
            if decision.overlaps_io:
                self.clock.charge_pipelined(io_ns=io_cost, mark_ns=decision.mark_cost_ns)
            else:
                # Synchronous path: block selection, the per-block candidate
                # state refresh, and a blocking engine↔I/O handoff all
                # serialize with I/O (Challenge 4).
                update_cost = self.cost_model.sync_update_cost(
                    rows, self._num_candidates * self._num_groups
                )
                handoff = self.cost_model.sync_handoff_cost(int(blocks.size))
                self.clock.charge_serial(
                    io=io_cost,
                    mark=decision.mark_cost_ns + handoff,
                    update=update_cost,
                )
            fresh_rows += row_sums
            delivered_call += rows
        else:
            raise RuntimeError(
                "sampling engine exceeded its window budget; "
                "active candidates could not be satisfied in two passes"
            )
        return self._fresh_counts(call)
