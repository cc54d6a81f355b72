"""Deterministic cost model standing in for the paper's Xeon E5-2630 wall clock.

The reproduction runs the *mechanics* of FastMatch (block selection, bitmap
probing, sampling, statistics) in Python, but Python wall-time would reflect
interpreter overhead rather than the system behaviour the paper measures.
Instead every run charges nanoseconds to a simulated clock using the
constants below, calibrated to the paper's narrative:

- ``tuple_read_ns = 20``: the paper's Scan covers 606M tuples in ~12.3 s —
  about 20 ns of I/O + histogram work per tuple.
- ``cacheline_dram_ns = 95`` / ``cacheline_l3_ns = 18``: conventional DRAM
  vs L3 latencies; a *synchronous* bitmap probe pays one cache-line fetch
  (Section 4.2: "only a single bit in the bitmap is used each time a portion
  is brought into cache").
- Residency: probes are L3-hits while the bitmaps of the currently *active*
  candidates fit into an effective slice of L3 (the rest of the cache is
  busy streaming data); otherwise they pay DRAM latency.  This is exactly
  the SyncMatch pathology of Section 5.4 at high ``|V_Z|``.
- Lookahead marking streams ``lookahead`` consecutive bits per candidate:
  ``⌈span/512⌉`` line fetches plus a tiny per-bit register cost, the
  cache-friendly inner loop of Algorithm 3.
- ``stats_op_ns = 1``: the statistics engine is cheap relative to I/O
  (Section 3.5), but not free — its cost makes the test-frequency trade-off
  of Challenge 2 visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CostModel", "DEFAULT_COST_MODEL"]

#: Bits per 64-byte cache line.
CACHELINE_BITS = 512


@dataclass(frozen=True)
class CostModel:
    """Nanosecond charges for the simulated FastMatch hardware."""

    tuple_read_ns: float = 20.0
    block_overhead_ns: float = 30.0
    cacheline_dram_ns: float = 95.0
    cacheline_l3_ns: float = 18.0
    bit_scan_ns: float = 0.15
    stats_op_ns: float = 1.0
    state_update_cached_ns: float = 2.0
    state_update_dram_ns: float = 20.0
    sync_block_overhead_ns: float = 500.0
    l2_bytes: int = 2 * 1024 * 1024
    l2_residency_fraction: float = 0.5
    l3_bytes: int = 20 * 1024 * 1024
    l3_residency_fraction: float = 0.5

    def __post_init__(self) -> None:
        numeric = (
            self.tuple_read_ns,
            self.block_overhead_ns,
            self.cacheline_dram_ns,
            self.cacheline_l3_ns,
            self.bit_scan_ns,
            self.stats_op_ns,
        )
        if any(v < 0 for v in numeric):
            raise ValueError("cost constants must be non-negative")
        if self.l3_bytes <= 0 or self.l2_bytes <= 0:
            raise ValueError("cache sizes must be positive")
        if not 0.0 < self.l3_residency_fraction <= 1.0:
            raise ValueError("l3_residency_fraction must be in (0, 1]")
        if not 0.0 < self.l2_residency_fraction <= 1.0:
            raise ValueError("l2_residency_fraction must be in (0, 1]")
        if self.state_update_cached_ns < 0 or self.state_update_dram_ns < 0:
            raise ValueError("state update costs must be non-negative")
        if self.sync_block_overhead_ns < 0:
            raise ValueError("sync_block_overhead_ns must be non-negative")

    # ------------------------------------------------------------------ I/O

    def block_read_cost(self, tuples_in_block: int | np.ndarray) -> float:
        """Sequentially reading and histogramming one or more blocks, summed
        block by block: the per-block form of :meth:`scan_cost`.

        With integer-valued ``block_overhead_ns`` / ``tuple_read_ns`` (the
        defaults, and every committed pin and baseline) each block's cost
        and every partial sum is an integer below 2**53, so this sum, in
        whatever order, and the closed form are the same double.  With
        fractional constants the two differ by rounding only, and the closed
        form — two products and one add — is the more accurate.
        """
        tuples = np.asarray(tuples_in_block, dtype=np.float64)
        return float(np.sum(self.block_overhead_ns + tuples * self.tuple_read_ns))

    def scan_cost(self, num_rows: int, num_blocks: int) -> float:
        """The cost of reading any set of blocks sequentially: ``num_blocks``
        blocks holding ``num_rows`` rows between them.  The Scan baseline
        charges it for its full pass, the I/O manager for every batch."""
        return float(
            num_blocks * self.block_overhead_ns + num_rows * self.tuple_read_ns
        )

    # --------------------------------------------------------------- bitmaps

    def bitmaps_resident(self, cardinality: int, num_blocks: int) -> bool:
        """Does the bitmap index fit in the effective L3 slice?

        Synchronous probes hop across the whole ``|V_Z| × num_blocks``-bit
        structure while tuple data streams through the cache; once the index
        outgrows the effective slice, each probe is a DRAM fetch.  This is
        the paper's observed split: SyncMatch behaves at ``|V_Z|`` = 210–347
        (FLIGHTS, POLICE-q1/q2) and collapses at 2110–7641 (POLICE-q3,
        TAXI) — Section 5.4.
        """
        working_set_bytes = cardinality * num_blocks / 8.0
        return working_set_bytes <= self.l3_bytes * self.l3_residency_fraction

    def probe_cost(self, num_probes: int | float, resident: bool) -> float:
        """Synchronous per-block bitmap probes (Algorithm 2): one line each."""
        line = self.cacheline_l3_ns if resident else self.cacheline_dram_ns
        return float(num_probes) * line

    def lookahead_mark_cost(
        self, active_candidates: int, span_blocks: int, resident: bool
    ) -> float:
        """Marking a lookahead batch (Algorithm 3): per candidate, stream
        ``span_blocks`` consecutive bits — ``⌈span/512⌉`` line fetches plus a
        per-bit scan cost."""
        if span_blocks <= 0 or active_candidates <= 0:
            return 0.0
        lines = -(-span_blocks // CACHELINE_BITS)
        line = self.cacheline_l3_ns if resident else self.cacheline_dram_ns
        per_candidate = lines * line + span_blocks * self.bit_scan_ns
        return active_candidates * per_candidate

    # ---------------------------------------------------- per-block state sync

    def sync_update_cost(self, tuples_read: int, counter_cells: int) -> float:
        """Per-block candidate-state refresh on the synchronous path.

        SyncMatch must fold each block's tuples into the per-candidate
        counters *before* deciding the next block (Section 4.2, Challenge 4:
        "each candidate's active status would be updated immediately after
        each block is read").  That update touches scattered counters; it is
        cheap while the ``|V_Z| × |V_X|`` counter table stays cache-resident
        and expensive otherwise.  Lookahead/batched paths hide this work
        behind I/O, so only the synchronous policy pays it.
        """
        if tuples_read <= 0:
            return 0.0
        resident = counter_cells * 4 <= self.l2_bytes * self.l2_residency_fraction
        per_tuple = self.state_update_cached_ns if resident else self.state_update_dram_ns
        return tuples_read * per_tuple

    def sync_handoff_cost(self, blocks_examined: int) -> float:
        """Per-block engine↔I/O-manager round trip on the synchronous path.

        Without lookahead the I/O manager idles while the sampling engine
        decides each block, and the engine idles while the block is read —
        a blocking handoff per block (Section 4.2, Challenge 4 and Figure
        7's motivation).  Lookahead batches this exchange, so only the
        synchronous policy pays it.
        """
        return max(0, blocks_examined) * self.sync_block_overhead_ns

    # ------------------------------------------------------------ statistics

    def stats_cost(self, scalar_ops: int | float) -> float:
        """Statistics-engine work (distance updates, sorts, P-values)."""
        return float(scalar_ops) * self.stats_op_ns


#: Constants used throughout the benchmarks.
DEFAULT_COST_MODEL = CostModel()
