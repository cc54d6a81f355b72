"""The FastMatch runner (paper Section 4): wire HistSim to the block engine.

Four approaches, matching Section 5.2's comparison points:

- ``"scan"`` — exact full pass (always correct, no sampling).
- ``"scanmatch"`` — HistSim over sequential block reads, no block selection.
- ``"syncmatch"`` — HistSim + AnyActive applied synchronously per block
  (Algorithm 2): selection cost serializes with I/O.
- ``"fastmatch"`` — HistSim + AnyActive with lookahead marking
  (Algorithm 3): selection overlaps I/O on the simulated clock.

:class:`PreparedQuery` caches the expensive, approach-independent work
(shuffle, index build, exact ground truth, target resolution) so the
benchmarks can compare approaches on identical substrates.

``PreparedQuery.pair_codes`` — the column the fused kernel counts — is
always *folded with the artifact's own* ``row_filter``: rows the predicate
drops hold the sentinel code, so an engine over the artifact hands its
backend the column and no filter.  :func:`prepared_pair_codes` is the one
builder (the session caches its output; :meth:`PreparedQuery.with_pair_codes`
applies it to an artifact prepared without a session), which is what keeps a
column from being paired with a filter it was not built from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ..bitmap.bitmap_index import BlockBitmapIndex
from ..bitmap.builder import build_bitmap_index
from ..core.config import HistSimConfig
from ..core.guarantees import AuditTruth, audit_result
from ..core.histsim import HistSim
from ..core.result import MatchResult
from ..core.target import resolve_target
from ..parallel.backend import ExecutionBackend
from ..parallel.kernels import build_pair_codes
from ..query.executor import exact_candidate_counts
from ..query.predicate import TruePredicate
from ..query.spec import HistogramQuery
from ..sampling.engine import BlockSamplingEngine
from ..sampling.policies import (
    AnyActiveLookaheadPolicy,
    AnyActiveSyncPolicy,
    ScanAllPolicy,
)
from ..storage.cost_model import DEFAULT_COST_MODEL, CostModel
from ..storage.shuffle import ShuffledTable, shuffle_table
from ..storage.table import ColumnTable
from .clock import SimulatedClock
from .report import RunReport
from .scan import run_scan
from .stats_engine import StatsEngine

__all__ = [
    "APPROACHES",
    "PreparedQuery",
    "assemble_report",
    "engine_counters",
    "make_engine",
    "prepared_pair_codes",
    "run_approach",
    "scan_counters",
]

#: Tuples per column block.  The paper's 600-byte blocks over raw rows
#: averaging ~50 bytes (32 GiB / 606M rows) hold a few dozen tuples; we use
#: 32, which also preserves the paper's per-block candidate-presence regime
#: (presence = block_size × selectivity) at our smaller row counts.
DEFAULT_BLOCK_SIZE = 32

#: SyncMatch refreshes active state per block; the simulation refreshes at
#: this small window granularity while still charging exact per-block probes.
SYNC_WINDOW_BLOCKS = 32

#: ScanMatch I/O batch (pure sequential reads between termination checks).
SCANMATCH_WINDOW_BLOCKS = 1024

APPROACHES = ("scan", "scanmatch", "syncmatch", "fastmatch")


def prepared_pair_codes(
    shuffled: ShuffledTable, query: HistogramQuery, row_filter: np.ndarray | None
) -> np.ndarray:
    """The pair-code column of ``query`` on ``shuffled``, folded with
    ``row_filter`` (the query's predicate mask on that layout, or ``None``).

    The one place a prepared artifact's code column is built."""
    table = shuffled.table
    num_candidates, num_groups = query.cardinalities(table)
    return build_pair_codes(
        table.column(query.candidate_attribute),
        table.column(query.grouping_attribute),
        num_candidates,
        num_groups,
        row_filter=row_filter,
    )


@dataclass(frozen=True)
class PreparedQuery:
    """Approach-independent preparation for one query on one dataset."""

    query: HistogramQuery
    shuffled: ShuffledTable
    index: BlockBitmapIndex
    exact_counts: np.ndarray
    target: np.ndarray
    row_filter: np.ndarray | None
    #: Optional prepared pair-code column, **folded with this artifact's**
    #: ``row_filter`` (:func:`prepared_pair_codes`): built by the session
    #: layer when its kernel is ``"fused"``, or by :meth:`with_pair_codes`;
    #: enables take+bincount window counting, filtered or not.  ``None`` for
    #: one-shot runs — building it costs a full-column pass, worth paying
    #: only when the artifact is cached.  A column built any other way
    #: would count rows the predicate drops; the engine only spot-checks.
    pair_codes: np.ndarray | None = None

    def with_pair_codes(self) -> "PreparedQuery":
        """This artifact with its pair-code column built — from its own
        ``shuffled``, ``query`` and ``row_filter``."""
        return replace(
            self,
            pair_codes=prepared_pair_codes(self.shuffled, self.query, self.row_filter),
        )

    @classmethod
    def prepare(
        cls,
        table: ColumnTable,
        query: HistogramQuery,
        rng: np.random.Generator,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "PreparedQuery":
        """Shuffle, index, compute ground truth, and resolve the target."""
        query.validate_against(table)
        shuffled = shuffle_table(table, block_size, rng)
        index = build_bitmap_index(shuffled, query.candidate_attribute)
        exact = exact_candidate_counts(shuffled.table, query)
        target = resolve_target(query.target, exact)
        if isinstance(query.predicate, TruePredicate):
            row_filter = None
        else:
            row_filter = query.predicate.mask(shuffled.table)
        return cls(
            query=query,
            shuffled=shuffled,
            index=index,
            exact_counts=exact,
            target=target,
            row_filter=row_filter,
        )

    @cached_property
    def candidate_totals(self) -> np.ndarray:
        """Rows per candidate under the query's predicate — the row sums of
        the exact counts, taken once per artifact (read-only, shared by
        every engine :func:`make_engine` builds over it)."""
        totals = self.exact_counts.sum(axis=1)
        totals.setflags(write=False)
        return totals

    @cached_property
    def audit_truth(self) -> AuditTruth:
        """The result-independent side of :func:`audit_result` — true
        distances to this artifact's target, per-candidate rows — taken once
        per artifact (read-only, shared by every report over it)."""
        return AuditTruth.of(self.exact_counts, self.target)

    @property
    def num_candidates(self) -> int:
        return self.exact_counts.shape[0]

    @property
    def num_groups(self) -> int:
        return self.exact_counts.shape[1]


def make_engine(
    prepared: PreparedQuery,
    approach: str,
    config: HistSimConfig,
    cost_model: CostModel,
    clock: SimulatedClock,
    rng: np.random.Generator,
    backend: ExecutionBackend | None = None,
    profiler=None,
    kernel: str = "auto",
) -> BlockSamplingEngine:
    """Build the block sampling engine for one sampling approach.

    Shared by :func:`run_approach` (one-shot) and the session layer
    (:mod:`repro.system.session`), which wires the same engine to a
    resumable stepper on a shared clock.  ``backend`` routes the engine's
    block delivery (serial by default; sharded when opted in); ``kernel``
    selects the counting kernel, and the prepared query's ``pair_codes``
    (when built; folded with its ``row_filter``) ride along to enable the
    fused one."""
    if approach == "fastmatch":
        policy = AnyActiveLookaheadPolicy()
        window = config.lookahead
    elif approach == "syncmatch":
        policy = AnyActiveSyncPolicy()
        window = SYNC_WINDOW_BLOCKS
    elif approach == "scanmatch":
        policy = ScanAllPolicy()
        window = SCANMATCH_WINDOW_BLOCKS
    else:
        raise ValueError(f"unknown sampling approach {approach!r}")
    return BlockSamplingEngine(
        shuffled=prepared.shuffled,
        candidate_attribute=prepared.query.candidate_attribute,
        grouping_attribute=prepared.query.grouping_attribute,
        index=prepared.index,
        cost_model=cost_model,
        clock=clock,
        policy=policy,
        rng=rng,
        window_blocks=window,
        row_filter=prepared.row_filter,
        backend=backend,
        profiler=profiler,
        kernel=kernel,
        codes=prepared.pair_codes,
        candidate_totals=prepared.candidate_totals,
    )


def engine_counters(engine: BlockSamplingEngine) -> dict[str, int]:
    """An engine's observable effort, in the RunReport counters layout."""
    return {
        "blocks_read": engine.counters.blocks_read,
        "blocks_skipped": engine.counters.blocks_skipped,
        "probes": engine.counters.probes,
        "rows_delivered": engine.counters.rows_delivered,
    }


def scan_counters(shuffled: ShuffledTable) -> dict[str, int]:
    """The exact-scan baseline's effort: every block, no selection."""
    return {
        "blocks_read": shuffled.num_blocks,
        "blocks_skipped": 0,
        "probes": 0,
        "rows_delivered": shuffled.num_rows,
    }


def assemble_report(
    prepared: PreparedQuery,
    approach: str,
    result: MatchResult,
    config: HistSimConfig,
    elapsed_ns: float,
    counters: dict[str, int],
    *,
    breakdown: dict[str, float] | None = None,
    audit: bool = True,
    query_name: str | None = None,
    backend: str = "serial",
    partial: bool = False,
    achieved_epsilon: float | None = None,
    achieved_delta: float | None = None,
    profile: dict | None = None,
) -> RunReport:
    """Package one execution's outcome, auditing against the cached truth.

    Shared by :func:`run_approach` and the session jobs so the report shape
    stays in one place.  ``partial`` marks a deadline-cut answer (serving
    front door); partial answers carry their actually-achieved ε/δ and are
    never audited against the full guarantees they do not claim.
    """
    report_audit = None
    if audit and not partial:
        report_audit = audit_result(
            result,
            prepared.exact_counts,
            prepared.target,
            config.epsilon,
            config.sigma,
            truth=prepared.audit_truth,
        )
    return RunReport(
        approach=approach,
        query_name=query_name
        or prepared.query.name
        or prepared.query.candidate_attribute,
        result=result,
        elapsed_ns=elapsed_ns,
        breakdown=breakdown or {},
        counters=counters,
        audit=report_audit,
        backend=backend,
        partial=partial,
        achieved_epsilon=achieved_epsilon,
        achieved_delta=achieved_delta,
        profile=profile,
    )


def run_approach(
    prepared: PreparedQuery,
    approach: str,
    config: HistSimConfig,
    seed: int = 0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    audit: bool = True,
    backend: ExecutionBackend | None = None,
    kernel: str = "auto",
) -> RunReport:
    """Execute one approach on a prepared query and report result + cost.

    ``backend`` selects the execution backend for every approach — the
    sampling approaches shard the one count each sampling call ends with
    (windows only tally rows per candidate), the exact ``"scan"`` shards
    its single counting pass — with byte-identical results either way; the
    caller owns its lifetime (:meth:`ExecutionBackend.close`).
    ``kernel`` selects the counting kernel (all choices byte-identical).
    """
    if approach not in APPROACHES:
        raise ValueError(f"approach must be one of {APPROACHES}, got {approach!r}")
    rng = np.random.default_rng(seed)
    clock = SimulatedClock()
    backend_name = "serial"

    if approach == "scan":
        result, clock = run_scan(
            prepared.shuffled,
            prepared.query,
            prepared.target,
            config.k,
            config.sigma,
            cost_model,
            clock,
            backend=backend,
        )
        counters = scan_counters(prepared.shuffled)
        if backend is not None:
            backend_name = backend.name
    else:
        engine = make_engine(
            prepared, approach, config, cost_model, clock, rng, backend, kernel=kernel
        )
        stats_engine = StatsEngine(cost_model, clock)
        algo = HistSim(
            engine, prepared.target, config, stats_cost=stats_engine, backend=backend
        )
        result = algo.run()
        counters = engine_counters(engine)
        backend_name = engine.backend.name

    return assemble_report(
        prepared,
        approach,
        result,
        config,
        clock.elapsed_ns,
        counters,
        breakdown=clock.snapshot(),
        audit=audit,
        backend=backend_name,
    )
