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

One path turns a prepared query into an answer: :func:`make_engine` wires
the engine, a :class:`~repro.core.histsim.HistSim` and its
:class:`~repro.core.histsim.HistSimStepper` into a resumable job (the Scan
is a one-step job), and :func:`assemble_report` packages what it produced.
A :class:`~repro.system.session.MatchSession` hands such jobs to its
scheduler; :func:`run_approach` builds the same job on a clock of its own
and steps it to completion.

``PreparedQuery.pair_codes`` — the column window counting reads instead
of ``z`` and ``x`` when an artifact has one — is always *folded with the
artifact's own* ``row_filter``: rows the predicate drops hold the sentinel
code, so an engine over the artifact hands its backend the column and no
filter.  :func:`prepared_pair_codes` is the one
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
from ..core.histsim import HistSim, HistSimStepper
from ..core.result import MatchResult
from ..core.target import resolve_target
from ..obs.profiler import NULL_PROFILER
from ..obs.tracer import NULL_TRACER
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
    #: makes every window count a take+bincount, filtered or not.  ``None``
    #: for one-shot runs by default — building it costs a full-column pass,
    #: worth paying when the artifact is cached.  A column built any other way
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
        """Shuffle, then prepare on that layout (:meth:`_on_layout`)."""
        query.validate_against(table)
        return cls._on_layout(shuffle_table(table, block_size, rng), query)

    @classmethod
    def _on_layout(
        cls,
        shuffled: ShuffledTable,
        query: HistogramQuery,
        index: BlockBitmapIndex | None = None,
    ) -> "PreparedQuery":
        """Index, row filter, ground truth and target of ``query`` on an
        existing layout — the one-shot preparation, shared by :meth:`prepare`
        and :func:`repro.data.prepare_workload` (which passes the ``index``
        its queries over one candidate attribute share).  The predicate is
        evaluated once: its mask is the row filter and filters the
        ground-truth pass."""
        if isinstance(query.predicate, TruePredicate):
            row_filter = None
        else:
            row_filter = query.predicate.mask(shuffled.table)
        exact = exact_candidate_counts(shuffled.table, query, row_filter=row_filter)
        return cls(
            query=query,
            shuffled=shuffled,
            index=(
                build_bitmap_index(shuffled, query.candidate_attribute)
                if index is None
                else index
            ),
            exact_counts=exact,
            target=resolve_target(query.target, exact),
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
    """Build the block sampling engine for one sampling approach — the one
    a stepper job samples through.  ``backend`` routes the engine's
    block delivery (serial by default; sharded when opted in), and the
    prepared query's ``pair_codes`` (when built; folded with its
    ``row_filter``) are what its windows count.  ``kernel`` is accepted and
    ignored: how a window is counted follows from the artifact."""
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

    Every job finishes through it, so the report shape stays in one place.
    ``partial`` marks a deadline-cut answer (serving front door); partial
    answers carry their actually-achieved ε/δ and are never audited against
    the full guarantees they do not claim.
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


class _Job:
    """What every job shares: its identity, the clock it charges, its
    telemetry, and the report it finishes with."""

    def __init__(
        self,
        name: str,
        prepared: PreparedQuery,
        approach: str,
        config: HistSimConfig,
        cost_model: CostModel,
        clock: SimulatedClock,
        *,
        audit: bool,
        backend: ExecutionBackend | None,
        tracer=NULL_TRACER,
        tenant: str | None = None,
        profiler=NULL_PROFILER,
    ) -> None:
        self.name = name
        self.prepared = prepared
        self.approach = approach
        self.config = config
        self.cost_model = cost_model
        self.clock = clock
        self.tracer = tracer
        self.tenant = tenant
        self.profiler = profiler
        #: Stage the most recent step executed in ("stage1"/"stage2"/
        #: "stage3"/"scan"); the engine stamps it on its ``engine.step`` spans.
        self.last_stage: str | None = None
        self._audit = audit
        self._backend = backend

    def estimated_remaining_ns(self) -> float:
        """Optimistic remaining service time: the remaining-row estimate at
        pure sequential-read cost.  A lower bound (probes, stats, and block
        overheads come on top), which is exactly what feasibility shedding
        wants — a deadline even this cannot meet is certainly doomed."""
        return self.estimated_remaining_rows() * self.cost_model.tuple_read_ns

    def _report(
        self, result: MatchResult, service_ns: float, counters: dict, backend: str,
        *, audit: bool, **partial,
    ) -> RunReport:
        return assemble_report(
            self.prepared, self.approach, result, self.config, service_ns, counters,
            audit=audit,
            query_name=self.name,
            backend=backend,
            profile=(
                self.profiler.snapshot().to_dict() if self.profiler.enabled else None
            ),
            **partial,
        )


class _StepperJob(_Job):
    """One sampling approach on one prepared query as a resumable job: the
    engine, :class:`HistSim` and :class:`HistSimStepper` wired once, stepped
    by whoever drives it."""

    def __init__(
        self, *args, seed: int, max_step_rows: int | None, **options
    ) -> None:
        super().__init__(*args, **options)
        rng = np.random.default_rng(seed)
        self.engine = make_engine(
            self.prepared, self.approach, self.config, self.cost_model, self.clock,
            rng, self._backend, profiler=self.profiler,
        )
        stats_engine = StatsEngine(self.cost_model, self.clock)
        algorithm = HistSim(
            self.engine, self.prepared.target, self.config, stats_cost=stats_engine
        )
        self.stepper = HistSimStepper(algorithm=algorithm, max_step_rows=max_step_rows)

    @property
    def done(self) -> bool:
        return self.stepper.done

    def step(self) -> None:
        profiler = self.profiler
        if not self.tracer.enabled and not profiler.enabled:
            self.stepper.step()
            return
        # The calibration signal: the lookahead estimate before and after
        # each slice, against the rows the slice actually delivered.
        # estimated_remaining_rows() is pure (no clock charges, no RNG),
        # so traced runs stay byte-identical to untraced ones.
        stepper = self.stepper
        est_before = stepper.estimated_remaining_rows()
        stage = stepper.stage_name
        started_ns = self.clock.elapsed_ns
        if self.tracer.enabled:
            with self.tracer.span(
                f"stepper.{stage}", clock=self.clock, name=self.name,
                tenant=self.tenant,
            ) as span:
                with profiler.stage(stage):
                    report = stepper.step()
                span.set(
                    round=report.round_index,
                    fresh_rows=report.fresh_rows,
                    done=report.done,
                    est_rows_before=est_before,
                    est_rows_after=stepper.estimated_remaining_rows(),
                    est_ns_before=est_before * self.cost_model.tuple_read_ns,
                    # Eq. 1 sequential-read cost of the *delivered* slice —
                    # what ServingMetrics calibrates against observed time.
                    est_slice_ns=report.fresh_rows * self.cost_model.tuple_read_ns,
                )
        else:
            with profiler.stage(stage):
                report = stepper.step()
        if profiler.enabled:
            # Same clock endpoints as the span above (the clock only moves
            # on charges inside the step), so stage sums match trace sums.
            profiler.record_stage(
                stage, self.clock.elapsed_ns - started_ns, rows=report.fresh_rows
            )
        self.last_stage = report.stage

    def estimated_remaining_rows(self) -> float:
        """Cost hint for shortest-expected-remaining-cost scheduling."""
        return self.stepper.estimated_remaining_rows()

    def finish(self, service_ns: float) -> RunReport:
        return self._report(
            self.stepper.result, service_ns, engine_counters(self.engine),
            self.engine.backend.name, audit=self._audit,
        )

    def finish_partial(self, service_ns: float) -> RunReport:
        """Deadline-cut answer: the current top-k estimate, stamped with the
        ε the delivered samples actually achieved (Theorem 1 inverted)."""
        result = self.stepper.partial_result()
        return self._report(
            result, service_ns, engine_counters(self.engine),
            self.engine.backend.name, audit=False,
            partial=not self.stepper.done,
            achieved_epsilon=self.stepper.achieved_epsilon(result.matching),
            achieved_delta=self.config.delta,
        )


class _ScanJob(_Job):
    """The exact-scan baseline as a single atomic step."""

    _result: MatchResult | None = None

    @property
    def done(self) -> bool:
        return self._result is not None

    def estimated_remaining_rows(self) -> float:
        """Cost hint for serving policies: a scan reads every row, once."""
        return 0.0 if self.done else float(self.prepared.shuffled.num_rows)

    def step(self) -> None:
        profiler = self.profiler
        started_ns = self.clock.elapsed_ns if profiler.enabled else 0.0
        with self.tracer.span(
            "stepper.scan",
            clock=self.clock,
            name=self.name,
            tenant=self.tenant,
            rows=self.prepared.shuffled.num_rows,
        ):
            with profiler.stage("scan"):
                self._result, _ = run_scan(
                    self.prepared.shuffled,
                    self.prepared.query,
                    self.prepared.target,
                    self.config.k,
                    self.config.sigma,
                    self.cost_model,
                    self.clock,
                    backend=self._backend,
                )
        if profiler.enabled:
            profiler.record_stage(
                "scan",
                self.clock.elapsed_ns - started_ns,
                rows=self.prepared.shuffled.num_rows,
            )
        self.last_stage = "scan"

    def finish(self, service_ns: float) -> RunReport:
        return self._report(
            self._result, service_ns, scan_counters(self.prepared.shuffled),
            self._backend.name if self._backend is not None else "serial",
            audit=self._audit,
        )


def _make_job(
    name: str,
    prepared: PreparedQuery,
    approach: str,
    config: HistSimConfig,
    cost_model: CostModel,
    clock: SimulatedClock,
    *,
    seed: int,
    max_step_rows: int | None = None,
    **options,
) -> _Job:
    """The resumable job that runs ``approach`` on ``prepared`` against
    ``clock`` — what a session schedules and :func:`run_approach` steps.
    ``options`` are :class:`_Job`'s: ``audit``, ``backend`` and telemetry."""
    if approach not in APPROACHES:
        raise ValueError(f"approach must be one of {APPROACHES}, got {approach!r}")
    args = (name, prepared, approach, config, cost_model, clock)
    if approach == "scan":
        return _ScanJob(*args, **options)
    return _StepperJob(*args, seed=seed, max_step_rows=max_step_rows, **options)


def run_approach(
    prepared: PreparedQuery,
    approach: str,
    config: HistSimConfig,
    seed: int = 0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    audit: bool = True,
    backend: ExecutionBackend | None = None,
) -> RunReport:
    """Execute one approach on a prepared query and report result + cost.

    The job a session would schedule, stepped to completion on a clock of
    its own — so the report also carries that clock's per-component
    ``breakdown``.  ``backend`` selects the execution backend for every
    approach — the sampling approaches' block counts and the exact
    ``"scan"``'s single counting pass are sharded once they reach a worker
    backend's floor — with byte-identical results either way; the caller
    owns its lifetime (:meth:`ExecutionBackend.close`).  Windows count the
    artifact's pair-code column when it has one
    (:meth:`PreparedQuery.with_pair_codes`).
    """
    clock = SimulatedClock()
    job = _make_job(
        prepared.query.name or prepared.query.candidate_attribute,
        prepared, approach, config, cost_model, clock,
        seed=seed, audit=audit, backend=backend,
    )
    while not job.done:
        job.step()
    return replace(job.finish(clock.elapsed_ns), breakdown=clock.snapshot())
