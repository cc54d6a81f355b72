"""Multi-query serving sessions: shared artifacts + interleaved execution.

A :class:`MatchSession` owns one dataset and turns the one-shot pipeline
into the skeleton of a serving system:

- **Artifact cache** — the expensive, approach-independent preparation
  (shuffle layout, bit-per-block bitmap index, exact ground truth, row
  filters) is cached by ``(query, block_size, seed)`` *and* by the
  sub-artifact keys each piece actually depends on, so two queries over the
  same candidate attribute share one shuffle and one index even when their
  targets, tolerances, or grouping attributes differ.  This is the shared-
  computation idea that makes multi-query serving O(preparation) once, not
  per query.  :meth:`MatchSession.prepared` builds a miss in dependency
  order — row filter, then (``kernel="fused"``) the pair-code column
  folded with that filter, then the ground truth as one ``bincount`` of
  the column — so a predicate is evaluated once per filter-cache miss and
  no miss compresses rows.
- **Interleaved execution** — each submitted query runs as a resumable
  :class:`~repro.core.histsim.HistSimStepper` over its own sampling engine,
  and a :class:`~repro.system.scheduler.BatchScheduler` (policy-pluggable;
  round-robin by default) interleaves their steps on the session's shared
  simulated clock, reporting per-query latency and aggregate throughput.
  For *online* serving — accepting requests while others run, admission
  control, deadlines — put a :class:`repro.serving.FrontDoor` in front
  (:meth:`MatchSession.serve`).
- **Bounded caches** — ``max_cached_queries``/``max_cached_bytes`` turn
  the artifact cache into an LRU for long-lived serving deployments, with
  shared-memory segment unpublish on eviction.  An evicted template's
  ground truth stays behind as an *orphan* (a few KiB of counts against
  the table's MiB), so the next miss on that template does not recount
  the table.

Results are identical to standalone :func:`~repro.system.fastmatch.run_approach`
runs with the same prepared query, config, and seed: interleaving reorders
only *when* each query's work happens on the clock, never *what* it samples.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..bitmap.builder import build_bitmap_index
from ..core.config import HistSimConfig
from ..core.histsim import HistSim, HistSimStepper
from ..core.target import resolve_target
from ..obs.profiler import NULL_PROFILER
from ..obs.tracer import NULL_TRACER
from ..parallel import KERNEL_SPECS, ExecutionBackend, count_codes, make_backend
from ..query.executor import exact_candidate_counts
from ..query.predicate import TruePredicate
from ..query.spec import HistogramQuery
from ..serving.engine import ServingOutcome
from ..storage.cost_model import DEFAULT_COST_MODEL, CostModel
from ..storage.shuffle import shuffle_table
from ..storage.table import ColumnTable
from .clock import Clock, SimulatedClock
from .fastmatch import (
    APPROACHES,
    DEFAULT_BLOCK_SIZE,
    PreparedQuery,
    assemble_report,
    engine_counters,
    make_engine,
    prepared_pair_codes,
    scan_counters,
)
from .report import RunReport
from .scan import run_scan
from .scheduler import BatchScheduler, ScheduleResult
from .stats_engine import StatsEngine

__all__ = ["CacheStats", "MatchSession"]


def _template(query: HistogramQuery) -> tuple:
    """The ground-truth cache key: what a query's exact counts depend on."""
    return (query.candidate_attribute, query.grouping_attribute, query.predicate)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for the session's artifact cache layers."""

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    evictions: dict[str, int] = field(default_factory=dict)

    def record(self, layer: str, hit: bool) -> None:
        counter = self.hits if hit else self.misses
        counter[layer] = counter.get(layer, 0) + 1

    def record_eviction(self, layer: str) -> None:
        self.evictions[layer] = self.evictions.get(layer, 0) + 1

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    @property
    def total_evictions(self) -> int:
        return sum(self.evictions.values())

    def summary(self) -> str:
        layers = sorted(set(self.hits) | set(self.misses))
        parts = [
            f"{layer}={self.hits.get(layer, 0)}h/{self.misses.get(layer, 0)}m"
            for layer in layers
        ]
        if self.total_evictions:
            parts.append(f"evicted={self.total_evictions}")
        return " ".join(parts) if parts else "empty"


class _StepperJob:
    """One query's resumable execution unit inside a session."""

    def __init__(
        self,
        name: str,
        prepared: PreparedQuery,
        approach: str,
        config: HistSimConfig,
        cost_model: CostModel,
        clock: SimulatedClock,
        seed: int,
        audit: bool,
        max_step_rows: int | None,
        backend: ExecutionBackend,
        tracer=NULL_TRACER,
        tenant: str | None = None,
        profiler=NULL_PROFILER,
        kernel: str = "auto",
    ) -> None:
        self.name = name
        self.approach = approach
        self.prepared = prepared
        self.config = config
        self.clock = clock
        self.tracer = tracer
        self.tenant = tenant
        self.profiler = profiler
        #: Stage the most recent step executed in ("stage1"/"stage2"/
        #: "stage3"); the engine stamps it on its ``engine.step`` spans.
        self.last_stage: str | None = None
        self._cost_model = cost_model
        self._audit = audit
        rng = np.random.default_rng(seed)
        self.engine = make_engine(
            prepared, approach, config, cost_model, clock, rng, backend,
            profiler=profiler, kernel=kernel,
        )
        stats_engine = StatsEngine(cost_model, clock)
        algorithm = HistSim(
            self.engine, prepared.target, config, stats_cost=stats_engine,
            backend=backend,
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
                    est_ns_before=est_before * self._cost_model.tuple_read_ns,
                    # Eq. 1 sequential-read cost of the *delivered* slice —
                    # what ServingMetrics calibrates against observed time.
                    est_slice_ns=report.fresh_rows * self._cost_model.tuple_read_ns,
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

    def estimated_remaining_ns(self) -> float:
        """Optimistic remaining service time: the lookahead row estimate at
        pure sequential-read cost.  A lower bound (probes, stats, and block
        overheads come on top), which is exactly what feasibility shedding
        wants — a deadline even this cannot meet is certainly doomed."""
        return self.estimated_remaining_rows() * self._cost_model.tuple_read_ns

    def _profile_dict(self) -> dict | None:
        if not self.profiler.enabled:
            return None
        return self.profiler.snapshot().to_dict()

    def finish(self, service_ns: float) -> RunReport:
        return assemble_report(
            self.prepared,
            self.approach,
            self.stepper.result,
            self.config,
            service_ns,
            engine_counters(self.engine),
            audit=self._audit,
            query_name=self.name,
            backend=self.engine.backend.name,
            profile=self._profile_dict(),
        )

    def finish_partial(self, service_ns: float) -> RunReport:
        """Deadline-cut answer: the current top-k estimate, stamped with the
        ε the delivered samples actually achieved (Theorem 1 inverted)."""
        result = self.stepper.partial_result()
        return assemble_report(
            self.prepared,
            self.approach,
            result,
            self.config,
            service_ns,
            engine_counters(self.engine),
            audit=False,
            query_name=self.name,
            backend=self.engine.backend.name,
            partial=not self.stepper.done,
            achieved_epsilon=self.stepper.achieved_epsilon(result.matching),
            achieved_delta=self.config.delta,
            profile=self._profile_dict(),
        )


class _ScanJob:
    """The exact-scan baseline as a single atomic scheduler step."""

    def __init__(
        self,
        name: str,
        prepared: PreparedQuery,
        config: HistSimConfig,
        cost_model: CostModel,
        clock: SimulatedClock,
        audit: bool,
        backend: ExecutionBackend | None = None,
        tracer=NULL_TRACER,
        tenant: str | None = None,
        profiler=NULL_PROFILER,
    ) -> None:
        self.name = name
        self.approach = "scan"
        self.prepared = prepared
        self.config = config
        self.cost_model = cost_model
        self.clock = clock
        self.tracer = tracer
        self.tenant = tenant
        self.profiler = profiler
        self.last_stage: str | None = None
        self._audit = audit
        self._backend = backend
        self._result = None

    @property
    def done(self) -> bool:
        return self._result is not None

    def estimated_remaining_rows(self) -> float:
        """Cost hint for serving policies: a scan reads every row, once."""
        return 0.0 if self.done else float(self.prepared.shuffled.num_rows)

    def estimated_remaining_ns(self) -> float:
        """Optimistic remaining service time of the full sequential pass."""
        return self.estimated_remaining_rows() * self.cost_model.tuple_read_ns

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
        return assemble_report(
            self.prepared,
            "scan",
            self._result,
            self.config,
            service_ns,
            scan_counters(self.prepared.shuffled),
            audit=self._audit,
            query_name=self.name,
            backend=self._backend.name if self._backend is not None else "serial",
            profile=(
                self.profiler.snapshot().to_dict()
                if self.profiler.enabled
                else None
            ),
        )


class MatchSession:
    """A long-lived, multi-query histogram-matching session over one table.

    Parameters
    ----------
    table:
        The encoded relation every submitted query runs against.
    block_size:
        Tuples per column block for the shuffled layout.
    cost_model:
        Simulated-hardware constants shared by all queries.
    audit:
        Verify guarantees against the cached exact ground truth per query.
    backend:
        Execution backend for every query's sampling: ``"serial"`` (default),
        ``"sharded"``, ``"threads"``, or an existing
        :class:`~repro.parallel.ExecutionBackend` instance.  The session
        owns a backend it creates from a string spec — the sharded
        backend's worker pool and shared-memory segments (or the thread
        backend's executor) persist across queries and are released by
        :meth:`close` (or the context-manager exit).  A passed-in instance
        stays open after :meth:`close` so it can be shared across sessions;
        its creator closes it.
    workers:
        Worker count for ``backend="sharded"`` (processes; default: CPU
        count) or ``backend="threads"`` (threads).
    kernel:
        Counting-kernel spec for every query's window counting
        (:data:`~repro.parallel.KERNEL_SPECS`; default ``"auto"``).  All
        kernels are byte-identical; ``"fused"`` additionally builds and
        caches a pair-code column per ``(candidate, grouping, predicate)``
        in the prepared-artifact layer, so window counting — filtered or
        not — degenerates to take + bincount at the memory cost of one
        narrow column.
    clock:
        The :class:`~repro.system.clock.Clock` every job of this session
        charges (default: a fresh :class:`SimulatedClock`).  A
        :class:`~repro.system.registry.SessionRegistry` passes one shared
        clock so its sessions' deadlines and latencies live on one
        timeline; a :class:`~repro.system.clock.WallClock` makes the
        session serve in real time.
    policy:
        Scheduling policy for the batch drain
        (:data:`repro.serving.POLICIES`; default round-robin).  Latency
        shaping only — per-query results are policy-independent.
    max_cached_queries, max_cached_bytes:
        Bounds on the prepared-artifact cache for long-lived serving
        sessions: exceeding either evicts least-recently-used prepared
        queries, releasing the per-row sub-artifacts (shuffle, index, row
        filters, pair codes) that no cached query references any more —
        including their shared-memory segments via
        :meth:`~repro.parallel.ExecutionBackend.unpublish`.  The evicted
        template's ground truth is kept as an *orphan*, so a later miss on
        it skips the table pass; orphans count in :attr:`cache_bytes`,
        hold at most ``table.nbytes`` together (the coldest goes first),
        and are all dropped before ``max_cached_bytes`` evicts any
        prepared query — so which prepared queries are cached never
        depends on them.  ``None`` (default) keeps the cache unbounded.
        The most recent entry is never evicted, so a single query larger
        than ``max_cached_bytes`` still runs.
    cache_governor:
        Optional cross-session cache coordinator (duck-typed; a
        :class:`~repro.system.registry.SessionRegistry`).  It is notified
        on every prepared-cache touch/insert/eviction
        (``cache_touched(session, key)`` / ``cache_evicted(session, key)``)
        and asked to enforce its *global* budget after inserts
        (``enforce_budget()``), on top of this session's own bounds.

    Usage
    -----
    >>> session = MatchSession(table)
    >>> session.submit(query_a)
    >>> session.submit(query_b, approach="scanmatch")
    >>> run = session.run()           # interleaves both, shared clock
    >>> run.throughput_qps, run[0].latency_seconds, run[0].report.result
    """

    def __init__(
        self,
        table: ColumnTable,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        audit: bool = True,
        backend: str | ExecutionBackend = "serial",
        workers: int | None = None,
        kernel: str = "auto",
        clock: Clock | None = None,
        policy: str = "rr",
        max_cached_queries: int | None = None,
        max_cached_bytes: int | None = None,
        cache_governor=None,
        tracer=None,
        profiler=None,
    ) -> None:
        if max_cached_queries is not None and max_cached_queries < 1:
            raise ValueError(
                f"max_cached_queries must be >= 1, got {max_cached_queries}"
            )
        if max_cached_bytes is not None and max_cached_bytes < 1:
            raise ValueError(f"max_cached_bytes must be >= 1, got {max_cached_bytes}")
        if kernel not in KERNEL_SPECS:
            raise ValueError(f"kernel must be one of {KERNEL_SPECS}, got {kernel!r}")
        self.table = table
        self.block_size = block_size
        self.cost_model = cost_model
        self.audit = audit
        self.kernel = kernel
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = make_backend(backend, workers)
        self.clock = clock if clock is not None else SimulatedClock()
        #: Observability: spans for this session's jobs, cache events, and
        #: (when the session owns its backend) backend fan-out windows.
        #: Front doors constructed over this session pick it up.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Hot-path profiler: per-job children fork from it (per-report
        #: profiles) while it keeps the session-wide aggregate.  ``None``
        #: (default) keeps every hook on the zero-overhead no-op.
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        #: Tenant key for per-tenant metrics; a SessionRegistry stamps the
        #: dataset key here, standalone sessions stay anonymous.
        self.tenant: str | None = None
        if self.tracer.enabled and self._owns_backend:
            self.backend.set_tracer(self.tracer)
        if self.profiler.enabled and self._owns_backend:
            self.backend.set_profiler(self.profiler)
        self.scheduler = BatchScheduler(self.clock, backend=self.backend, policy=policy)
        self.cache_stats = CacheStats()
        self.max_cached_queries = max_cached_queries
        self.max_cached_bytes = max_cached_bytes
        self._governor = cache_governor
        self._shuffle_cache: dict = {}
        self._index_cache: dict = {}
        #: Ground truth per template; outlives its prepared entries as an
        #: orphan, kept in the order the templates were orphaned.
        self._exact_cache: OrderedDict = OrderedDict()
        self._filter_cache: dict = {}
        self._codes_cache: dict = {}
        self._prepared_cache: OrderedDict = OrderedDict()
        self._submitted = 0
        self.closed = False

    # -------------------------------------------------------------- artifacts

    def _record_cache(self, layer: str, hit: bool) -> None:
        self.cache_stats.record(layer, hit)
        if self.tracer.enabled:
            self.tracer.event(
                "cache.hit" if hit else "cache.miss",
                clock=self.clock,
                layer=layer,
                tenant=self.tenant,
            )

    def _record_eviction(self, layer: str) -> None:
        self.cache_stats.record_eviction(layer)
        if self.tracer.enabled:
            self.tracer.event(
                "cache.evict", clock=self.clock, layer=layer, tenant=self.tenant
            )

    def _cached(self, cache: dict, key, layer: str, build):
        hit = key in cache
        self._record_cache(layer, hit)
        if not hit:
            cache[key] = build()
        return cache[key]

    @property
    def cache_hits(self) -> int:
        """Total prepared-artifact cache hits across all layers."""
        return self.cache_stats.total_hits

    @property
    def cache_bytes(self) -> int:
        """Bytes held by artifacts the cached prepared queries reference,
        plus the orphaned ground truths kept for evicted templates.

        Shared artifacts are counted once (two queries over one shuffle pay
        for it once), matching what eviction can actually free.
        """
        seen: set[int] = set()
        total = 0
        for prepared in self._prepared_cache.values():
            for obj, nbytes in (
                (prepared.shuffled, prepared.shuffled.table.nbytes),
                (prepared.index, prepared.index.nbytes),
                (prepared.exact_counts, prepared.exact_counts.nbytes),
                (
                    prepared.row_filter,
                    prepared.row_filter.nbytes
                    if prepared.row_filter is not None
                    else 0,
                ),
                (
                    prepared.pair_codes,
                    prepared.pair_codes.nbytes
                    if prepared.pair_codes is not None
                    else 0,
                ),
            ):
                if obj is None or id(obj) in seen:
                    continue
                seen.add(id(obj))
                total += nbytes
        return total + self._orphan_bytes()

    def _orphan_bytes(self) -> int:
        return sum(counts.nbytes for _, counts in self._orphans())

    def _orphans(self) -> list:
        """``(template, counts)`` of the kept ground truths no cached
        prepared query references, coldest first."""
        live = {id(p.exact_counts) for p in self._prepared_cache.values()}
        return [
            (template, counts)
            for template, counts in self._exact_cache.items()
            if id(counts) not in live
        ]

    def drop_orphan(self) -> bool:
        """Drop the coldest orphaned ground truth (cross-session budget
        hook); returns whether there was one."""
        orphans = self._orphans()
        if not orphans:
            return False
        del self._exact_cache[orphans[0][0]]
        self._record_eviction("ground_truth")
        return True

    def _drop_from(self, cache: dict, artifact, layer: str) -> None:
        """Remove ``artifact`` from one sub-cache, counting an eviction only
        if that sub-cache held it (an adopted entry's artifacts never were)."""
        keys = [key for key, value in cache.items() if value is artifact]
        for key in keys:
            del cache[key]
        if keys:
            self._record_eviction(layer)

    def _release_artifacts(self, evicted: PreparedQuery) -> None:
        """Drop the evicted entry's per-row sub-artifacts no live entry
        still uses, unpublish their shared-memory segments from the
        backend, and keep its ground truth as the newest orphan — within
        ``table.nbytes`` of orphans, shedding the coldest."""
        live = list(self._prepared_cache.values())
        unpublish: list = []
        if not any(p.shuffled is evicted.shuffled for p in live):
            self._drop_from(self._shuffle_cache, evicted.shuffled, "shuffle")
            unpublish.append(evicted.shuffled.table)
        if not any(p.index is evicted.index for p in live):
            self._drop_from(self._index_cache, evicted.index, "index")
        if evicted.row_filter is not None and not any(
            p.row_filter is evicted.row_filter for p in live
        ):
            self._drop_from(self._filter_cache, evicted.row_filter, "row_filter")
            unpublish.append(evicted.row_filter)
        if evicted.pair_codes is not None and not any(
            p.pair_codes is evicted.pair_codes for p in live
        ):
            self._drop_from(self._codes_cache, evicted.pair_codes, "pair_codes")
            unpublish.append(evicted.pair_codes)
        if unpublish:
            self.backend.unpublish(*unpublish)
        template = _template(evicted.query)
        if self._exact_cache.get(template) is evicted.exact_counts and not any(
            p.exact_counts is evicted.exact_counts for p in live
        ):
            self._exact_cache.move_to_end(template)
            while self._orphan_bytes() > self.table.nbytes:
                self.drop_orphan()

    def _over_cache_bounds(self) -> bool:
        if (
            self.max_cached_queries is not None
            and len(self._prepared_cache) > self.max_cached_queries
        ):
            return True
        return self._over_cache_bytes()

    def _over_cache_bytes(self) -> bool:
        return (
            self.max_cached_bytes is not None
            and self.cache_bytes > self.max_cached_bytes
        )

    def _evict_prepared(self, key) -> None:
        """Drop one cached prepared query, release its per-row artifacts,
        and tell the cross-session governor (if any) the slot is gone."""
        evicted = self._prepared_cache.pop(key)
        self._record_eviction("prepared")
        self._release_artifacts(evicted)
        if self._governor is not None:
            self._governor.cache_evicted(self, key)

    def evict_prepared(self, key) -> bool:
        """Evict one specific cached entry (cross-session budget hook).

        Refuses the session's most recent entry — it is the one being
        served — and unknown keys; returns whether an eviction happened.
        """
        if key not in self._prepared_cache or len(self._prepared_cache) <= 1:
            return False
        if key == next(reversed(self._prepared_cache)):
            return False
        self._evict_prepared(key)
        return True

    def _enforce_cache_bounds(self) -> None:
        """Evict least-recently-used prepared queries until within bounds.

        Over ``max_cached_bytes``, orphaned ground truths go first: with
        all of them gone the bytes are those of the cached prepared
        queries alone, so the same entries are evicted as if no orphan had
        been kept.  The most recent entry always survives (it is the one
        being served), so an over-budget single query degrades to
        cache-nothing-else rather than failing.
        """
        while True:
            if self._over_cache_bytes() and self.drop_orphan():
                continue
            if len(self._prepared_cache) <= 1 or not self._over_cache_bounds():
                return
            self._evict_prepared(next(iter(self._prepared_cache)))

    def prepared(self, query: HistogramQuery, seed: int = 0) -> PreparedQuery:
        """The cached :class:`PreparedQuery` for ``(query, block_size, seed)``.

        Sub-artifacts are cached at the granularity they actually depend on:
        the shuffle on ``(block_size, seed)``, the bitmap index on the
        candidate attribute, ground truth, row filters and pair codes on the
        query template — so distinct queries still share whatever they can.

        A miss builds row filter → pair codes → ground truth, in that order,
        each from the one before: the predicate is evaluated once per
        filter-cache miss, the codes are folded with that filter, and the
        ground truth of a session that has codes is one ``bincount`` of them.
        A miss on a template whose entries were all evicted finds its
        ground truth kept as an orphan: it rebuilds only the per-row
        artifacts and resolves the target from the kept counts.
        """
        key = (query, self.block_size, seed)
        if key in self._prepared_cache:
            self._record_cache("prepared", True)
            self._prepared_cache.move_to_end(key)
            if self._governor is not None:
                self._governor.cache_touched(self, key)
            return self._prepared_cache[key]
        self._record_cache("prepared", False)
        query.validate_against(self.table)
        shuffled = self._cached(
            self._shuffle_cache,
            (self.block_size, seed),
            "shuffle",
            lambda: shuffle_table(
                self.table, self.block_size, np.random.default_rng(seed)
            ),
        )
        index = self._cached(
            self._index_cache,
            (query.candidate_attribute, self.block_size, seed),
            "index",
            lambda: build_bitmap_index(shuffled, query.candidate_attribute),
        )
        if isinstance(query.predicate, TruePredicate):
            row_filter = None
        else:
            row_filter = self._cached(
                self._filter_cache,
                (query.predicate, self.block_size, seed),
                "row_filter",
                lambda: query.predicate.mask(shuffled.table),
            )
        pair_codes = None
        if self.kernel == "fused":
            # The fused kernel's prepared artifact: the pair-code column of
            # the *shuffled* table folded with the predicate's row filter,
            # shared by every query over the same (candidate, grouping,
            # predicate) on this layout.
            pair_codes = self._cached(
                self._codes_cache,
                (
                    query.candidate_attribute,
                    query.grouping_attribute,
                    query.predicate,
                    self.block_size,
                    seed,
                ),
                "pair_codes",
                lambda: prepared_pair_codes(shuffled, query, row_filter),
            )
        # Exact counts are aggregates, invariant to the shuffle permutation —
        # key only on the query template so every seed shares one ground truth.
        exact = self._cached(
            self._exact_cache,
            _template(query),
            "ground_truth",
            lambda: self._ground_truth(shuffled, query, row_filter, pair_codes),
        )
        target = resolve_target(query.target, exact)
        prepared = PreparedQuery(
            query=query,
            shuffled=shuffled,
            index=index,
            exact_counts=exact,
            target=target,
            row_filter=row_filter,
            pair_codes=pair_codes,
        )
        self._prepared_cache[key] = prepared
        if self._governor is not None:
            self._governor.cache_touched(self, key)
        self._enforce_cache_bounds()
        if self._governor is not None:
            self._governor.enforce_budget()
        return prepared

    def _ground_truth(self, shuffled, query, row_filter, pair_codes) -> np.ndarray:
        """Exact counts of ``query`` from what the miss already built.

        With a pair-code column (folded with ``row_filter``) that is one
        ``bincount`` of it — byte-identical to the filtered table pass by
        the definition of a pair code, and recorded on the session's
        profiler as that pass is on the backend's.  Without one, the
        backend's table pass under the filter the session already holds.
        """
        if pair_codes is None:
            return exact_candidate_counts(
                shuffled.table, query, backend=self.backend, row_filter=row_filter
            )
        profiler = self.profiler
        started = time.perf_counter_ns() if profiler.enabled else 0
        counts = count_codes(pair_codes, *query.cardinalities(shuffled.table))
        if profiler.enabled:
            profiler.record_kernel(
                "session.ground_truth",
                float(time.perf_counter_ns() - started),
                rows=int(counts.sum()),
                bincounts=1,
            )
        return counts

    def adopt(self, prepared: PreparedQuery, seed: int = 0) -> None:
        """Seed the cache with an externally prepared query (e.g. from
        :func:`repro.data.prepare_workload`), so later submits of the same
        query reuse its artifacts instead of re-preparing.

        The artifacts must plausibly belong to this session's table and
        layout — same row count and block size — otherwise the session
        would silently serve answers for a different dataset."""
        if prepared.shuffled.num_rows != self.table.num_rows:
            raise ValueError(
                f"prepared artifacts cover {prepared.shuffled.num_rows} rows; "
                f"this session's table has {self.table.num_rows}"
            )
        if prepared.shuffled.layout.block_size != self.block_size:
            raise ValueError(
                f"prepared artifacts use block_size="
                f"{prepared.shuffled.layout.block_size}; "
                f"this session uses {self.block_size}"
            )
        key = (prepared.query, self.block_size, seed)
        self._prepared_cache[key] = prepared
        self._prepared_cache.move_to_end(key)
        if self._governor is not None:
            self._governor.cache_touched(self, key)
        self._enforce_cache_bounds()
        if self._governor is not None:
            self._governor.enforce_budget()

    # -------------------------------------------------------------- execution

    def _make_config(self, query: HistogramQuery, config: HistSimConfig | None) -> HistSimConfig:
        if config is not None:
            return config
        return HistSimConfig(k=query.k, epsilon=0.1, delta=0.01, sigma=0.0)

    def make_job(
        self,
        query: HistogramQuery,
        *,
        approach: str = "fastmatch",
        config: HistSimConfig | None = None,
        seed: int = 0,
        max_step_rows: int | None = None,
        name: str | None = None,
        prepared: PreparedQuery | None = None,
    ):
        """Prepare one query (hitting the artifact cache) and wrap it in a
        resumable job, **without** enqueueing it.

        This is the seam the serving front door uses: it schedules jobs on
        its own deadline-aware scheduler rather than the session's batch
        drain.  ``max_step_rows`` bounds the rows sampled per scheduler
        step for finer interleaving/preemption; ``prepared`` bypasses and
        seeds the cache (see :meth:`adopt`).
        """
        if self.closed:
            raise RuntimeError("MatchSession is closed")
        if approach not in APPROACHES:
            raise ValueError(f"approach must be one of {APPROACHES}, got {approach!r}")
        if prepared is None:
            prepared = self.prepared(query, seed=seed)
        else:
            if prepared.query != query:
                raise ValueError(
                    "prepared artifacts belong to a different query "
                    f"({prepared.query.name or prepared.query.candidate_attribute!r} "
                    f"!= {query.name or query.candidate_attribute!r})"
                )
            self.adopt(prepared, seed=seed)
        config = self._make_config(query, config)
        job_name = name or query.name or f"query-{self._submitted}"
        self._submitted += 1
        # Per-job child profiler: the job's RunReport carries its own
        # profile while records still roll up into the session aggregate.
        job_profiler = self.profiler.fork()
        if approach == "scan":
            return _ScanJob(
                job_name, prepared, config, self.cost_model, self.clock, self.audit,
                backend=self.backend,
                tracer=self.tracer,
                tenant=self.tenant,
                profiler=job_profiler,
            )
        return _StepperJob(
            job_name,
            prepared,
            approach,
            config,
            self.cost_model,
            self.clock,
            seed,
            self.audit,
            max_step_rows,
            self.backend,
            tracer=self.tracer,
            tenant=self.tenant,
            profiler=job_profiler,
            kernel=self.kernel,
        )

    def job_for_request(self, request, default_max_step_rows: int | None = None):
        """Build the resumable job for one serving
        :class:`~repro.serving.QueryRequest` (the front-door seam).

        ``request.dataset`` is a registry routing key; a single-session
        door serves whatever it is handed, so the key is not checked here
        — :class:`~repro.system.registry.SessionRegistry` routes on it.
        """
        return self.make_job(
            request.query,
            approach=request.approach,
            config=request.config,
            seed=request.seed,
            max_step_rows=(
                request.max_step_rows
                if request.max_step_rows is not None
                else default_max_step_rows
            ),
            name=request.name,
        )

    def submit(
        self,
        query: HistogramQuery,
        *,
        approach: str = "fastmatch",
        config: HistSimConfig | None = None,
        seed: int = 0,
        max_step_rows: int | None = None,
        name: str | None = None,
        prepared: PreparedQuery | None = None,
    ) -> None:
        """Enqueue one query for the next :meth:`run` (see :meth:`make_job`)."""
        self.scheduler.add(
            self.make_job(
                query,
                approach=approach,
                config=config,
                seed=seed,
                max_step_rows=max_step_rows,
                name=name,
                prepared=prepared,
            )
        )

    def run(self) -> ScheduleResult:
        """Drain all submitted queries on the shared clock (session policy)."""
        return self.scheduler.run()

    def serve(
        self,
        *,
        policy: str = "edf",
        max_queue: int | None = None,
        default_deadline_ns: float | None = None,
        default_max_step_rows: int | None = None,
        max_concurrent_steps: int = 1,
    ):
        """An online :class:`~repro.serving.FrontDoor` over this session.

        The front door accepts :class:`~repro.serving.QueryRequest`\\ s
        while earlier ones run, sheds load beyond ``max_queue``, and
        settles per-request deadlines; its shutdown closes this session
        (idempotently).  ``max_concurrent_steps`` > 1 offloads steps to a
        bounded executor so different requests' steps run concurrently
        (answers stay byte-identical; latency changes).
        """
        from ..serving.frontdoor import FrontDoor

        return FrontDoor(
            self,
            policy=policy,
            max_queue=max_queue,
            default_deadline_ns=default_deadline_ns,
            default_max_step_rows=default_max_step_rows,
            max_concurrent_steps=max_concurrent_steps,
        )

    def serve_async(
        self,
        *,
        policy: str = "edf",
        max_queue: int | None = None,
        default_deadline_ns: float | None = None,
        default_max_step_rows: int | None = None,
        max_concurrent_steps: int = 1,
    ):
        """An :class:`~repro.serving.AsyncFrontDoor` over this session
        (asyncio driver; start it from inside a running event loop)."""
        from ..serving.async_frontdoor import AsyncFrontDoor

        return AsyncFrontDoor(
            self,
            policy=policy,
            max_queue=max_queue,
            default_deadline_ns=default_deadline_ns,
            default_max_step_rows=default_max_step_rows,
            max_concurrent_steps=max_concurrent_steps,
        )

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release backend resources (worker pool, shared-memory segments).

        Idempotent — the front door's shutdown path closes the session it
        serves, and a caller using the session as a context manager then
        closes it again; both orders are safe.  Only a backend the session
        created itself is closed — a passed-in instance belongs to its
        creator (who may be sharing it across sessions).  Orphaned ground
        truths are dropped: no later miss can use them.  After close,
        :meth:`make_job`/:meth:`submit` raise.
        """
        if self.closed:
            return
        self.closed = True
        while self.drop_orphan():
            pass
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "MatchSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ conveniences

    def match(
        self,
        query: HistogramQuery,
        *,
        approach: str = "fastmatch",
        config: HistSimConfig | None = None,
        seed: int = 0,
    ) -> ServingOutcome:
        """Submit and run one query by itself (still hits the artifact cache)."""
        self.submit(query, approach=approach, config=config, seed=seed)
        return self.run()[-1]

    def match_many(
        self,
        queries,
        *,
        approach: str = "fastmatch",
        config: HistSimConfig | None = None,
        seed: int = 0,
        max_step_rows: int | None = None,
    ) -> ScheduleResult:
        """Submit a batch of queries and interleave them to completion."""
        for query in queries:
            self.submit(
                query,
                approach=approach,
                config=config,
                seed=seed,
                max_step_rows=max_step_rows,
            )
        return self.run()
