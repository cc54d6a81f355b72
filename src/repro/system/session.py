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
  control, deadlines — put a :class:`repro.serving.FrontDoor` (or
  :class:`~repro.serving.AsyncFrontDoor`) in front: ``FrontDoor(session)``.
- **Bounded caches** — an :class:`~repro.system.cache.ArtifactCache`
  decides which prepared queries stay: the session's own, or one a
  :class:`~repro.system.registry.SessionRegistry` shares among its
  tenants.  An evicted template's ground truth stays behind as an
  *orphan* (a few KiB of counts against the table's MiB), so the next
  miss on that template does not recount the table.

Each job is built by :mod:`repro.system.fastmatch` — the same job
:func:`~repro.system.fastmatch.run_approach` steps alone on a clock of its
own.  Interleaving reorders only *when* each job's work happens on the
shared clock, never *what* it samples, so a session's answer equals
``run_approach``'s for the same prepared query, config, and seed.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..bitmap.builder import build_bitmap_index
from ..core.config import HistSimConfig
from ..core.target import resolve_target
from ..obs.profiler import NULL_PROFILER
from ..obs.tracer import NULL_TRACER
from ..parallel import KERNEL_SPECS, ExecutionBackend, count_codes, make_backend
from ..query.executor import exact_candidate_counts
from ..query.predicate import TruePredicate
from ..query.spec import HistogramQuery
from ..serving.engine import ServingOutcome
from ..storage.cost_model import DEFAULT_COST_MODEL, CostModel
from ..storage.shuffle import ShuffledTable, shuffle_table
from ..storage.table import ColumnTable
from .cache import ArtifactCache
from .clock import Clock, SimulatedClock
from .fastmatch import (
    APPROACHES,
    DEFAULT_BLOCK_SIZE,
    PreparedQuery,
    _make_job,
    prepared_pair_codes,
)
from .scheduler import BatchScheduler, ScheduleResult

__all__ = ["CacheStats", "MatchSession"]


def _template(query: HistogramQuery) -> tuple:
    """The ground-truth cache key: what a query's exact counts depend on."""
    return (query.candidate_attribute, query.grouping_attribute, query.predicate)


def _per_row(entry: PreparedQuery) -> list:
    """An entry's per-row artifacts: shuffle, index, row filter, pair codes."""
    parts = (entry.shuffled, entry.index, entry.row_filter, entry.pair_codes)
    return [part for part in parts if part is not None]


def _published(artifacts) -> list:
    """What a backend may publish of ``artifacts`` (a shuffle's table)."""
    return [a.table if isinstance(a, ShuffledTable) else a for a in artifacts]


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
        Bounds on the session's own :class:`ArtifactCache` (``None``, the
        default: unbounded), whose eviction rule governs them.  An
        eviction releases the per-row sub-artifacts (shuffle, index, row
        filters, pair codes) no cached query references any more —
        unpublishing their shared-memory segments via
        :meth:`~repro.parallel.ExecutionBackend.unpublish` — and keeps the
        template's ground truth as an *orphan*, so a later miss on it
        skips the table pass; orphans count in :attr:`cache_bytes` and
        hold at most ``table.nbytes`` together (the coldest goes first).
    cache:
        An :class:`ArtifactCache` shared with other sessions (a
        :class:`~repro.system.registry.SessionRegistry` passes its own);
        its bounds are the shared ones, so ``max_cached_queries`` and
        ``max_cached_bytes`` must stay ``None``.

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
        cache: ArtifactCache | None = None,
        tracer=None,
        profiler=None,
    ) -> None:
        if cache is None:
            cache = ArtifactCache(
                max_cached_queries=max_cached_queries,
                max_cached_bytes=max_cached_bytes,
            )
        elif max_cached_queries is not None or max_cached_bytes is not None:
            raise ValueError("a shared cache's bounds are its own: no max_cached_*")
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
        #: Which prepared queries stay cached (shared under a registry).
        self.cache = cache
        cache.sessions.append(self)
        #: Per-row artifacts (shuffle, index, row filters, pair codes) under
        #: ``(layer, key)``, shared by every cached entry that uses them.
        self._artifacts: dict = {}
        #: Ground truth per template; outlives its prepared entries as an
        #: orphan, kept in the order the templates were orphaned.
        self._exact_cache: OrderedDict = OrderedDict()
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

    def _artifact(self, layer: str, key, build):
        return self._cached(self._artifacts, (layer, key), layer, build)

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
        held = {}
        for prepared in self.cache.entries(self).values():
            for artifact in (*_per_row(prepared), prepared.exact_counts):
                held[id(artifact)] = artifact.nbytes
        return sum(held.values()) + self._orphan_bytes()

    def _orphan_bytes(self) -> int:
        return sum(counts.nbytes for _, counts in self._orphans())

    def _orphans(self) -> list:
        """``(template, counts)`` of the kept ground truths no cached
        prepared query references, coldest first."""
        live = {id(p.exact_counts) for p in self.cache.entries(self).values()}
        return [
            (template, counts)
            for template, counts in self._exact_cache.items()
            if id(counts) not in live
        ]

    def drop_orphan(self) -> bool:
        """Drop the coldest orphaned ground truth (the cache's first resort
        over its byte bound); returns whether there was one."""
        orphans = self._orphans()
        if not orphans:
            return False
        del self._exact_cache[orphans[0][0]]
        self._record_eviction("ground_truth")
        return True

    def _release_artifacts(self, gone: PreparedQuery) -> None:
        """Drop the per-row artifacts of an entry that left the cache
        (evicted or replaced) which no cached entry still uses, unpublish
        their shared-memory segments from the backend, and keep its ground
        truth as the newest orphan — within ``table.nbytes`` of orphans,
        shedding the coldest.  A layer counts an eviction only if it held
        the artifact (an adopted entry's never were)."""
        live = list(self.cache.entries(self).values())
        held = {id(a) for p in live for a in _per_row(p)}
        freed = {id(a): a for a in _per_row(gone) if id(a) not in held}
        for slot in [s for s, a in self._artifacts.items() if id(a) in freed]:
            del self._artifacts[slot]
            self._record_eviction(slot[0])
        if freed:
            self.backend.unpublish(*_published(freed.values()))
        template = _template(gone.query)
        if self._exact_cache.get(template) is gone.exact_counts and not any(
            p.exact_counts is gone.exact_counts for p in live
        ):
            self._exact_cache.move_to_end(template)
            while self._orphan_bytes() > self.table.nbytes:
                self.drop_orphan()

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
        cached = self.cache.get(self, key)
        self._record_cache("prepared", cached is not None)
        if cached is not None:
            return cached
        query.validate_against(self.table)
        shuffled = self._artifact(
            "shuffle",
            (self.block_size, seed),
            lambda: shuffle_table(
                self.table, self.block_size, np.random.default_rng(seed)
            ),
        )
        index = self._artifact(
            "index",
            (query.candidate_attribute, self.block_size, seed),
            lambda: build_bitmap_index(shuffled, query.candidate_attribute),
        )
        if isinstance(query.predicate, TruePredicate):
            row_filter = None
        else:
            row_filter = self._artifact(
                "row_filter",
                (query.predicate, self.block_size, seed),
                lambda: query.predicate.mask(shuffled.table),
            )
        pair_codes = None
        if self.kernel == "fused":
            # The fused kernel's prepared artifact: the pair-code column of
            # the *shuffled* table folded with the predicate's row filter,
            # shared by every query over the same (candidate, grouping,
            # predicate) on this layout.
            pair_codes = self._artifact(
                "pair_codes",
                (query.candidate_attribute, query.grouping_attribute,
                 query.predicate, self.block_size, seed),
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
        self.cache.put(self, key, prepared)
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
        self.cache.put(self, (prepared.query, self.block_size, seed), prepared)

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
        return _make_job(
            job_name,
            prepared,
            approach,
            config,
            self.cost_model,
            self.clock,
            seed=seed,
            audit=self.audit,
            backend=self.backend,
            max_step_rows=max_step_rows,
            kernel=self.kernel,
            tracer=self.tracer,
            tenant=self.tenant,
            # Per-job child profiler: the job's RunReport carries its own
            # profile while records still roll up into the session aggregate.
            profiler=self.profiler.fork(),
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

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release backend resources (worker pool, shared-memory segments).

        Idempotent — the front door's shutdown path closes the session it
        serves, and a caller using the session as a context manager then
        closes it again; both orders are safe.  Only a backend the session
        created itself is closed — a passed-in instance belongs to its
        creator (who may be sharing it across sessions), so the session
        unpublishes its artifacts' shared-memory segments from it.  The
        session's entries leave the cache, uncounted, and its ground truths
        go with them: no later miss can use them.  After close,
        :meth:`make_job`/:meth:`submit` raise.
        """
        if self.closed:
            return
        self.closed = True
        held = [a for p in self.cache.discard(self) for a in _per_row(p)]
        self.backend.unpublish(*_published([*held, *self._artifacts.values()]))
        self._artifacts.clear()
        self._exact_cache.clear()
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
