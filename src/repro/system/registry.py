"""Multi-tenant session registry: N datasets behind one front door.

A :class:`SessionRegistry` owns one :class:`~repro.system.MatchSession` per
dataset and presents the same job-building seam a single session does, so
either front door (thread or asyncio) can serve many datasets at once:

- **routing** — each :class:`~repro.serving.QueryRequest` carries a
  ``dataset`` key; the registry builds its job in the matching session
  (typed :class:`~repro.serving.UnknownDataset` when the key is absent or
  unknown).
- **one clock** — every session is constructed on the registry's shared
  :class:`~repro.system.clock.Clock` (simulated by default, wall for live
  serving), so deadlines and latencies across tenants live on a single
  coherent timeline.
- **one backend** — all sessions share the registry's execution backend:
  for ``backend="sharded"`` that is one set of worker processes
  and one shared-memory store across every tenant, spawned once and
  amortized over all of them.  The registry owns the backend's lifetime;
  sessions treat it as borrowed.
- **one cache budget** — ``max_cached_bytes`` bounds the *sum* of the
  tenants' prepared-artifact caches, orphaned ground truths included.
  Sessions report every cache touch/insert/evict to the registry (the
  ``cache_governor`` seam), which keeps a global LRU over
  ``(session, prepared-key)`` entries.  When the sum overflows it drops
  the sessions' orphans first, then evicts the globally least-recently-
  used evictable entry — so one hot tenant can use the whole budget while
  idle tenants shrink, instead of every tenant hoarding a fixed slice.

Routing and registry bookkeeping never touch sampling: a request served
through a registry is byte-identical to the same request served by a
standalone session over the same dataset.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator

from ..obs.profiler import NULL_PROFILER
from ..obs.tracer import NULL_TRACER
from ..parallel import ExecutionBackend, make_backend
from ..serving.request import UnknownDataset
from ..storage.cost_model import DEFAULT_COST_MODEL, CostModel
from ..storage.table import ColumnTable
from .clock import Clock, SimulatedClock
from .fastmatch import DEFAULT_BLOCK_SIZE
from .session import MatchSession

__all__ = ["SessionRegistry"]


class SessionRegistry:
    """Per-dataset :class:`MatchSession`\\ s behind one serving seam.

    Parameters
    ----------
    backend:
        Execution backend spec (``"serial"``/``"sharded"``/``"threads"``)
        or instance, shared by every session.  The registry closes a
        backend it created; a passed-in instance belongs to its creator.
    workers:
        Worker count for ``backend="sharded"`` (processes) or
        ``backend="threads"`` (threads).
    kernel:
        Default counting-kernel spec for every session
        (:data:`~repro.parallel.KERNEL_SPECS`; overridable per
        :meth:`add_dataset` call).  All kernels are byte-identical.
    clock:
        Shared :class:`Clock` for all sessions (default: a fresh
        :class:`SimulatedClock`).
    max_cached_bytes:
        Global bound on the sum of all sessions' prepared-artifact cache
        bytes; ``None`` leaves each session to its own limits.  Each
        session's most recent entry is never evicted (it is the one being
        served), so the floor is one entry per active tenant.
    block_size, cost_model, audit:
        Defaults applied to every session (overridable per
        :meth:`add_dataset` call).
    """

    def __init__(
        self,
        *,
        backend: str | ExecutionBackend = "serial",
        workers: int | None = None,
        kernel: str = "auto",
        clock: Clock | None = None,
        max_cached_bytes: int | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        audit: bool = True,
        tracer=None,
        profiler=None,
    ) -> None:
        if max_cached_bytes is not None and max_cached_bytes < 1:
            raise ValueError(f"max_cached_bytes must be >= 1, got {max_cached_bytes}")
        self.clock = clock if clock is not None else SimulatedClock()
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = make_backend(backend, workers)
        self.kernel = kernel
        #: Shared tracer for every tenant's spans (sessions inherit it, and
        #: the shared backend's fan-out windows report into it too).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            if self.tracer.clock is None:
                self.tracer.clock = self.clock
            self.backend.set_tracer(self.tracer)
        #: Shared hot-path profiler: sessions inherit it (per-job children
        #: fork from it), and the shared backend's table passes record into
        #: it directly.
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        if self.profiler.enabled:
            self.backend.set_profiler(self.profiler)
        self.max_cached_bytes = max_cached_bytes
        self.block_size = block_size
        self.cost_model = cost_model
        self.audit = audit
        self._sessions: OrderedDict[str, MatchSession] = OrderedDict()
        # Global recency of cached prepared entries, oldest first, keyed by
        # (session identity, prepared key) — maintained via the sessions'
        # cache_governor callbacks.
        self._lru: OrderedDict[
            tuple[int, Hashable], tuple[MatchSession, Hashable]
        ] = OrderedDict()
        self.closed = False

    # --------------------------------------------------------------- datasets

    def add_dataset(
        self, key: str, table: ColumnTable, **session_kwargs
    ) -> MatchSession:
        """Register ``table`` under ``key``; returns its new session.

        The session runs on the registry's shared clock and backend and
        reports into the registry's global cache budget.  Extra keyword
        arguments are forwarded to :class:`MatchSession` (per-tenant cache
        bounds, policy, ...).
        """
        if self.closed:
            raise RuntimeError("SessionRegistry is closed")
        if key in self._sessions:
            raise ValueError(f"dataset {key!r} is already registered")
        session_kwargs.setdefault("block_size", self.block_size)
        session_kwargs.setdefault("cost_model", self.cost_model)
        session_kwargs.setdefault("audit", self.audit)
        session_kwargs.setdefault("tracer", self.tracer)
        session_kwargs.setdefault("profiler", self.profiler)
        session_kwargs.setdefault("kernel", self.kernel)
        session = MatchSession(
            table,
            backend=self.backend,
            clock=self.clock,
            cache_governor=self,
            **session_kwargs,
        )
        # Per-tenant attribution: the dataset key labels this session's
        # jobs (metrics) and cache events (spans).
        session.tenant = key
        self._sessions[key] = session
        return session

    def session(self, key: str) -> MatchSession:
        """The session registered under ``key``."""
        if key not in self._sessions:
            raise UnknownDataset(key, tuple(self._sessions))
        return self._sessions[key]

    def keys(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    def __contains__(self, key: str) -> bool:
        return key in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[str]:
        return iter(self._sessions)

    # ---------------------------------------------------------------- routing

    def route(self, request) -> MatchSession:
        """The session a :class:`~repro.serving.QueryRequest` belongs to.

        ``request.dataset`` picks the tenant; ``None`` is allowed only when
        exactly one dataset is registered (single-tenant deployments stay
        key-free).
        """
        dataset = getattr(request, "dataset", None)
        if dataset is None:
            if len(self._sessions) == 1:
                return next(iter(self._sessions.values()))
            raise UnknownDataset(None, tuple(self._sessions))
        return self.session(dataset)

    def job_for_request(self, request, default_max_step_rows: int | None = None):
        """Route the request and build its resumable job (front-door seam)."""
        return self.route(request).job_for_request(request, default_max_step_rows)

    # ----------------------------------------------------------- cache budget

    @property
    def cache_bytes(self) -> int:
        """Bytes held by all sessions' cached prepared artifacts and
        orphaned ground truths."""
        return sum(session.cache_bytes for session in self._sessions.values())

    @property
    def cached_entries(self) -> int:
        """Prepared entries cached across all sessions."""
        return len(self._lru)

    def cache_touched(self, session: MatchSession, key: Hashable) -> None:
        """Governor callback: ``key`` is now ``session``'s (and the
        registry's) most recently used prepared entry."""
        self._lru[(id(session), key)] = (session, key)
        self._lru.move_to_end((id(session), key))

    def cache_evicted(self, session: MatchSession, key: Hashable) -> None:
        """Governor callback: the entry left ``session``'s cache."""
        self._lru.pop((id(session), key), None)

    def enforce_budget(self) -> int:
        """Evict globally-LRU prepared entries until under the byte budget.

        The sessions' orphaned ground truths go first, each session's
        coldest before its next: without them the sum is that of the
        prepared entries alone, so the same entries are evicted as if no
        orphan had been kept.  Eviction order is the registry-wide recency
        order, not per-session: the coldest entry goes first regardless of
        which tenant holds it.  Entries a session refuses to release (its
        most recent one) are skipped.  Returns the number of entries
        evicted.
        """
        if self.max_cached_bytes is None:
            return 0
        evicted = 0
        while self.cache_bytes > self.max_cached_bytes:
            if any(session.drop_orphan() for session in self._sessions.values()):
                continue
            for session, key in list(self._lru.values()):
                if session.evict_prepared(key):
                    evicted += 1
                    break
            else:
                break  # nothing evictable (every survivor is in use)
        return evicted

    # ---------------------------------------------------------------- serving

    def serve(
        self,
        *,
        policy: str = "edf",
        max_queue: int | None = None,
        default_deadline_ns: float | None = None,
        default_max_step_rows: int | None = None,
        max_concurrent_steps: int = 1,
    ):
        """A thread/replay :class:`~repro.serving.FrontDoor` over every
        registered dataset; requests route by their ``dataset`` key.
        ``max_concurrent_steps`` > 1 runs steps of different tenants
        concurrently on a bounded executor (answers stay byte-identical)."""
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
        """An :class:`~repro.serving.AsyncFrontDoor` over every registered
        dataset (asyncio; start it from inside a running event loop)."""
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
        """Close every session, then the shared backend (if owned).

        Idempotent; safe in either order with a front door's shutdown
        (session closes are idempotent, and borrowed backends survive their
        sessions).
        """
        if self.closed:
            return
        self.closed = True
        for session in self._sessions.values():
            session.close()
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "SessionRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
