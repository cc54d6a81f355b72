"""Multi-tenant session registry: N datasets behind one front door.

A :class:`SessionRegistry` owns one :class:`~repro.system.MatchSession` per
dataset and presents the same job-building seam a single session does, so
one front door can serve many datasets at once:

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
- **one cache** — every session shares the registry's
  :class:`~repro.system.cache.ArtifactCache`: ``max_cached_bytes`` bounds
  the *sum* of the tenants' artifacts under one LRU, so one hot tenant can
  use the whole budget while idle tenants shrink, instead of every tenant
  hoarding a fixed slice.

Serve it through ``FrontDoor(registry)`` (:mod:`repro.serving`); from
asyncio, await the door's handles.

Routing and registry bookkeeping never touch sampling: a request served
through a registry is byte-identical to the same request served by a
standalone session over the same dataset.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from ..obs.profiler import NULL_PROFILER
from ..obs.tracer import NULL_TRACER
from ..parallel import KERNEL_SPECS, ExecutionBackend, make_backend
from ..serving.request import UnknownDataset
from ..storage.cost_model import DEFAULT_COST_MODEL, CostModel
from ..storage.table import ColumnTable
from .cache import ArtifactCache
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
        Default ``kernel`` of every session, ``"auto"`` or ``"fused"``
        (:data:`~repro.parallel.KERNEL_SPECS`; overridable per
        :meth:`add_dataset` call), checked here.  Answers are
        byte-identical either way.
    clock:
        Shared :class:`Clock` for all sessions (default: a fresh
        :class:`SimulatedClock`).
    max_cached_bytes:
        Bound on the shared :attr:`cache` — the sum of all sessions'
        prepared-artifact bytes; ``None`` (default) leaves it unbounded.
        Each session's most recent entry is never evicted (it is the one
        being served), so the floor is one entry per active tenant.
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
        if kernel not in KERNEL_SPECS:
            raise ValueError(f"kernel must be one of {KERNEL_SPECS}, got {kernel!r}")
        #: The one cache every session shares: one LRU, one byte budget.
        self.cache = ArtifactCache(max_cached_bytes=max_cached_bytes)
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
        self.block_size = block_size
        self.cost_model = cost_model
        self.audit = audit
        self._sessions: OrderedDict[str, MatchSession] = OrderedDict()
        self.closed = False

    # --------------------------------------------------------------- datasets

    def add_dataset(
        self, key: str, table: ColumnTable, **session_kwargs
    ) -> MatchSession:
        """Register ``table`` under ``key``; returns its new session.

        The session runs on the registry's shared clock, backend and
        cache.  Extra keyword arguments are forwarded to
        :class:`MatchSession` (policy, kernel, ...); per-tenant cache bounds
        raise :class:`ValueError` — the shared cache's bound is the one.
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
            cache=self.cache,
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
