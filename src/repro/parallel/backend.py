"""The execution-backend seam all sampling routes through.

:class:`ExecutionBackend` has two levels of hooks:

- **algorithm level** — :meth:`run_uniform` / :meth:`run_sampling` wrap the
  :class:`~repro.core.sampler.TupleSampler` calls HistSim makes (stage-1
  uniform pass, stage-2 round budgets, stage-3 reconstruction).  The default
  implementations delegate straight to the sampler; a future distributed
  backend can intercept whole sampling requests here.
- **engine level** — :meth:`count_blocks` counts the ``(candidate, group)``
  cells of a set of blocks (gather + filter + count) for the block sampling
  engine: one window's blocks, or every block a sampling call delivered
  when the engine defers the count to the call's end (always, on a backend
  that :attr:`~ExecutionBackend.fans_out`).  This is where
  :class:`ShardedBackend <repro.parallel.sharded.ShardedBackend>` fans work
  out to its pool.  Simulated I/O is not the backend's business — the
  engine accounts it, once per window.
- **table level** — :meth:`count_table` computes the exact
  ``(candidate, group)`` counts of a *whole* table in one pass.  The exact
  Scan baseline and the ground-truth computation both reduce to this, and
  both are embarrassingly shardable: the sharded backend partitions the
  rows, counts per shard, and merges by exact integer addition, so the
  result is byte-identical to the serial pass.

Backends also expose :meth:`unpublish`, the cache-eviction hook: when a
serving session evicts prepared artifacts, the backend releases whatever
per-artifact resources it holds (the sharded backend unlinks the artifacts'
shared-memory segments).

:class:`SerialBackend` implements both levels with exactly the code the
engine ran before the seam existed, so it *is* today's behaviour.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..obs.profiler import NULL_PROFILER
from ..obs.tracer import NULL_TRACER
from ..storage.shuffle import ShuffledTable
from .kernels import (
    KernelChoice,
    _count_pairs_moved,
    choose_kernel,
    count_pairs,
    count_window,
)

__all__ = [
    "WORKER_BACKENDS",
    "CountSource",
    "ExecutionBackend",
    "SerialBackend",
    "count_pairs",
]

#: The backends that count on workers (and for which ``workers`` is
#: meaningful; serial takes none).
WORKER_BACKENDS = ("sharded", "threads")


@dataclass(frozen=True)
class CountSource:
    """What a backend needs to know about one engine's substrate.

    Built once per :class:`~repro.sampling.engine.BlockSamplingEngine`; the
    backend uses it to locate columns and apply the query's row filter.
    """

    shuffled: ShuffledTable
    z_name: str
    x_name: str
    num_candidates: int
    num_groups: int
    row_filter: np.ndarray | None
    #: Per-job profiler the backend records its counting kernels into —
    #: the engine threads its own profiler here, so kernel effort is
    #: attributed to the job even on a backend shared across tenants.
    #: Defaults to the shared no-op (one branch on the hot path).
    profiler: object = NULL_PROFILER
    #: Prepared pair-code column (:func:`~repro.parallel.kernels.build_pair_codes`)
    #: enabling the fused kernel; ``None`` when not prepared.  A column
    #: folded with the query's row filter comes with ``row_filter=None`` —
    #: the sampling engine hands over one or the other.
    codes: np.ndarray | None = None
    #: Kernel forwarded to :func:`~repro.parallel.kernels.count_window`:
    #: given as a spec, held as the choice it resolves to for this code
    #: space and ``codes`` — made once here, not once per window.
    kernel: str | KernelChoice = "auto"

    def __post_init__(self) -> None:
        if not isinstance(self.kernel, KernelChoice):
            object.__setattr__(
                self,
                "kernel",
                choose_kernel(
                    self.kernel, self.num_candidates, self.num_groups, self.codes
                ),
            )


class ExecutionBackend(ABC):
    """Strategy object deciding *how* sampling work is executed."""

    name: str = "abstract"

    @property
    def fans_out(self) -> bool:
        """Whether a ``count_blocks`` may cost a round trip to workers.

        A round trip pays from about a million rows *per call*, which no
        sampling window reaches, so the sampling engine asks such a backend
        once per call.  Read off :attr:`name`, not the class: a wrapper that
        forwards ``name`` and the abstract methods answers as what it wraps.
        """
        return self.name in WORKER_BACKENDS

    #: Observability hook: fan-out windows, pool waits, and shared-memory
    #: lifecycle report here.  The class-level default is the shared no-op,
    #: so backends constructed anywhere stay untraced until a session or
    #: registry calls :meth:`set_tracer`.  Tracing never touches counting:
    #: spans are emitted around the work, not inside the kernels.
    tracer = NULL_TRACER

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.obs.Tracer` (or ``None`` to detach)."""
        self.tracer = tracer if tracer is not None else NULL_TRACER

    #: Deterministic hot-path counters for work without a per-job
    #: :class:`CountSource` (exact table passes); window counting records
    #: into ``source.profiler`` instead.  Same zero-overhead default and
    #: discipline as tracing: profiling observes around the kernels, never
    #: inside the arithmetic.
    profiler = NULL_PROFILER

    def set_profiler(self, profiler) -> None:
        """Attach a :class:`~repro.obs.Profiler` (or ``None`` to detach)."""
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    # ---------------------------------------------------------- algorithm level

    def run_uniform(self, sampler, m: int) -> np.ndarray:
        """Execute a stage-1 uniform sampling request."""
        return sampler.sample_uniform(m)

    def run_sampling(
        self, sampler, needed: np.ndarray, max_rows: float | None = None
    ) -> np.ndarray:
        """Execute a budgeted (stage-2/3) sampling request."""
        return sampler.sample_until(needed, max_rows=max_rows)

    # ------------------------------------------------------------- engine level

    @abstractmethod
    def count_blocks(self, source: CountSource, blocks: np.ndarray) -> np.ndarray:
        """Count the rows of a (sorted, unique, non-empty) set of blocks.

        Returns the fresh int64 ``(candidate, group)`` count matrix, the
        caller's to keep and modify.
        """

    def _count_inline(
        self, source: CountSource, blocks: np.ndarray, label: str
    ) -> np.ndarray:
        """Count ``blocks`` in the calling thread, recorded under ``label``:
        the serial backend's ``count_blocks``, and the worker backends' path
        below their ``min_shard_rows`` floor (the kernel their workers run,
        so the short-circuit cannot change results)."""
        profiler = source.profiler
        started = time.perf_counter_ns() if profiler.enabled else 0
        table = source.shuffled.table
        counts, moved = count_window(
            table.column(source.z_name),
            table.column(source.x_name),
            blocks,
            source.shuffled.layout,
            source.num_candidates,
            source.num_groups,
            row_filter=source.row_filter,
            codes=source.codes,
            kernel=source.kernel,
        )
        if profiler.enabled:
            profiler.record_kernel(
                label,
                float(time.perf_counter_ns() - started),
                rows=int(counts.sum()),
                blocks=int(blocks.size),
                nbytes=moved,
                bincounts=1,
            )
        return counts

    # -------------------------------------------------------------- table level

    def count_table(
        self,
        table,
        z_name: str,
        x_name: str,
        num_candidates: int,
        num_groups: int,
        row_filter: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact ``(candidate, group)`` counts over every row of ``table``.

        ``row_filter`` (a boolean row mask) drops rows before counting;
        ``None`` means no predicate.  The default implementation is the
        serial single-pass bincount; sharded backends partition the rows and
        merge, with byte-identical results (exact integer sums over a
        disjoint row partition).
        """
        profiler = self.profiler
        started = time.perf_counter_ns() if profiler.enabled else 0
        z = table.column(z_name)
        x = table.column(x_name)
        moved = 0
        if row_filter is not None:
            z = z[row_filter]
            x = x[row_filter]
            moved += int(z.nbytes + x.nbytes)
        counts, code_bytes = _count_pairs_moved(z, x, num_candidates, num_groups)
        if profiler.enabled:
            profiler.record_kernel(
                "serial.count_table",
                float(time.perf_counter_ns() - started),
                rows=int(counts.sum()),
                nbytes=moved + code_bytes,
                bincounts=1,
            )
        return counts

    # --------------------------------------------------------------- lifecycle

    def unpublish(self, *artifacts) -> None:
        """Release per-artifact resources (cache-eviction hook).

        Called by the session layer when prepared artifacts (tables, row
        filters) are evicted from its caches.  The default is a no-op; the
        sharded backend unlinks the artifacts' shared-memory segments.
        Idempotent, and unknown artifacts are ignored.
        """

    def describe(self) -> dict:
        """Report-facing description (recorded in benchmark JSON)."""
        return {"backend": self.name}

    def close(self) -> None:
        """Release any pooled resources.  Idempotent; default is a no-op."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Single-process execution — the exact pre-backend behaviour."""

    name = "serial"

    def count_blocks(self, source: CountSource, blocks: np.ndarray) -> np.ndarray:
        return self._count_inline(source, blocks, "serial.count")
