"""Hot-path profiler: deterministic kernel counters + a sampling wall profiler.

Two independent modes, both strictly observational (profiling never touches
sampling arithmetic, RNG draws, or clock charges, so profiled runs stay
byte-identical to unprofiled ones):

- **deterministic counters** — :class:`Profiler` accumulates per-kernel
  effort (calls, ns, rows gathered, blocks touched, bytes moved, bincount
  invocations) from hooks inside :class:`~repro.sampling.engine.
  BlockSamplingEngine` and every backend's ``count_blocks``/``count_table``.
  The default hook target is :data:`NULL_PROFILER`, a shared no-op whose
  only cost on the counting hot loop is one attribute load and one branch —
  no allocation, no call.
- **sampling wall profiler** — :class:`WallProfiler` is a background thread
  that periodically snapshots every other thread's stack via
  ``sys._current_frames()`` (no signals, no ``sys.setprofile``, so the
  profiled code runs at full speed between samples) and aggregates them
  into collapsed-stack lines (``frame;frame;frame count``) renderable by
  any flamegraph tool.

Per-stage attribution: the session's stepper wraps each scheduler slice in
:meth:`Profiler.stage`, so kernel records land under the HistSim stage
(``stage1``/``stage2``/``stage3``/``scan``) that issued them, and
:meth:`Profiler.record_stage` stamps each stage's total duration *on the
job's own clock* — the same endpoints the stage's trace span carries, so
profile stage sums reconcile with PR 7 traces exactly.

Kernel ``ns`` semantics per kernel name: backend kernels record real
``perf_counter_ns`` work time (worker-side time for the worker backends);
``engine.deliver`` records the *simulated* I/O cost the cost model charged,
putting the Eq. 1 estimate next to measured kernel time in one table;
``engine.tally`` records the real time and bytes of a deferred window's
candidate-column tally, with no rows or blocks (the call-end backend count
tallies those); ``session.ground_truth`` is a fused session's exact ground
truth taken as one ``bincount`` of its pair-code column — the pass a
backend's ``*.count_table`` / ``*.table`` record otherwise — with the kept
rows and zero bytes (nothing is gathered or compressed).
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "ProfileSnapshot",
    "Profiler",
    "WallProfiler",
]


class _KernelStats:
    """Mutable per-(stage, kernel) accumulator."""

    __slots__ = ("calls", "ns", "rows", "blocks", "nbytes", "bincounts")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0.0
        self.rows = 0
        self.blocks = 0
        self.nbytes = 0
        self.bincounts = 0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "ns": self.ns,
            "rows": self.rows,
            "blocks": self.blocks,
            "bytes": self.nbytes,
            "bincounts": self.bincounts,
        }


class _StageStats:
    """Mutable per-stage totals, stamped on the job's clock."""

    __slots__ = ("steps", "ns", "rows")

    def __init__(self) -> None:
        self.steps = 0
        self.ns = 0.0
        self.rows = 0

    def to_dict(self) -> dict:
        return {"steps": self.steps, "ns": self.ns, "rows": self.rows}


@dataclass(frozen=True)
class ProfileSnapshot:
    """Frozen view of one profiler's accumulated effort.

    ``totals`` aggregates the deterministic counters across every kernel
    (engine-level records contribute no rows/blocks/bytes, so backend work
    is never double-counted); ``stages`` carries per-stage durations on the
    job's clock; ``kernels`` is ``stage -> kernel -> stats``.
    """

    totals: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "totals": dict(self.totals),
            "stages": {s: dict(v) for s, v in self.stages.items()},
            "kernels": {
                s: {k: dict(v) for k, v in ks.items()}
                for s, ks in self.kernels.items()
            },
        }

    def format_table(self) -> str:
        """Per-kernel effort table (fixed-width, CLI-facing)."""
        lines = [
            f"{'stage':<10} {'kernel':<18} {'calls':>7} {'ms':>10} "
            f"{'rows':>12} {'blocks':>9} {'MiB':>9} {'bincounts':>9}"
        ]
        for stage in sorted(self.kernels):
            for kernel in sorted(self.kernels[stage]):
                k = self.kernels[stage][kernel]
                lines.append(
                    f"{stage:<10} {kernel:<18} {k['calls']:>7} "
                    f"{k['ns'] * 1e-6:>10.3f} {k['rows']:>12,} {k['blocks']:>9,} "
                    f"{k['bytes'] / 2**20:>9.2f} {k['bincounts']:>9}"
                )
        return "\n".join(lines)


class NullProfiler:
    """Shared no-op profiler: the zero-overhead default for every hook.

    Hot paths guard with ``if profiler.enabled:`` — a class-attribute load
    and a branch, no allocation — so the disabled counting loop is
    byte-and-allocation-identical to the pre-profiler code.  The recording
    methods exist (as no-ops) only for callers that hold a profiler without
    checking, never for the hot loop.
    """

    __slots__ = ()

    enabled = False

    def record_kernel(self, kernel, ns, **counts) -> None:
        pass

    def record_stage(self, stage, ns, rows=0) -> None:
        pass

    def bump(self, counter, value=1) -> None:
        pass

    def fork(self) -> "NullProfiler":
        return self

    def stage(self, name):
        return _NULL_STAGE

    def snapshot(self) -> ProfileSnapshot:
        return ProfileSnapshot()


class _NullStage:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_STAGE = _NullStage()

#: The shared no-op: every profiler hook defaults to this.
NULL_PROFILER = NullProfiler()

_UNATTRIBUTED = "unattributed"


class _StageScope:
    """Context manager swapping the profiler's thread-local stage label."""

    __slots__ = ("_profiler", "_name", "_prev")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self):
        local = self._profiler._local
        self._prev = getattr(local, "stage", None)
        local.stage = self._name
        return self

    def __exit__(self, *exc_info):
        self._profiler._local.stage = self._prev
        return False


class Profiler:
    """Deterministic hot-path counters, attributable per HistSim stage.

    Thread-safe: a registry shares one backend across tenants, and a door's
    scheduler thread records while readers snapshot from others; the stage
    label is thread-local (each scheduler slice runs wholly on one thread),
    the accumulators are lock-protected.

    ``fork()`` returns a child whose records also roll up into this
    profiler, so a session can hand each job its own child (per-job
    profiles on the :class:`~repro.system.report.RunReport`) while keeping
    a session-wide aggregate.
    """

    enabled = True

    def __init__(self, parent: "Profiler | None" = None) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._parent = parent
        # (stage, kernel) -> _KernelStats
        self._kernels: dict[tuple[str, str], _KernelStats] = {}
        # stage -> _StageStats (job-clock durations)
        self._stages: dict[str, _StageStats] = {}
        self._counters: dict[str, int] = {}

    # ------------------------------------------------------------- recording

    def stage(self, name: str) -> _StageScope:
        """Scope all records on this thread under HistSim stage ``name``."""
        return _StageScope(self, name)

    @property
    def current_stage(self) -> str:
        return getattr(self._local, "stage", None) or _UNATTRIBUTED

    def record_kernel(
        self,
        kernel: str,
        ns: float,
        *,
        rows: int = 0,
        blocks: int = 0,
        nbytes: int = 0,
        bincounts: int = 0,
    ) -> None:
        """Fold one kernel invocation into the current stage's accumulator."""
        key = (self.current_stage, kernel)
        with self._lock:
            stats = self._kernels.get(key)
            if stats is None:
                stats = self._kernels[key] = _KernelStats()
            stats.calls += 1
            stats.ns += ns
            stats.rows += rows
            stats.blocks += blocks
            stats.nbytes += nbytes
            stats.bincounts += bincounts
        if self._parent is not None:
            self._parent.record_kernel(
                kernel, ns, rows=rows, blocks=blocks, nbytes=nbytes,
                bincounts=bincounts,
            )

    def record_stage(self, stage: str, ns: float, rows: int = 0) -> None:
        """One scheduler slice of ``stage`` took ``ns`` on the job's clock.

        Called with the same clock endpoints the stage's trace span carries,
        so profile stage sums and trace stage sums agree exactly.
        """
        with self._lock:
            stats = self._stages.get(stage)
            if stats is None:
                stats = self._stages[stage] = _StageStats()
            stats.steps += 1
            stats.ns += ns
            stats.rows += int(rows)
        if self._parent is not None:
            self._parent.record_stage(stage, ns, rows)

    def bump(self, counter: str, value: int = 1) -> None:
        """Increment a named scalar counter (e.g. ``windows``)."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + value
        if self._parent is not None:
            self._parent.bump(counter, value)

    def fork(self) -> "Profiler":
        """A child profiler whose records roll up into this one."""
        return Profiler(parent=self)

    # -------------------------------------------------------------- snapshot

    def snapshot(self) -> ProfileSnapshot:
        """Frozen aggregate of everything recorded so far.

        Only the raw accumulators are copied under the lock; totals and the
        per-stage tables are built outside it, so a reader holds up a
        ``record_*`` call of the step path for the copy at most.
        """
        with self._lock:
            raw = [(key, stats.to_dict()) for key, stats in self._kernels.items()]
            stages = {s: st.to_dict() for s, st in self._stages.items()}
            counters = dict(self._counters)
        kernels: dict[str, dict[str, dict]] = {}
        totals = {
            "rows_gathered": 0,
            "blocks_touched": 0,
            "bytes_moved": 0,
            "bincount_calls": 0,
            "kernel_calls": 0,
            "kernel_ns": 0.0,
        }
        for (stage, kernel), stats in raw:
            kernels.setdefault(stage, {})[kernel] = stats
            totals["rows_gathered"] += stats["rows"]
            totals["blocks_touched"] += stats["blocks"]
            totals["bytes_moved"] += stats["bytes"]
            totals["bincount_calls"] += stats["bincounts"]
            totals["kernel_calls"] += stats["calls"]
            if kernel != "engine.deliver":
                # engine.deliver ns is the simulated I/O charge, not
                # measured kernel time; keep the wall total pure.
                totals["kernel_ns"] += stats["ns"]
        totals.update(counters)
        return ProfileSnapshot(
            totals=totals, stages=dict(sorted(stages.items())), kernels=kernels
        )


# --------------------------------------------------------------------------
# Sampling wall profiler
# --------------------------------------------------------------------------


def _collapse_frame(frame) -> str:
    """One collapsed stack for ``frame``, root first, ``;``-separated."""
    parts: list[str] = []
    while frame is not None:
        code = frame.f_code
        parts.append(f"{code.co_name} ({code.co_filename.rsplit('/', 1)[-1]})")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class WallProfiler:
    """Background-thread stack sampler producing collapsed flamegraph input.

    Samples every live thread except itself at ``interval_s`` via
    ``sys._current_frames()``; no signals and no trace hooks, so the
    profiled code pays nothing between samples.  ``collapsed()`` returns
    ``{stack: samples}``; :meth:`format_collapsed` renders the standard
    ``frame;frame;frame count`` lines flamegraph tools consume.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = interval_s
        self.samples = 0
        self._stacks: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.is_set():
            frames = sys._current_frames()
            with self._lock:
                self.samples += 1
                for thread_id, frame in frames.items():
                    if thread_id == own_id:
                        continue
                    stack = _collapse_frame(frame)
                    self._stacks[stack] = self._stacks.get(stack, 0) + 1
            self._stop.wait(self.interval_s)

    def start(self) -> "WallProfiler":
        if self._thread is not None:
            raise RuntimeError("WallProfiler already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-wall-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def collapsed(self) -> dict[str, int]:
        with self._lock:
            return dict(self._stacks)

    def format_collapsed(self, top: int | None = None) -> str:
        """``frame;frame;frame count`` lines, hottest stacks first."""
        with self._lock:
            ranked = sorted(self._stacks.items(), key=lambda kv: -kv[1])
        if top is not None:
            ranked = ranked[:top]
        return "\n".join(f"{stack} {count}" for stack, count in ranked)

    def __enter__(self) -> "WallProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
