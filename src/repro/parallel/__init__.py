"""Sharded parallel execution backends (scaling beyond one core).

The paper's FastMatch overlaps block selection with I/O on a single core;
this package scales the other axis — counting the delivered blocks'
``(candidate, group)`` cells — across workers.  The design preserves the
serial path's exact semantics:

- the *coordinator* (the sampling engine driving HistSim) keeps the serial
  control flow: one scan order, one window sequence, one set of policy
  decisions and budgets, the same delivery regime on every backend;
- only a count of at least ``min_fan_out_rows`` rows is sharded (a round
  trip pays from about a million rows a call, which no window has; smaller
  counts run inline, as on serial): a :class:`ShardPlanner` partitions the
  blocks into row-balanced shards, a persistent executor's workers count
  each shard (against columns published in
  :class:`multiprocessing.shared_memory`, zero-copy, when the workers are
  processes), and a :class:`ShardMerger` sums the per-shard count
  matrices.

Because the shards partition the *same* rows the serial path would count,
and integer addition is exact and commutative, the merged
``(candidate × group)`` counts are byte-identical to serial execution — so
every downstream statistical decision (stage-2 tests, stage-3 targets, the
chosen top-k, the stopping round) is identical too.  Per-shard samples also
remain uniform without replacement: a shard is a fixed subset of blocks of
the *shuffled* layout, and any fixed subset of a random permutation is a
uniform without-replacement sample.

:class:`ExecutionBackend` is the seam all sampling routes through;
:class:`SerialBackend` reproduces today's single-process behaviour exactly.
:class:`WorkerBackend` is the one fan-out (inline floor, plan, dispatch,
span, profile, exact merge) under two transports that differ only in how
a shard is run: :class:`ShardedBackend` on a
:class:`~concurrent.futures.ProcessPoolExecutor` over shared memory,
:class:`ThreadPoolBackend` on a :class:`~concurrent.futures.ThreadPoolExecutor`
(no fork, no shared memory; its threads overlap in the gather and the
pair-code ufuncs, not in ``np.bincount``, which holds the GIL).
:func:`make_backend` resolves a CLI/config spec into an instance; worker
pinning (``cpu_affinity=``) is set on a transport's constructor only.
"""

from .affinity import AFFINITY_POLICIES, apply_affinity, available_cpus, plan_affinity
from .backend import (
    WORKER_BACKENDS,
    CountSource,
    ExecutionBackend,
    SerialBackend,
    WorkerBackend,
    count_pairs,
)
from .kernels import (
    KERNEL_SPECS,
    KERNELS,
    KernelChoice,
    build_pair_codes,
    check_pair_codes,
    choose_kernel,
    count_codes,
    count_window,
    pair_code_dtype,
)
from .merge import ShardMerger
from .shard import Shard, ShardPlanner
from .sharded import ShardedBackend
from .shm import SegmentRef, SharedMemoryStore, attach_segment
from .threaded import ThreadPoolBackend
from .worker import ShardResult, ShardTask

__all__ = [
    "AFFINITY_POLICIES",
    "BACKENDS",
    "KERNELS",
    "KERNEL_SPECS",
    "WORKER_BACKENDS",
    "CountSource",
    "ExecutionBackend",
    "KernelChoice",
    "SegmentRef",
    "SerialBackend",
    "Shard",
    "ShardMerger",
    "ShardPlanner",
    "ShardResult",
    "ShardTask",
    "ShardedBackend",
    "SharedMemoryStore",
    "ThreadPoolBackend",
    "WorkerBackend",
    "apply_affinity",
    "attach_segment",
    "available_cpus",
    "build_pair_codes",
    "check_pair_codes",
    "choose_kernel",
    "count_codes",
    "count_pairs",
    "count_window",
    "make_backend",
    "pair_code_dtype",
    "plan_affinity",
]

#: Backend names accepted by the CLI and :class:`~repro.system.MatchSession`.
BACKENDS = ("serial", "sharded", "threads")


def make_backend(
    spec: str | ExecutionBackend = "serial", workers: int | None = None
) -> ExecutionBackend:
    """Resolve a backend spec (``"serial"``, ``"sharded"``, ``"threads"``,
    or an existing instance) into an :class:`ExecutionBackend`.

    ``workers`` applies to the worker-carrying backends only (default: the
    machine's CPU count); passing it alongside an existing instance is an
    error since the instance already fixed its pool configuration.
    """
    if isinstance(spec, ExecutionBackend):
        if workers is not None:
            raise ValueError("workers cannot be overridden on an existing backend")
        return spec
    if spec == "serial":
        if workers is not None:
            raise ValueError("the serial backend takes no workers")
        return SerialBackend()
    if spec == "sharded":
        return ShardedBackend(workers)
    if spec == "threads":
        return ThreadPoolBackend(workers)
    raise ValueError(f"backend must be one of {BACKENDS}, got {spec!r}")
