"""Sharded parallel execution backends (scaling beyond one core).

The paper's FastMatch overlaps block selection with I/O on a single core;
this package scales the other axis — counting the delivered blocks'
``(candidate, group)`` cells — across workers.  The design preserves the
serial path's exact semantics:

- the *coordinator* (the sampling engine driving HistSim) keeps the serial
  control flow: one scan order, one window sequence, one set of policy
  decisions and budgets, every window's per-candidate row tally;
- only the count of a sampling call's delivered blocks is sharded, one
  fan-out per call (a round trip pays from about a million rows, and no
  window has them): a :class:`ShardPlanner` partitions the blocks into
  row-balanced shards, a persistent :class:`WorkerPool` counts each shard
  against columns published in :class:`multiprocessing.shared_memory`
  (zero-copy for workers), and a :class:`ShardMerger` sums the per-shard
  count matrices.

Because the shards partition the *same* rows the serial path would count,
and integer addition is exact and commutative, the merged
``(candidate × group)`` counts are byte-identical to serial execution — so
every downstream statistical decision (stage-2 tests, stage-3 targets, the
chosen top-k, the stopping round) is identical too.  Per-shard samples also
remain uniform without replacement: a shard is a fixed subset of blocks of
the *shuffled* layout, and any fixed subset of a random permutation is a
uniform without-replacement sample.

:class:`ExecutionBackend` is the seam all sampling routes through;
:class:`SerialBackend` reproduces today's single-process behaviour exactly,
:class:`ShardedBackend` is the opt-in multi-process implementation,
:class:`ThreadPoolBackend` the in-process multi-threaded one (no fork, no
shared memory; its threads overlap in the gather and the pair-code ufuncs,
not in ``np.bincount``, which holds the GIL), and :func:`make_backend`
resolves a CLI/config spec into an instance.
"""

from .affinity import AFFINITY_POLICIES, apply_affinity, available_cpus, plan_affinity
from .backend import (
    WORKER_BACKENDS,
    CountSource,
    ExecutionBackend,
    SerialBackend,
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
    resolve_kernel,
)
from .merge import ShardMerger
from .pool import WorkerPool
from .shard import Shard, ShardPlanner
from .sharded import ShardedBackend
from .shm import SegmentRef, SharedMemoryStore, attach_segment
from .threaded import ThreadPoolBackend
from .worker import ShardResult, ShardTask, count_shard

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
    "WorkerPool",
    "apply_affinity",
    "attach_segment",
    "available_cpus",
    "build_pair_codes",
    "check_pair_codes",
    "choose_kernel",
    "count_codes",
    "count_pairs",
    "count_shard",
    "count_window",
    "make_backend",
    "pair_code_dtype",
    "plan_affinity",
    "resolve_kernel",
]

#: Backend names accepted by the CLI and :class:`~repro.system.MatchSession`.
BACKENDS = ("serial", "sharded", "threads")


def make_backend(
    spec: str | ExecutionBackend = "serial",
    workers: int | None = None,
    cpu_affinity: str | None = None,
) -> ExecutionBackend:
    """Resolve a backend spec (``"serial"``, ``"sharded"``, ``"threads"``,
    or an existing instance) into an :class:`ExecutionBackend`.

    ``workers`` and ``cpu_affinity`` apply to the worker-carrying backends
    only (workers default to the machine's CPU count; affinity defaults to
    no pinning); passing either alongside an existing instance is an error
    since the instance already fixed its pool configuration.
    """
    if cpu_affinity == "none":
        cpu_affinity = None
    if isinstance(spec, ExecutionBackend):
        if workers is not None:
            raise ValueError("workers cannot be overridden on an existing backend")
        if cpu_affinity is not None:
            raise ValueError("cpu_affinity cannot be overridden on an existing backend")
        return spec
    if spec == "serial":
        if workers is not None:
            raise ValueError("the serial backend takes no workers")
        if cpu_affinity is not None:
            raise ValueError("the serial backend takes no cpu_affinity")
        return SerialBackend()
    if spec == "sharded":
        return ShardedBackend(workers, cpu_affinity=cpu_affinity)
    if spec == "threads":
        return ThreadPoolBackend(workers, cpu_affinity=cpu_affinity)
    raise ValueError(f"backend must be one of {BACKENDS}, got {spec!r}")
