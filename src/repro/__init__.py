"""repro — reproduction of "Adaptive Sampling for Rapidly Matching Histograms"
(FastMatch / HistSim, Macke et al., VLDB 2018).

Subpackages:

- :mod:`repro.core` — the HistSim algorithm and its statistical machinery.
- :mod:`repro.storage` — column-store, block layout, simulated I/O and costs.
- :mod:`repro.bitmap` — bit-per-block bitmap indexes and density maps.
- :mod:`repro.sampling` — block-selection policies and the sampling engine.
- :mod:`repro.parallel` — execution backends: serial, sharded
  (shared-memory worker pool), and threads (in-process executor: the
  gather overlaps across threads, ``np.bincount`` holds the GIL), all with
  byte-identical results.
- :mod:`repro.system` — the FastMatch architecture and baselines.
- :mod:`repro.serving` — the online front door: admission control,
  deadline-aware scheduling policies, bounded queues, serving metrics.
- :mod:`repro.query` — histogram-generating query templates and exact executor.
- :mod:`repro.data` — synthetic FLIGHTS / TAXI / POLICE datasets and workloads.
- :mod:`repro.extensions` — Appendix A generalizations.
"""

__version__ = "1.0.0"

from . import (
    bitmap,
    core,
    data,
    extensions,
    parallel,
    query,
    sampling,
    serving,
    storage,
    system,
)
from .match import match_histograms, match_many
from .parallel import (
    ExecutionBackend,
    SerialBackend,
    ShardedBackend,
    ThreadPoolBackend,
    make_backend,
)
from .serving import FrontDoor, QueryRequest
from .system.clock import Clock, SimulatedClock, WallClock
from .system.registry import SessionRegistry
from .system.session import MatchSession

__all__ = [
    "bitmap",
    "core",
    "data",
    "extensions",
    "parallel",
    "query",
    "sampling",
    "serving",
    "storage",
    "system",
    "match_histograms",
    "match_many",
    "make_backend",
    "ExecutionBackend",
    "SerialBackend",
    "ShardedBackend",
    "ThreadPoolBackend",
    "FrontDoor",
    "QueryRequest",
    "Clock",
    "SimulatedClock",
    "WallClock",
    "MatchSession",
    "SessionRegistry",
    "__version__",
]
