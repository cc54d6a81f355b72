"""The online serving subsystem: a front door for interactive-latency matching.

The paper's headline is interactive latency; this package supplies the
serving architecture that claim implies when queries arrive as traffic
rather than as a batch:

- :class:`ServingEngine` — the pure, clock-agnostic scheduling core
  (one turn: settle / pick-next / advance-job; no threads, no locks)
  every driver runs on;
- :class:`FrontDoor` (threads) and :class:`AsyncFrontDoor` (asyncio) —
  thin adapters of one sans-IO drive core, accepting
  :class:`QueryRequest`\\ s while others run; the thread door also
  replays open-loop arrival traces on the simulated clock
  (deterministic).  Either is built directly over the service it drives
  — one :class:`~repro.system.MatchSession` or a multi-dataset
  :class:`~repro.system.SessionRegistry`: ``FrontDoor(session)``,
  ``AsyncFrontDoor(registry)``;
- :class:`AdmissionController` — bounded queue depth with load shedding
  (typed :class:`AdmissionRejected`);
- policies (:data:`POLICIES`: FIFO, round-robin, EDF, feasibility-aware
  EDF (``edf-f``, sheds doomed requests as immediate partials),
  shortest-expected-remaining-cost via the paper's lookahead estimate) —
  time-slice resumable :class:`~repro.core.histsim.HistSimStepper` jobs
  on any :class:`~repro.system.clock.Clock` (simulated or wall);
- per-request deadlines — expiry yields an ε-relaxed partial answer
  carrying its actually-achieved guarantee, or a typed
  :class:`DeadlineMiss`;
- :class:`ServingMetrics` — snapshot API for per-query latency
  percentiles, deadline-hit rate, and shed counts
  (:class:`~repro.system.report.ServingReport`).

Scheduling shapes latency only: a request served through the front door
with no deadline returns byte-identical results to a standalone
:func:`repro.match_histograms` call, under every policy.
"""

from .admission import AdmissionController
from .async_frontdoor import AsyncFrontDoor, AsyncResponseHandle
from .engine import ServingEngine, ServingOutcome
from .frontdoor import FrontDoor, ResponseHandle
from .metrics import CANCELLED, COMPLETED, MISS, PARTIAL, SHED, ServingMetrics
from .policies import (
    POLICIES,
    EdfPolicy,
    FeasibleEdfPolicy,
    FifoPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    ShortestCostPolicy,
    make_policy,
)
from .request import (
    ON_DEADLINE,
    AdmissionRejected,
    DeadlineMiss,
    InfeasibleDeadline,
    QueryRequest,
    ServingError,
    UnknownDataset,
)

__all__ = [
    "ON_DEADLINE",
    "POLICIES",
    "CANCELLED",
    "COMPLETED",
    "MISS",
    "PARTIAL",
    "SHED",
    "AdmissionController",
    "AdmissionRejected",
    "AsyncFrontDoor",
    "AsyncResponseHandle",
    "DeadlineMiss",
    "EdfPolicy",
    "FeasibleEdfPolicy",
    "FifoPolicy",
    "FrontDoor",
    "InfeasibleDeadline",
    "QueryRequest",
    "ResponseHandle",
    "RoundRobinPolicy",
    "SchedulingPolicy",
    "ServingEngine",
    "ServingError",
    "ServingMetrics",
    "ServingOutcome",
    "ShortestCostPolicy",
    "UnknownDataset",
    "make_policy",
]
