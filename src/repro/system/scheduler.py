"""Batch draining of many resumable queries on one simulated clock.

The stepper (:class:`~repro.core.histsim.HistSimStepper`) makes a HistSim
run interruptible at bounded-work boundaries; the *online* half of the
serving system lives in :mod:`repro.serving` (front door, admission
control, deadlines).  This module keeps the batch-shaped view: submit a set
of jobs, drain them to completion, get per-query latency and aggregate
throughput on the shared clock.

:class:`BatchScheduler` is a thin adapter over the serving core
(:class:`~repro.serving.engine.ServingEngine`) with a pluggable policy
(round-robin by default) and no deadlines.  All jobs charge one shared
:class:`~repro.system.clock.Clock`, so the clock models a
single-threaded server interleaving queries: a query's *latency*
(submission → completion on the shared clock) includes the time spent
serving its neighbours, while its *service time* counts only its own
steps.  Aggregate throughput is completed queries per simulated second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..serving.engine import ServingEngine, ServingOutcome
from .clock import Clock
from .report import RunReport

__all__ = ["SchedulableJob", "ScheduleResult", "BatchScheduler"]


@runtime_checkable
class SchedulableJob(Protocol):
    """What the scheduler needs from a unit of resumable work."""

    name: str

    @property
    def done(self) -> bool:
        """True once no further steps are required."""
        ...

    def step(self) -> None:
        """Advance by one bounded unit of work, charging the shared clock."""
        ...

    def finish(self, service_ns: float) -> RunReport:
        """Assemble the job's report; called exactly once, after ``done``."""
        ...


@dataclass(frozen=True)
class ScheduleResult:
    """All outcomes of one scheduler drain, in submission order.

    Each is the engine's :class:`~repro.serving.engine.ServingOutcome`:
    ``latency_ns`` includes other queries' service on the shared clock,
    ``service_ns`` only the query's own steps (``== report.elapsed_ns``).

    ``backend`` describes the execution backend the drain's jobs routed
    their sampling through (:meth:`ExecutionBackend.describe`), so serving
    metrics are attributable to how the work was executed.
    """

    outcomes: tuple[ServingOutcome, ...]
    elapsed_ns: float
    total_steps: int
    backend: dict | None = None

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, index):
        return self.outcomes[index]

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_ns * 1e-9

    @property
    def throughput_qps(self) -> float:
        """Completed queries per simulated second of the drain."""
        if not self.outcomes:
            return 0.0
        if self.elapsed_ns <= 0:
            return float("inf")
        return len(self.outcomes) / self.elapsed_seconds

    @property
    def mean_latency_seconds(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.latency_seconds for o in self.outcomes) / len(self.outcomes)


class BatchScheduler:
    """Drain-style adapter over the serving core: submit, run, report.

    Parameters
    ----------
    clock:
        The shared clock every job charges.  Submission and completion
        timestamps are read from it, so per-query latency reflects the
        interleaved execution.
    backend:
        Optional :class:`~repro.parallel.ExecutionBackend` the scheduled
        jobs sample through; recorded on every :class:`ScheduleResult` for
        attribution.  The scheduler never drives the backend itself — jobs
        route their own sampling — so ``None`` simply means "serial".
    policy:
        Scheduling policy name or instance (:data:`repro.serving.POLICIES`).
        The policy shapes per-query latency only; every policy produces
        identical per-query results.
    """

    def __init__(self, clock: Clock, backend=None, policy="rr") -> None:
        self.clock = clock
        self.backend = backend
        self._core = ServingEngine(clock, policy=policy)

    @property
    def policy(self):
        return self._core.policy

    @property
    def pending(self) -> int:
        """Jobs submitted but not yet finished."""
        return self._core.pending

    def add(self, job: SchedulableJob) -> None:
        """Submit a job; its latency clock starts now."""
        self._core.submit(job)

    def run(self) -> ScheduleResult:
        """Drain every pending job under the policy; returns the outcomes of
        jobs completed by this drain (in submission order), so repeated
        submit/run cycles never double-report.  Jobs added while draining
        join the rotation."""
        start_ns = self.clock.elapsed_ns
        outcomes = self._core.run_until_idle()
        return ScheduleResult(
            outcomes=outcomes,
            elapsed_ns=self.clock.elapsed_ns - start_ns,
            total_steps=sum(o.steps for o in outcomes),
            backend=self.backend.describe() if self.backend is not None else None,
        )
