"""Scheduling policies: which admitted query gets the next time slice.

Every policy sees the same runnable set (admitted, unfinished, unexpired
jobs in submission order) and picks one to advance by one bounded step.
Because steps are bounded (``max_step_rows`` slices a round's sampling),
policy choice controls *latency shape*, never results: any policy yields
byte-identical per-query answers, a property the serving tests pin.

- **fifo** — strict arrival order, run-to-completion.  Simple, but one
  heavy query convoys everyone behind it.
- **rr** — round-robin: least-recently-stepped first.  Fair time-slicing,
  the PR-2 drain behaviour.
- **edf** — earliest deadline first: the classic result that EDF maximizes
  deadline hits on a single server when feasible; requests without
  deadlines run in arrival order behind every deadline-carrying request.
- **edf-f** — feasibility-aware EDF: same ordering, but *queued* jobs
  whose full-run lookahead estimate can no longer meet their deadline are
  settled as ε-relaxed partial answers *immediately* (the engine honours
  the policy's ``feasibility_aware`` flag).  Past ~1.5× overload pure EDF
  exhibits the classic domino — it keeps granting slices to the most
  imminent, hence most doomed, request — while edf-f answers the doomed
  ones up front and spends those slices on requests that can still win.
- **cost** — shortest expected remaining cost, using the paper's own
  budgeting machinery (Eq. 1 round budgets + the stage-3 target) as the
  estimate: SRPT-style mean-latency minimization.

Ties break by submission order everywhere, which also makes every policy
starvation-free on a finite workload: the tie-break is strict and a job's
key never moves behind a job it already beats.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

__all__ = [
    "POLICIES",
    "EdfPolicy",
    "FeasibleEdfPolicy",
    "FifoPolicy",
    "RoundRobinPolicy",
    "SchedulingPolicy",
    "ShortestCostPolicy",
    "make_policy",
]


class SchedulingPolicy(ABC):
    """Strategy choosing the next job to advance by one step."""

    name: str = "abstract"

    #: When True, the engine settles deadline-carrying jobs whose
    #: remaining-cost lookahead (``estimated_remaining_ns``) can no longer
    #: meet their deadline as immediate ε-relaxed partials, before granting
    #: any slice.
    feasibility_aware: bool = False

    @abstractmethod
    def select(self, runnable: Sequence, now_ns: float):
        """Pick one entry from ``runnable`` (non-empty, submission order).

        Entries expose ``seq`` (submission order), ``rr_key`` (bumped to a
        fresh global counter after every step), ``deadline_ns`` (absolute,
        or ``None``), and ``estimated_remaining()`` (rows, ``inf`` when the
        job offers no estimate).
        """


class FifoPolicy(SchedulingPolicy):
    """Arrival order, run-to-completion."""

    name = "fifo"

    def select(self, runnable, now_ns):
        return min(runnable, key=lambda e: e.seq)


class RoundRobinPolicy(SchedulingPolicy):
    """Least-recently-stepped first — each alive job advances once per cycle."""

    name = "rr"

    def select(self, runnable, now_ns):
        return min(runnable, key=lambda e: e.rr_key)


class EdfPolicy(SchedulingPolicy):
    """Earliest (absolute) deadline first; deadline-free jobs go last, FIFO."""

    name = "edf"

    def select(self, runnable, now_ns):
        return min(
            runnable,
            key=lambda e: (
                e.deadline_ns if e.deadline_ns is not None else float("inf"),
                e.seq,
            ),
        )


class FeasibleEdfPolicy(EdfPolicy):
    """EDF ordering over only the requests that can still make it.

    Selection is inherited unchanged from EDF; the policy's
    ``feasibility_aware`` flag makes the engine settle doomed *queued*
    deadline-carrying jobs — whose full-run lookahead estimate no longer
    fits their remaining deadline — as immediate partial answers before
    any selection happens.  Only never-started jobs are screened: at
    submission the estimate tracks true service closely, while mid-run it
    can overestimate wildly (the stage-3 residual is a theoretical
    target), so screening there would shed requests that were about to
    finish.
    """

    name = "edf-f"
    feasibility_aware = True


class ShortestCostPolicy(SchedulingPolicy):
    """Shortest expected remaining cost (the paper's lookahead estimate)."""

    name = "cost"

    def select(self, runnable, now_ns):
        return min(runnable, key=lambda e: (e.estimated_remaining(), e.seq))


#: Policy names accepted by the CLI and :func:`make_policy`.
POLICIES = ("fifo", "rr", "edf", "edf-f", "cost")

_POLICY_CLASSES = {
    FifoPolicy.name: FifoPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    EdfPolicy.name: EdfPolicy,
    FeasibleEdfPolicy.name: FeasibleEdfPolicy,
    ShortestCostPolicy.name: ShortestCostPolicy,
}


def make_policy(spec: str | SchedulingPolicy) -> SchedulingPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    if spec in _POLICY_CLASSES:
        return _POLICY_CLASSES[spec]()
    raise ValueError(f"policy must be one of {POLICIES}, got {spec!r}")
