"""Time sources: the clock protocol, the simulated clock, and the wall clock.

Every component that "takes time" charges nanoseconds to a :class:`Clock`.
Two implementations exist:

- :class:`SimulatedClock` — the DESIGN.md substitution for the paper's Xeon
  timings: elapsed time IS the sum of the charges, so runs are deterministic
  and hardware-independent.  Serial charges add; pipelined charges add the
  *maximum* of the overlapped components — the decoupling of the lookahead
  thread from the I/O manager (Section 4.2, Challenge 4).
- :class:`WallClock` — real monotonic time for live serving (a front
  door's scheduler thread): elapsed time passes on its own, and charges
  only feed the per-component breakdown for attribution.  Deadlines set against a wall
  clock are real-time deadlines.

The scheduling engine, deadlines, and serving metrics are written against
the protocol, never a concrete clock — which clock a session runs on is a
deployment decision, not an algorithmic one.  Sampling never reads the
clock, so the answers a query computes are identical under either.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import defaultdict

__all__ = ["Clock", "SimulatedClock", "WallClock"]


class Clock(ABC):
    """What schedulers, deadlines, and metrics need from a time source.

    ``elapsed_ns`` is a monotonically non-decreasing float timeline starting
    at 0 when the clock is created.  ``virtual`` says whether the timeline
    only moves when work is charged (a simulated clock can be idled forward
    deterministically; a wall clock cannot be driven at all).
    """

    #: True when time only advances through charges (replayable/idleable).
    virtual: bool = False

    #: Smallest meaningful timeline increment, in ns.  Consumers comparing
    #: timestamp arithmetic (e.g. a trace's stage sums against end-to-end
    #: latency stamps) should tolerate up to one tick of drift; both the
    #: simulated clock (float ns charges) and the wall clock
    #: (``monotonic_ns``) resolve to 1 ns.
    resolution_ns: float = 1.0

    @property
    @abstractmethod
    def elapsed_ns(self) -> float:
        """Nanoseconds elapsed on this clock's timeline."""

    @abstractmethod
    def charge_serial(self, **costs_ns: float) -> None:
        """Charge components that run one after another."""

    @abstractmethod
    def charge_pipelined(self, io_ns: float, mark_ns: float) -> None:
        """Charge an I/O batch overlapped with lookahead marking."""

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_ns * 1e-9

    def snapshot(self) -> dict[str, float]:
        """Copy of the per-component breakdown (ns)."""
        return {}

    def idle_until(self, target_ns: float) -> None:
        """Advance the timeline to ``target_ns`` charging only idleness.

        Only virtual clocks can be driven (open-loop replay waiting for
        the next arrival); a wall clock's time passes on its own.
        """
        raise NotImplementedError(
            f"{type(self).__name__} cannot be idled forward; "
            "only virtual clocks support open-loop replay"
        )

    # Shared breakdown accounting: both concrete clocks validate and
    # attribute charges identically; they differ only in whether the
    # charge advances the timeline.  Each returns what it added to
    # ``elapsed_ns``-if-virtual, so subclasses apply it or drop it.

    def _record_serial(self, costs_ns: dict[str, float]) -> float:
        total = 0.0
        for component, cost in costs_ns.items():
            if cost < 0:
                raise ValueError(f"negative cost for {component}: {cost}")
            self.breakdown[component] += cost
            total += cost
        return total

    def _record_pipelined(self, io_ns: float, mark_ns: float) -> float:
        if io_ns < 0 or mark_ns < 0:
            raise ValueError("costs must be non-negative")
        self.breakdown["io"] += io_ns
        self.breakdown["mark"] += mark_ns
        self.breakdown["overlap_hidden"] += min(io_ns, mark_ns)
        return max(io_ns, mark_ns)


class SimulatedClock(Clock):
    """Accumulates simulated time with a per-component breakdown."""

    virtual = True

    # The simulated timeline is plain mutable state; the class attribute
    # satisfies the ABC's abstract property.
    elapsed_ns: float = 0.0

    def __init__(self) -> None:
        self.elapsed_ns = 0.0
        self.breakdown: dict[str, float] = defaultdict(float)
        # A thread door steps outside its lock while submitters and probes
        # on other threads read the same clock; charges must not tear.
        self._lock = threading.Lock()

    def charge_serial(self, **costs_ns: float) -> None:
        """Charge components that run one after another."""
        with self._lock:
            self.elapsed_ns += self._record_serial(costs_ns)

    def charge_pipelined(self, io_ns: float, mark_ns: float) -> None:
        """Charge an I/O batch overlapped with lookahead marking: the slower
        of the two determines elapsed time, the rest is hidden."""
        with self._lock:
            self.elapsed_ns += self._record_pipelined(io_ns, mark_ns)

    def idle_until(self, target_ns: float) -> None:
        """Advance the timeline to ``target_ns`` charging only idleness."""
        gap = target_ns - self.elapsed_ns
        if gap > 0:
            self.charge_serial(idle=gap)

    def snapshot(self) -> dict[str, float]:
        """Copy of the per-component breakdown (ns)."""
        with self._lock:
            return dict(self.breakdown)


class WallClock(Clock):
    """Real monotonic time for live serving.

    ``elapsed_ns`` is monotonic nanoseconds since construction, so deadlines
    relative to submission are real-time deadlines.  Charges do not advance
    the timeline — wall time passes on its own while the work actually runs
    — but they still accumulate the per-component breakdown, so cost-model
    attribution survives the switch from simulation to live serving.
    """

    virtual = False

    def __init__(self) -> None:
        self._origin_ns = time.monotonic_ns()
        self.breakdown: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    @property
    def elapsed_ns(self) -> float:
        return float(time.monotonic_ns() - self._origin_ns)

    def charge_serial(self, **costs_ns: float) -> None:
        with self._lock:  # attribution only; time passes itself
            self._record_serial(costs_ns)

    def charge_pipelined(self, io_ns: float, mark_ns: float) -> None:
        with self._lock:
            self._record_pipelined(io_ns, mark_ns)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self.breakdown)
