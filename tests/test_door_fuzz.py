"""Stateful fuzz of the front door's drive state machine (no scheduler thread).

A hypothesis ``RuleBasedStateMachine`` drives one :class:`FrontDoor` over a
real :class:`MatchSession` on a :class:`SimulatedClock` through any
interleaving of:

- **submit** — random ``k``, seed, deadline, ``on_deadline`` and
  ``max_step_rows``, under a small admission bound (so sheds happen);
- **turn** — one inline scheduling turn;
- **idle** — the clock idles forward, so queued deadlines expire;
- **shutdown** — terminal, with ``drain=True`` or ``drain=False``; a shut
  door then refuses submissions and shuts down again harmlessly.

Invariants, after every rule:

- every handle resolves exactly once, and a resolved handle's outcome
  never changes;
- the handle table, the engine's entries and the admission count agree
  on what is still pending;
- queue-wait and step spans tile each finalized request's
  ``[submitted, finished]`` interval;
- every completed outcome of a request without a deadline is identical to
  a standalone run with the same ``k`` and seed.

After shutdown the engine's entries and the handle table are empty, no
admission slot is held, and every handle is resolved.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import FrontDoor, MatchSession, QueryRequest, match_histograms  # noqa: E402
from repro.core import HistSimConfig  # noqa: E402
from repro.core.target import TargetSpec  # noqa: E402
from repro.obs import Tracer, summarize_records  # noqa: E402
from repro.query import HistogramQuery  # noqa: E402
from repro.serving import AdmissionRejected, ServingError  # noqa: E402
from repro.storage import CategoricalAttribute, ColumnTable, Schema  # noqa: E402

EPS, DELTA = 0.2, 0.05
CANDIDATES, GROUPS = 12, 5
MAX_QUEUE = 4


def make_table(seed: int = 21, n: int = 20_000) -> ColumnTable:
    rng = np.random.default_rng(seed)
    z = rng.integers(0, CANDIDATES, size=n)
    x = np.empty(n, dtype=np.int64)
    for c in range(CANDIDATES):
        mask = z == c
        base = np.full(GROUPS, 1.0 / GROUPS)
        if c >= 2:
            base[c % GROUPS] += 0.6
            base /= base.sum()
        x[mask] = rng.choice(GROUPS, size=int(mask.sum()), p=base)
    schema = Schema(
        (
            CategoricalAttribute("product", tuple(f"p{i}" for i in range(CANDIDATES))),
            CategoricalAttribute("age", tuple(f"a{i}" for i in range(GROUPS))),
        )
    )
    return ColumnTable(schema, {"product": z, "age": x})


TABLE = make_table()
#: Standalone reports by ``(k, seed)``, computed once per test session.
STANDALONE: dict = {}


def standalone(k: int, seed: int):
    if (k, seed) not in STANDALONE:
        STANDALONE[k, seed] = match_histograms(
            TABLE, "product", "age", k=k, epsilon=EPS, delta=DELTA, sigma=0.0,
            seed=seed,
        )
    return STANDALONE[k, seed]


def make_request(name, k, seed, **overrides) -> QueryRequest:
    query = HistogramQuery(
        "product", "age", target=TargetSpec(kind="closest_to_uniform"), k=k,
        name=name,
    )
    config = HistSimConfig(k=k, epsilon=EPS, delta=DELTA, sigma=0.0)
    return QueryRequest(query, config=config, seed=seed, name=name, **overrides)


class DoorMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tracer = Tracer()
        self.session = MatchSession(TABLE, tracer=self.tracer)
        self.clock = self.session.clock
        self.door = FrontDoor(self.session, policy="edf", max_queue=MAX_QUEUE)
        #: (handle, k, seed, had a deadline) per admitted request.
        self.admitted: list = []
        #: id(handle) -> times its waiter was resolved.
        self.resolutions: dict[int, int] = {}
        #: id(handle) -> the outcome first seen on it.
        self.seen: dict[int, object] = {}
        self.stopped = False
        #: Rules run before shutdown, which waits for a few so that most
        #: machines build a queue before they stop.
        self.moves = 0

    def _track(self, handle) -> None:
        resolve = handle._resolve

        def counted(outcome):
            self.resolutions[id(handle)] += 1
            resolve(outcome)

        self.resolutions[id(handle)] = 0
        handle._resolve = counted

    # ----------------------------------------------------------------- rules

    @precondition(lambda self: not self.stopped)
    @rule(
        k=st.integers(1, 4),
        seed=st.integers(0, 3),
        deadline_ms=st.none() | st.floats(0.1, 4.0),
        on_deadline=st.sampled_from(["partial", "miss"]),
        max_step_rows=st.none() | st.sampled_from([500, 3_000]),
    )
    def submit(self, k, seed, deadline_ms, on_deadline, max_step_rows):
        self.moves += 1
        name = f"r{len(self.admitted)}"
        request = make_request(
            name, k, seed,
            deadline_ns=None if deadline_ms is None else deadline_ms * 1e6,
            on_deadline=on_deadline,
            max_step_rows=max_step_rows,
        )
        try:
            handle = self.door.submit(request)
        except AdmissionRejected:
            assert self.door.admission.in_flight == MAX_QUEUE
            return
        self._track(handle)
        self.admitted.append((handle, k, seed, deadline_ms is not None))

    @precondition(lambda self: not self.stopped)
    @rule()
    def turn(self):
        self.moves += 1
        self.door.turn()

    @precondition(lambda self: not self.stopped)
    @rule(gap_ms=st.floats(0.01, 1.0))
    def idle(self, gap_ms):
        self.moves += 1
        self.clock.idle_until(self.clock.elapsed_ns + gap_ms * 1e6)

    @precondition(lambda self: not self.stopped and self.moves >= 8)
    @rule(drain=st.booleans())
    def shutdown(self, drain):
        assert self.door.shutdown(drain=drain) is True
        self.stopped = True
        assert self.session.closed
        for handle, *_ in self.admitted:
            assert handle.done
            if not drain:
                continue
            assert handle.outcome(timeout=0).status != "cancelled"

    @precondition(lambda self: self.stopped)
    @rule(drain=st.booleans())
    def closed_door(self, drain):
        """A shut door refuses work and shuts down again harmlessly."""
        with pytest.raises(ServingError):
            self.door.submit(make_request("late", 1, 0))
        assert self.door.shutdown(drain=drain) is True

    # ------------------------------------------------------------ invariants

    @invariant()
    def resolved_once(self):
        for handle, *_ in self.admitted:
            count = self.resolutions[id(handle)]
            assert count == int(handle.done)
            if handle.done:
                outcome = handle.outcome(timeout=0)
                assert self.seen.setdefault(id(handle), outcome) is outcome

    @invariant()
    def pending_agrees(self):
        door = self.door
        pending = {entry.seq for entry in door.engine._entries}
        assert set(door._handles) == pending
        assert door.admission.in_flight == len(pending)
        assert sum(not handle.done for handle, *_ in self.admitted) == len(pending)
        if self.stopped:
            assert door.engine._entries == [] and door._handles == {}
            assert door.admission.in_flight == 0

    @invariant()
    def spans_tile(self):
        summary = summarize_records(self.tracer.records())
        assert summary.requests == sum(
            handle.done for handle, *_ in self.admitted
        )
        assert summary.max_drift_ns <= 1e-3

    @invariant()
    def completed_matches_standalone(self):
        for handle, k, seed, had_deadline in self.admitted:
            if had_deadline or not handle.done:
                continue
            outcome = handle.outcome(timeout=0)
            if outcome.status != "completed":
                continue
            reference = standalone(k, seed).result
            result = outcome.report.result
            assert result.matching == reference.matching
            assert np.array_equal(result.histograms, reference.histograms)
            assert np.array_equal(result.distances, reference.distances)
            assert result.stats == reference.stats

    def teardown(self):
        if not self.stopped:
            self.door.shutdown(drain=True)


DoorMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestDoorFuzz = DoorMachine.TestCase
