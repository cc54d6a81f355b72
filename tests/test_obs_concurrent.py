"""Telemetry under concurrent step execution: nothing lost, nothing torn.

With ``max_concurrent_steps > 1`` settles land from executor threads, so
spans and metrics are recorded concurrently.  Across all three execution
backends this must hold:

- **no lost telemetry** — every request produces exactly one
  ``request.finalized`` event, and the ``engine.step`` span count equals
  the engine's own per-outcome step accounting;
- **no torn snapshots** — a thread hammering ``metrics.snapshot()`` and
  ``expose_text()`` mid-run only ever sees internally consistent views
  (status counts sum to the request total);
- **identity** — traced concurrent answers are byte-identical to the
  untraced serial reference (tracing observes, never steers).
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import AsyncFrontDoor, QueryRequest, SessionRegistry, match_histograms
from repro.core import HistSimConfig
from repro.core.target import TargetSpec
from repro.obs import Tracer
from repro.parallel import ShardedBackend, ThreadPoolBackend
from repro.query import HistogramQuery
from repro.storage import CategoricalAttribute, ColumnTable, Schema

EPS, DELTA = 0.2, 0.05
CANDIDATES, GROUPS = 12, 5
N_REQUESTS = 6


def make_table(seed: int = 31, n: int = 24_000) -> ColumnTable:
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


@pytest.fixture(scope="module")
def table():
    return make_table()


@pytest.fixture(scope="module")
def references(table):
    return {
        k: match_histograms(
            table, "product", "age", k=k, epsilon=EPS, delta=DELTA, sigma=0.0,
            seed=3,
        )
        for k in (2, 3)
    }


def make_request(i: int) -> QueryRequest:
    k = 3 if i % 2 == 0 else 2
    query = HistogramQuery(
        "product", "age", target=TargetSpec(kind="closest_to_uniform"), k=k,
        name=f"r{i}",
    )
    config = HistSimConfig(k=k, epsilon=EPS, delta=DELTA, sigma=0.0)
    return QueryRequest(query, config=config, seed=3, name=f"r{i}", dataset="d")


def make_backend(spec: str):
    if spec == "serial":
        return "serial"
    if spec == "threads":
        return ThreadPoolBackend(2, min_fan_out_rows=0)
    return ShardedBackend(2, min_fan_out_rows=0)


def drive_concurrent(table, backend, tracer):
    """Serve N requests through a concurrent async registry door while a
    snapshot-hammering thread checks for torn reads.  Returns
    ``(outcomes, snapshots_checked)``."""
    registry = SessionRegistry(backend=backend, tracer=tracer)
    registry.add_dataset("d", table)
    door = AsyncFrontDoor(registry, policy="fifo", max_concurrent_steps=4)
    torn: list[str] = []
    checked = 0
    stop = threading.Event()

    def hammer():
        nonlocal checked
        while not stop.is_set():
            snap = door.metrics.snapshot()
            total = (
                snap.completed + snap.partial + snap.missed
                + snap.shed + snap.cancelled
            )
            if total != snap.requests:
                torn.append(f"status counts {total} != requests {snap.requests}")
            if snap.requests > N_REQUESTS:
                torn.append(f"overcounted: {snap.requests} > {N_REQUESTS}")
            text = door.metrics.expose_text()
            if "repro_requests_total" not in text:
                torn.append("exposition missing counters")
            checked += 1

    async def drive():
        async with door:
            handles = [
                await door.submit(make_request(i)) for i in range(N_REQUESTS)
            ]
            return [await handle.outcome() for handle in handles]

    reader = threading.Thread(target=hammer, daemon=True)
    reader.start()
    try:
        outcomes = asyncio.run(drive())
    finally:
        stop.set()
        reader.join(timeout=10)
    assert not torn, torn[:3]
    assert checked > 0
    return outcomes, checked


@pytest.mark.parametrize("backend_spec", ["serial", "threads", "sharded"])
def test_concurrent_telemetry_complete_and_identical(
    table, references, backend_spec
):
    backend = make_backend(backend_spec)
    tracer = Tracer()
    try:
        outcomes, _ = drive_concurrent(table, backend, tracer)
        if backend_spec != "serial":
            assert backend.shard_tasks > 0  # the fan-out really ran
    finally:
        if backend_spec != "serial":
            backend.close()

    assert all(o.status == "completed" for o in outcomes)
    # Identity: tracing + concurrency + backend never change answers.
    for i, outcome in enumerate(outcomes):
        reference = references[3 if i % 2 == 0 else 2]
        where = f"{backend_spec}/r{i}"
        assert outcome.report.result.matching == reference.result.matching, where
        assert np.array_equal(
            outcome.report.result.histograms, reference.result.histograms
        ), where
        assert outcome.report.result.stats == reference.result.stats, where

    records = tracer.records()
    finalized = [r for r in records if r.name == "request.finalized"]
    assert len(finalized) == N_REQUESTS  # exactly one per request, none lost
    assert sorted(r.attrs["name"] for r in finalized) == sorted(
        f"r{i}" for i in range(N_REQUESTS)
    )
    step_spans = [r for r in records if r.name == "engine.step"]
    assert len(step_spans) == sum(o.steps for o in outcomes)
    assert all(r.attrs["tenant"] == "d" for r in step_spans)
    # Span ids are unique even when emitted from many threads.
    span_ids = [r.span_id for r in records]
    assert len(span_ids) == len(set(span_ids))
    if backend_spec != "serial":
        windows = [r for r in records if r.name in ("backend.window", "backend.table")]
        assert windows, "fan-out windows left no spans"
        assert all(r.clock == "monotonic" for r in windows)
    if backend_spec == "sharded":
        shm_events = [r for r in records if r.name == "shm.publish"]
        assert shm_events, "shared-memory publishes left no events"
