"""serving_openloop: a multi-tenant front door under seeded open-loop load.

The only workload where ``serving`` (admission, engine pick/settle, the
front-door loop and its lock) and queueing matter.  A faster step shows
here as a lower ``latency_ms_p95`` even when table4_oneshot barely moves,
and a driver-loop refactor (ROADMAP item 3) that adds per-step overhead
shows here first.

Open loop: arrivals are a Poisson process conditioned on its count (N
uniform order statistics over the phase), submitted on schedule whatever
the door is doing; latency runs from each request's *due* time and the
generator's lateness is reported.  The end-to-end metrics are taken at
``rate_b``; a traced run adds the ladder ``rate_a..rate_d``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.data import WORKLOAD_QUERIES
from repro.data.flights import build_flights
from repro.data.police import build_police
from repro.obs import Profiler, Tracer
from repro.parallel import SerialBackend
from repro.serving import AdmissionRejected, FrontDoor, QueryRequest
from repro.serving.engine import COMPLETED, PARTIAL, SHED
from repro.system import SessionRegistry, run_approach
from repro.system.clock import WallClock

from ..harness import (
    ROUNDS, HostProbe, Metric, OpRecord, array_hash, gc_quiet, percentile,
    reduce_rounds, result_fingerprint,
)
from ..proxies import TimedBackend, TimedService
from .common import (
    DATA_SEED, LayerTimes, Pass, Workload, config_for, derive_seed,
    engine_init_ms, query_layer_metrics,
)

NAME = "serving_openloop"
BLOCK_SIZE = 32
MAX_QUEUE = 64
QUERIES = ("flights-q1", "flights-q2", "flights-q3", "police-q1", "police-q2",
           "police-q3")
BUILDERS = {"flights": build_flights, "police": build_police}

#: Small tables on purpose: an open-loop p95 over a few hundred Poisson
#: arrivals spreads by ~20% from seed to seed at any size, and the only
#: cure is more arrivals in the same seconds, i.e. cheaper requests.
ROWS = 400_000
QUICK_ROWS = 150_000

#: One row order per table whatever ``--seed`` says, so every request for a
#: query costs the same from seed to seed: the seed draws the arrivals, the
#: order of the queries and the deadlines.  (A row order per seed moves
#: the door's utilisation with the samples each query happens to need, and
#: queueing amplifies that in the tail; table4_oneshot is where row orders
#: and sampling seeds vary.)
SHUFFLE_SEED = derive_seed(DATA_SEED, 1)

#: Offered load, requests per second.  Fixed absolute rates, derived once on
#: the 2-core reference host from the parent commit's closed-loop capacity
#: through the door (about 64 requests/s over seeds 7-9, so roughly 0.2 /
#: 0.3 / 0.55 / 0.8 of it) and frozen here, so a change to the program
#: moves utilisation, not the load.  ``rate_b`` carries the end-to-end
#: metrics and sits low: the reference host can halve its speed for
#: seconds at a time, and at 0.45 that tipped one run in five into
#: overload (p95 87 and 333 ms next to eight runs at 46-56 ms).
RATES_QPS = {"rate_a": 12.0, "rate_b": 20.0, "rate_c": 36.0, "rate_d": 50.0}

#: Deadline mix; expiry answers ``partial``.  Queries and deadlines are
#: dealt in shuffled rounds (every six requests hold each query once), so
#: the mix is balanced over any stretch of the phase.
DEADLINES_MS = (None, 1000.0, 400.0)

#: A phase re-times one query's exact scan (the six take turns) in a gap
#: between arrivals while the door is idle, at most once per period: an op
#: is then compared with scans taken in its own round, as in the closed
#: loops.  (Timed only before and after the phase, the scans caught the
#: host at one speed and the phase at another, and ``speedup_vs_scan``
#: spread by 27% over ten seeds.)  The host probe is timed with it.  The
#: gap is several scans and probes long, so neither delays an arrival.
SCAN_PERIOD_S = 0.25
SCAN_MIN_GAP_S = 0.02
SCAN_POLL_S = 0.002  # while a scan is owed and the door is still busy

MIN_REQUESTS = 24
SLO_P95_MS = 250.0
SLO_FAILED_RATE = 0.01
#: A backlog at phase end of up to this many requests is not "growing"
#: even when the middle sample happened to catch an empty queue.
BACKLOG_SLACK = 2

#: Traced run: share of --seconds per phase (rate_b runs untraced, then
#: traced); the rest pays for the tracer-overhead pass.
TRACE_SHARES = {"rate_a": 0.15, "rate_b": 0.22, "traced": 0.22, "rate_c": 0.15,
                "rate_d": 0.15}
PROGRAM_TRACER_SHARE = 0.06


def _dealt(items: tuple, count: int, rng) -> list:
    """``count`` draws from ``items`` as consecutive random permutations."""
    rounds = -(-count // len(items))
    order = np.concatenate([rng.permutation(len(items)) for _ in range(rounds)])
    return [items[i] for i in order[:count]]


@dataclass
class Served:
    """One request of a phase, as seen from outside the door."""

    due_ns: int
    submit_start_ns: int
    submit_end_ns: int
    query: str
    had_deadline: bool
    outcome: object | None  # ServingOutcome; None when rejected at the door
    done_ns: int  # finalization stamp on the perf_counter timeline

    @property
    def latency_ns(self) -> int:
        return self.done_ns - self.due_ns


@dataclass
class Phase:
    rate: float
    duration_s: float
    served: list
    backlog_mid: int
    backlog_end: int
    last_done_ns: int
    start_ns: int
    scans: list  # (perf_counter ns, query, wall ms) of the scans in its gaps
    probe: HostProbe  # timed in the same gaps


class ServingOpenloop(Workload):
    name = NAME
    untraced_share = TRACE_SHARES["rate_b"]
    traced_share = TRACE_SHARES["traced"]

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__()
        self.seed = seed
        self.rows = QUICK_ROWS if quick else ROWS
        self.shuffle_seed = SHUFFLE_SEED
        self.queries = {name: WORKLOAD_QUERIES[name] for name in QUERIES}
        self.configs = {n: config_for(q.k) for n, (_, q) in self.queries.items()}
        self.datasets: dict = {}
        self.registry = self.door = None
        self.phases: dict[str, Phase] = {}

    # ------------------------------------------------------------------ set-up

    def _registry(self, times: LayerTimes | None = None, backend=None, **kwargs):
        registry = SessionRegistry(
            clock=WallClock(), block_size=BLOCK_SIZE,
            backend=backend if backend is not None else "serial", **kwargs,
        )
        for dataset, built in self.datasets.items():
            registry.add_dataset(dataset, built.table)
        for name, (dataset, query) in self.queries.items():
            if times is None:
                registry.session(dataset).prepared(query, seed=self.shuffle_seed)
            else:
                with times.timed("system.prepare"):
                    registry.session(dataset).prepared(query, seed=self.shuffle_seed)
        return registry

    def _door(self, service) -> FrontDoor:
        return FrontDoor(
            service, policy="edf", max_queue=MAX_QUEUE, max_concurrent_steps=1
        ).start()

    def _request(self, name: str, tag: str, deadline_ms: float | None = None):
        dataset, query = self.queries[name]
        return QueryRequest(
            query=query, config=self.configs[name], seed=self.shuffle_seed,
            deadline_ns=None if deadline_ms is None else deadline_ms * 1e6,
            on_deadline="partial", name=tag, dataset=dataset,
        )

    def setup(self) -> LayerTimes:
        times = LayerTimes()
        self.datasets = {}
        for dataset, builder in BUILDERS.items():
            with times.timed("data.generate"):
                self.datasets[dataset] = builder(rows=self.rows, seed=DATA_SEED)
        self.registry = self._registry(times)
        self.door = self._door(self.registry)
        for name in QUERIES:  # warm-up, untimed
            self.door.submit(self._request(name, f"warm-{name}")).outcome(timeout=120)
        return times

    def teardown(self) -> None:
        if self.door is not None:
            self.door.shutdown(drain=True, timeout=120)
        self.door = self.registry = None
        self.datasets = {}

    def input_hashes(self) -> dict[str, str]:
        hashes = {}
        for dataset, built in self.datasets.items():
            for attribute in built.table.schema.names:
                hashes[f"{dataset}.{attribute}"] = array_hash(built.table.column(attribute))
        return hashes

    def _prepared(self, name: str):
        dataset, query = self.queries[name]
        return self.registry.session(dataset).prepared(query, seed=self.shuffle_seed)

    def scan_items(self) -> dict:
        return {name: (self._prepared(name), self.configs[name]) for name in QUERIES}

    def baseline(self) -> None:
        """Exact scans, and the standalone answer every door answer must equal."""
        super().baseline()
        for name in QUERIES:
            standalone = run_approach(
                self._prepared(name), "fastmatch", self.configs[name],
                seed=self.shuffle_seed)
            # Elapsed time is wall time behind the door, so it is left out.
            self.answers[name] = result_fingerprint(standalone, with_clock=False)

    # ------------------------------------------------------------------- phases

    def run_phase(self, door, clock, rate: float, duration_s: float, tag: str,
                  recorder=None, service=None) -> Phase:
        duration_s = max(duration_s, MIN_REQUESTS / rate)  # short --quick phases
        count = round(rate * duration_s)
        rng = np.random.default_rng(derive_seed(self.seed, 3, int(rate * 1000)))
        offsets_ns = (np.sort(rng.uniform(0.0, duration_s, count)) * 1e9).astype(np.int64)
        names = _dealt(QUERIES, count, rng)
        deadlines = _dealt(DEADLINES_MS, count, rng)
        requests = [
            self._request(names[i], f"{tag}-{i}", deadlines[i]) for i in range(count)
        ]
        served: list[Served] = []
        handles: list = []
        scans: list = []
        scan_items = list(self.scan_items().items())
        probe = HostProbe()
        backlog_mid = -1
        half_ns = int(duration_s * 0.5e9)
        third_ns = duration_s * 1e9 / ROUNDS
        with gc_quiet():
            probe.time(0)
            # Map the door's WallClock onto the perf_counter timeline (both
            # read CLOCK_MONOTONIC; the midpoint halves the read skew).
            before_ns = time.perf_counter_ns()
            elapsed_ns = int(clock.elapsed_ns)
            clock_offset_ns = (before_ns + time.perf_counter_ns()) // 2 - elapsed_ns
            start_ns = time.perf_counter_ns() + 5_000_000
            next_scan_ns = start_ns
            for i, request in enumerate(requests):
                due_ns = start_ns + int(offsets_ns[i])
                while True:  # wait for the due time; scan once the door falls idle
                    now_ns = time.perf_counter_ns()
                    wait_ns = due_ns - now_ns
                    if wait_ns <= 0:
                        break
                    if now_ns < next_scan_ns or wait_ns < SCAN_MIN_GAP_S * 1e9:
                        time.sleep(wait_ns * 1e-9)
                    elif door.engine.pending or door.engine.in_flight:
                        time.sleep(min(wait_ns, SCAN_POLL_S * 1e9) * 1e-9)
                    else:
                        key, (prepared, config) = scan_items[len(scans) % len(scan_items)]
                        scans.append((now_ns, key, self.scan_one(key, prepared, config)))
                        probe.time(min(max(int((now_ns - start_ns) / third_ns), 0), ROUNDS - 1))
                        next_scan_ns = now_ns + int(SCAN_PERIOD_S * 1e9)
                if backlog_mid < 0 and offsets_ns[i] >= half_ns:
                    backlog_mid = door.engine.pending
                handle = None
                if recorder is not None:
                    service.op_of_request[request.name] = i
                    recorder.reserve_root(i)
                t0 = time.perf_counter_ns()
                try:
                    if recorder is None:
                        handle = door.submit(request)
                    else:
                        with recorder.span("serving.submit", i):
                            handle = door.submit(request)
                except AdmissionRejected:
                    pass
                t1 = time.perf_counter_ns()
                handles.append(handle)
                served.append(Served(due_ns, t0, t1, names[i],
                                     deadlines[i] is not None, None, t1))
            remaining_s = (start_ns + int(duration_s * 1e9) - time.perf_counter_ns()) * 1e-9
            if remaining_s > 0:
                time.sleep(remaining_s)
            backlog_end = door.engine.pending
            for entry, handle in zip(served, handles):  # drain
                if handle is not None:
                    entry.outcome = handle.outcome(timeout=120)
                    entry.done_ns = clock_offset_ns + int(entry.outcome.finished_ns)
        return Phase(
            rate=rate, duration_s=duration_s, served=served,
            backlog_mid=max(backlog_mid, 0), backlog_end=backlog_end,
            last_done_ns=max(s.done_ns for s in served), start_ns=start_ns, scans=scans,
            probe=probe,
        )

    def _failure(self, entry: Served) -> str:
        """Why the request counts as failed; empty when it does not."""
        outcome = entry.outcome
        if outcome is None:
            return "rejected"
        if outcome.status != COMPLETED:
            return outcome.status  # shed, miss, cancelled or partial
        if not outcome.report.audit.ok:
            return "audit"
        if result_fingerprint(outcome.report, with_clock=False) != self.answers[entry.query]:
            self.identity_failures.append(
                f"{entry.query}: front-door answer differs from standalone run_approach")
            return "identity"
        return ""

    def records_of(self, phase: Phase) -> list[OpRecord]:
        third_ns = phase.duration_s * 1e9 / ROUNDS

        def round_of(at_ns: int) -> int:
            return min(int((at_ns - phase.start_ns) / third_ns), ROUNDS - 1)

        round_scans: dict = {}
        for at_ns, key, wall_ms in phase.scans:
            round_scans.setdefault((round_of(at_ns), key), []).append(wall_ms)
        records = []
        for entry in phase.served:
            report = entry.outcome.report if entry.outcome is not None else None
            failure = self._failure(entry)
            in_round = round_scans.get((round_of(entry.due_ns), entry.query))
            records.append(OpRecord(
                round=round_of(entry.due_ns),
                latency_ns=entry.latency_ns,
                rows=report.counters["rows_delivered"] if report is not None else 0,
                scan_ms=statistics.median(in_round) if in_round
                else self.scan_ms(entry.query),
                ok=not failure,
                key=entry.query,
                note=failure and f"{failure} after {entry.latency_ns * 1e-6:.0f} ms",
            ))
        return records

    def end_to_end(self, result: Pass, slowdown: list[float] | None) -> dict[str, Metric]:
        """Latency and speedup by rounds (thirds of the phase, by due time);
        throughput and rows/s over the whole phase, first due time to last
        answer — per third they would mostly measure how many arrivals fell
        in it, and the schedule sets them, not the host's speed."""
        phase, records = self.phases["rate_b"], result.records
        metrics = reduce_rounds(records, [phase.duration_s / ROUNDS] * ROUNDS, slowdown)
        wall_s = (phase.last_done_ns - phase.served[0].due_ns) * 1e-9
        ok = sum(r.ok for r in records)
        metrics["throughput_ops_s"] = Metric(ok / wall_s, "ops/s", n=len(records))
        metrics["rows_per_s"] = Metric(
            sum(r.rows for r in records) / wall_s, "rows/s", n=len(records))
        return metrics

    def run(self, seconds: float, recorder=None) -> Pass:
        """The rate_b phase on the plain door (``recorder=None``), or on a
        second, instrumented registry + door."""
        if recorder is None:
            phase = self.run_phase(
                self.door, self.registry.clock, RATES_QPS["rate_b"], seconds, "b")
        else:
            registry = self._registry(backend=TimedBackend(SerialBackend(), recorder))
            service = TimedService(registry, recorder)
            door = self._door(service)
            for name in QUERIES:  # warm-up through the instrumented door
                service.op_of_request[f"warm-{name}"] = -1
                door.submit(self._request(name, f"warm-{name}")).outcome(timeout=120)
            del recorder.spans[:]
            try:
                phase = self.run_phase(
                    door, registry.clock, RATES_QPS["rate_b"], seconds, "t",
                    recorder=recorder, service=service)
            finally:
                door.shutdown(drain=True, timeout=120)
            self._close_roots(phase, recorder)
        self.phases["traced" if recorder is not None else "rate_b"] = phase
        records = self.records_of(phase)
        exact: dict = {}
        completed = [s.outcome for s in phase.served
                     if s.outcome is not None and s.outcome.status == COMPLETED]
        if completed:
            def mean(get):
                return statistics.fmean(get(o) for o in completed)
            exact = {
                "bitmap.probes": mean(lambda o: o.report.counters["probes"]),
                "core.steps": mean(lambda o: o.steps),
                "core.stage2_rounds": mean(lambda o: o.report.result.stats.rounds),
                "sampling.blocks_read": mean(lambda o: o.report.counters["blocks_read"]),
                "sampling.blocks_skipped": mean(
                    lambda o: o.report.counters["blocks_skipped"]),
                "sampling.rows_delivered": mean(
                    lambda o: o.report.counters["rows_delivered"]),
            }
        return Pass(records, exact, len(records), phase.probe.slowdown())

    @staticmethod
    def _close_roots(phase: Phase, recorder) -> None:
        """Close each request's root span [due, done], and name what is
        left between its submit and its last step: time admitted but not
        running is queue wait."""
        children: dict = {}
        for span in recorder.spans:
            if span.parent and span.parent == recorder.roots.get(span.op):
                children.setdefault(span.op, []).append(span)
        for op, entry in enumerate(phase.served):
            root_id = recorder.roots[op]
            # The clock mapping is good to a microsecond; the root must
            # still cover its last child.
            end_ns = max([entry.done_ns, entry.submit_end_ns]
                         + [child.t1 for child in children.get(op, ())])
            recorder.add("op", op, entry.due_ns, end_ns, span_id=root_id)
            if entry.submit_start_ns > entry.due_ns:
                recorder.add("serving.generator_lag", op, entry.due_ns,
                             entry.submit_start_ns, parent=root_id)
            cursor = entry.submit_end_ns
            for child in sorted(children.get(op, ()), key=lambda s: s.t0):
                if child.t0 > cursor and child.name != "serving.submit":
                    recorder.add("serving.queue_wait", op, cursor, child.t0,
                                 parent=root_id)
                cursor = max(cursor, child.t1)

    # ------------------------------------------------------------- per layer

    def run_ladder(self, seconds: float) -> None:
        """rate_a, rate_c and rate_d on the plain door (rate_b has run)."""
        for name in ("rate_a", "rate_c", "rate_d"):
            self.phases[name] = self.run_phase(
                self.door, self.registry.clock, RATES_QPS[name],
                seconds * TRACE_SHARES[name], name[-1])

    def _meets_slo(self, phase: Phase) -> bool:
        records = self.records_of(phase)
        p95 = percentile([r.latency_ns * 1e-6 for r in records], 95)
        failed = sum(not r.ok for r in records) / len(records)
        return (
            p95 <= SLO_P95_MS and failed <= SLO_FAILED_RATE
            and phase.backlog_end <= max(phase.backlog_mid, BACKLOG_SLACK)
        )

    def program_tracer_overhead(self, seconds: float) -> float:
        """Closed loop, one request at a time, alternating between the plain
        door and a door whose registry runs the program's own ``Tracer()``
        and ``Profiler()``: on / off median latency."""
        traced_door = self._door(self._registry(tracer=Tracer(), profiler=Profiler()))
        doors = (self.door, traced_door)
        latency = ([], [])
        try:
            deadline = time.perf_counter() + seconds
            sweep = 0
            while sweep < 2 or time.perf_counter() < deadline:
                for name in QUERIES:
                    for side in (0, 1):
                        request = self._request(name, f"obs-{sweep}-{name}-{side}")
                        t0 = time.perf_counter_ns()
                        doors[side].submit(request).outcome(timeout=120)
                        if sweep:  # the first sweep warms the traced door
                            latency[side].append(time.perf_counter_ns() - t0)
                sweep += 1
        finally:
            traced_door.shutdown(drain=True, timeout=120)
        return statistics.median(latency[1]) / statistics.median(latency[0])

    @staticmethod
    def _lag_p95_ms(phase: Phase) -> float:
        """How late the generator submitted, 95th percentile."""
        return percentile(
            [max(s.submit_start_ns - s.due_ns, 0) * 1e-6 for s in phase.served], 95)

    def warnings(self) -> list[str]:
        lag_p95 = self._lag_p95_ms(self.phases["rate_b"])
        if lag_p95 > 0.1 * SLO_P95_MS:
            return [f"generator_lag: p95 lateness {lag_p95:.1f} ms exceeds 10% of the "
                    f"{SLO_P95_MS:g} ms SLO; latencies from due time include it"]
        return []

    def layer_metrics(self, setups, untraced, traced, budget, seconds: float) -> dict:
        self.run_ladder(seconds)
        overhead = self.program_tracer_overhead(seconds * PROGRAM_TRACER_SHARE)
        phase = self.phases["rate_b"]
        served = [s for s in phase.served if s.outcome is not None]
        submit_ms = [(s.submit_end_ns - s.submit_start_ns) * 1e-6 for s in phase.served]
        wait_ms = [(s.outcome.latency_ns - s.outcome.service_ns) * 1e-6 for s in served]
        service_ms = [s.outcome.service_ns * 1e-6 for s in served]
        with_deadline = [s for s in phase.served if s.had_deadline]
        hits = sum(
            s.outcome is not None and s.outcome.deadline_hit for s in with_deadline)
        statuses = [s.outcome.status if s.outcome is not None else "rejected"
                    for s in phase.served]
        within = [RATES_QPS[n] for n in RATES_QPS if self._meets_slo(self.phases[n])]
        last = setups[-1].seconds
        metrics = {
            **query_layer_metrics(self, traced.exact, budget),
            "data.generate_s": (last["data.generate"], "s"),
            "system.session.prepare_miss_ms": (
                last["system.prepare"] * 1e3 / len(QUERIES), "ms"),
            "sampling.engine_init_ms": (
                engine_init_ms(self.scan_items().values()), "ms"),
            "system.session.make_job_ms": (
                budget.self_ms_per_op("system.make_job"), "ms"),
            "system.session.step_ms": (budget.total_ms_per_op("core.step"), "ms"),
            "serving.submit_ms_p50": (percentile(submit_ms, 50), "ms"),
            "serving.submit_ms_p95": (percentile(submit_ms, 95), "ms"),
            "serving.generator_lag_ms_p95": (self._lag_p95_ms(phase), "ms"),
            "serving.queue_wait_ms_p50": (percentile(wait_ms, 50), "ms"),
            "serving.queue_wait_ms_p95": (percentile(wait_ms, 95), "ms"),
            "serving.service_ms_p50": (percentile(service_ms, 50), "ms"),
            "serving.max_rate_within_slo_qps": (max(within, default=0.0), "qps"),
            "serving.backlog_end": (phase.backlog_end, "count"),
            "serving.deadline_hit_rate": (hits / max(len(with_deadline), 1), "ratio"),
            "serving.partial_count": (statuses.count(PARTIAL), "count"),
            "serving.shed_count": (statuses.count(SHED), "count"),
            "serving.rejected_count": (statuses.count("rejected"), "count"),
            "obs.tracer_on_overhead_ratio": (overhead, "ratio"),
        }
        for name in ("rate_a", "rate_c", "rate_d"):
            latency = [r.latency_ns * 1e-6 for r in self.records_of(self.phases[name])]
            metrics[f"serving.{name}.latency_ms_p95"] = (percentile(latency, 95), "ms")
        return metrics
