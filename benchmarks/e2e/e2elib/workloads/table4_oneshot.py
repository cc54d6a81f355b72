"""table4_oneshot: the nine Table-3 queries, one-shot FastMatch, closed loop.

The paper's headline shape.  Windows are small (lookahead x 32 rows), so
``core``, ``sampling`` (engine bookkeeping, policy select, the per-query
O(N) engine init) and ``bitmap`` probing do most of the work and
``parallel`` little.  The candidate x group code space runs from 420
(police-q1) to 183k (taxi-q1), and flights-q4 is a near-full scan, so the
same kernel and engine code is used in three regimes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.histsim import HistSim, HistSimStepper
from repro.data import WORKLOAD_QUERIES
from repro.data.flights import build_flights
from repro.data.police import build_police
from repro.data.taxi import build_taxi
from repro.obs import Profiler, Tracer
from repro.parallel import SerialBackend
from repro.storage.cost_model import DEFAULT_COST_MODEL
from repro.storage.shuffle import shuffle_table
from repro.system import MatchSession, run_approach
from repro.system.clock import SimulatedClock
from repro.system.fastmatch import assemble_report, engine_counters, make_engine
from repro.system.stats_engine import StatsEngine

from ..harness import array_hash, result_fingerprint
from ..proxies import PolicyProxy, SamplerProxy, TimedBackend
from .common import (
    DATA_SEED, LayerTimes, OpOut, Workload, config_for, derive_seed, prepare_on,
    query_layer_metrics,
)

NAME = "table4_oneshot"
BLOCK_SIZE = 32
RUN_SEEDS = 24

BUILDERS = {"flights": build_flights, "taxi": build_taxi, "police": build_police}

#: Rows per dataset.  TAXI's generator has a ~1.7 s fixed cost (7641
#: location profiles) and a 350k-row floor, so it is kept small; --quick
#: leaves it out altogether.
ROWS = {"flights": 1_000_000, "taxi": 400_000, "police": 1_000_000}
QUICK_ROWS = {"flights": 150_000, "police": 150_000}


#: Share of a traced run's --seconds spent on the program-tracer pass.
PROGRAM_TRACER_SHARE = 0.15


class Table4Oneshot(Workload):
    name = NAME
    memory_sweeps = RUN_SEEDS  # every (query, run seed) once: 216 ops

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__()
        self.seed = seed
        self.rows = QUICK_ROWS if quick else ROWS
        self.queries = [
            (name, dataset, query)
            for name, (dataset, query) in WORKLOAD_QUERIES.items()
            if dataset in self.rows
        ]
        self.run_seeds = [derive_seed(seed, 1, i) for i in range(RUN_SEEDS)]
        self.configs = {name: config_for(query.k) for name, _, query in self.queries}
        self.datasets: dict = {}
        self.prepared: dict = {}

    # ------------------------------------------------------------------ set-up

    def setup(self) -> LayerTimes:
        times = LayerTimes()
        self.datasets, self.prepared, shuffled, index_cache = {}, {}, {}, {}
        for position, (dataset, rows) in enumerate(self.rows.items()):
            with times.timed("data.generate"):
                self.datasets[dataset] = BUILDERS[dataset](rows=rows, seed=DATA_SEED)
            with times.timed("storage.shuffle"):
                shuffled[dataset] = shuffle_table(
                    self.datasets[dataset].table, BLOCK_SIZE,
                    np.random.default_rng(derive_seed(self.seed, 0, position)))
        for name, dataset, query in self.queries:
            self.prepared[name] = prepare_on(shuffled[dataset], query, times, index_cache)
        for op in self.sweep(0):  # warm-up, untimed
            self.execute(op)
        return times

    def teardown(self) -> None:
        self.datasets, self.prepared = {}, {}

    def input_hashes(self) -> dict[str, str]:
        hashes = {}
        for dataset, built in self.datasets.items():
            for attribute in built.table.schema.names:
                hashes[f"{dataset}.{attribute}"] = array_hash(built.table.column(attribute))
        for name, prepared in self.prepared.items():
            hashes[f"truth.{name}"] = array_hash(prepared.exact_counts)
        return hashes

    def scan_items(self) -> dict:
        return {name: (self.prepared[name], self.configs[name])
                for name, _, _ in self.queries}

    # --------------------------------------------------------------------- ops

    def sweep(self, index: int) -> list:
        run_seed = self.run_seeds[index % RUN_SEEDS]
        return [(name, run_seed) for name, _, _ in self.queries]

    def execute(self, op):
        name, run_seed = op
        return run_approach(self.prepared[name], "fastmatch", self.configs[name],
                            seed=run_seed)

    def execute_traced(self, op, recorder):
        """The pipeline ``run_approach`` assembles, built from the same
        public parts with a timing proxy at each layer boundary."""
        name, run_seed = op
        prepared, config = self.prepared[name], self.configs[name]
        rng = np.random.default_rng(run_seed)
        clock = SimulatedClock()
        backend = TimedBackend(SerialBackend(), recorder)
        with recorder.span("sampling.engine_init"):
            engine = make_engine(
                prepared, "fastmatch", config, DEFAULT_COST_MODEL, clock, rng, backend
            )
        engine.policy = PolicyProxy(engine.policy, recorder)
        algo = HistSim(
            SamplerProxy(engine, recorder), prepared.target, config,
            stats_cost=StatsEngine(DEFAULT_COST_MODEL, clock), backend=backend,
        )
        stepper = HistSimStepper(algorithm=algo)  # what HistSim.run() drives
        while not stepper.done:
            with recorder.span("core.step"):
                stepper.step()
        with recorder.span("system.finish"):
            report = assemble_report(
                prepared, "fastmatch", stepper.result, config, clock.elapsed_ns,
                engine_counters(engine), breakdown=clock.snapshot(),
                backend=engine.backend.name,
            )
        return report, stepper.steps_taken, engine.counters.windows

    def verify(self, op, raw, traced: bool) -> OpOut:
        name, run_seed = op
        report, steps, windows = raw if traced else (raw, 0, 0)
        key = f"{name}@{run_seed}"
        fingerprint = result_fingerprint(report)
        first = self.answers.setdefault(key, fingerprint)
        if fingerprint != first:
            self.identity_failures.append(
                f"{key}: {'traced pipeline' if traced else 'repeat'} differs from run_approach"
            )
        counters = report.counters
        return OpOut(
            rows=counters["rows_delivered"],
            ok=report.audit.ok,
            key=name,
            exact={
                "storage.sim_latency_ms": report.elapsed_ns * 1e-6,
                "log_sim_speedup": float(
                    np.log(self.scan_sim_ns[name] / report.elapsed_ns)),
                "bitmap.probes": counters["probes"],
                "core.steps": steps,
                "core.stage2_rounds": report.result.stats.rounds,
                "sampling.windows": windows,
                "sampling.blocks_read": counters["blocks_read"],
                "sampling.blocks_skipped": counters["blocks_skipped"],
                "sampling.rows_delivered": counters["rows_delivered"],
            },
        )

    # ------------------------------------------------------------- per layer

    def program_tracer_overhead(self, seconds: float) -> tuple[float, float]:
        """Same ops through two sessions per dataset — one with the
        program's own ``Tracer()`` + ``Profiler()`` on, one with both off —
        alternating, so drift cancels.  Returns (on / off median latency,
        bytes moved per row gathered from the traced reports' profiles)."""
        sessions = {}
        for dataset, built in self.datasets.items():
            sessions[dataset] = (
                MatchSession(built.table, block_size=BLOCK_SIZE),
                MatchSession(built.table, block_size=BLOCK_SIZE, tracer=Tracer(),
                             profiler=Profiler()),
            )
        latency = ([], [])
        moved = gathered = 0
        deadline = time.perf_counter() + seconds
        sweep = 0
        while sweep == 0 or time.perf_counter() < deadline:
            for name, dataset, query in self.queries:
                for side in (0, 1):
                    session = sessions[dataset][side]
                    t0 = time.perf_counter_ns()
                    session.submit(
                        query, config=self.configs[name],
                        seed=self.run_seeds[sweep % RUN_SEEDS],
                        prepared=self.prepared[name],
                    )
                    report = session.run()[-1].report
                    latency[side].append(time.perf_counter_ns() - t0)
                    if side == 1:
                        totals = report.profile["totals"]
                        moved += totals["bytes_moved"]
                        gathered += totals["rows_gathered"]
            sweep += 1
        for pair in sessions.values():
            for session in pair:
                session.close()
        ratio = statistics.median(latency[1]) / statistics.median(latency[0])
        return ratio, moved / max(gathered, 1)

    def layer_metrics(self, setups, untraced, traced, budget, seconds: float) -> dict:
        overhead, moved_per_row = self.program_tracer_overhead(
            seconds * PROGRAM_TRACER_SHARE)
        last = setups[-1].seconds
        index_bytes = sum(
            {id(p.index): p.index.nbytes for p in self.prepared.values()}.values()
        )
        return {
            **query_layer_metrics(self, traced.exact, budget),
            "data.generate_s": (last["data.generate"], "s"),
            "storage.shuffle_s": (last["storage.shuffle"], "s"),
            "bitmap.build_s": (last["bitmap.build"], "s"),
            "bitmap.index_mb": (index_bytes / 2**20, "MiB"),
            "query.ground_truth_ms": (
                last["query.ground_truth"] * 1e3 / len(self.queries), "ms"),
            "sampling.engine_init_ms": (
                budget.self_ms_per_op("sampling.engine_init"), "ms"),
            "sampling.windows": (traced.exact["sampling.windows"], "count"),
            "parallel.bytes_moved_per_row": (moved_per_row, "B/row"),
            "obs.tracer_on_overhead_ratio": (overhead, "ratio"),
        }
