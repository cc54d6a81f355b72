"""fullpass_backends: one full uniform pass on each execution backend.

Large-window counting throughput: ``parallel`` (kernels, shard planning,
IPC/shm, merge) does nearly all the work and ``core`` none — the opposite
of table4_oneshot.  One op runs the same pass on the serial, threads and
sharded backends and sums the three, which keeps the latency sample
unimodal while the per-layer metrics keep the backends apart.  This is the
workload that must stay flat when the execution layer is collapsed
(ROADMAP item 2).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.bitmap.builder import build_bitmap_index
from repro.data import sizes_from_weights, zipf_weights
from repro.data.generator import conditional_column, jittered
from repro.parallel import SerialBackend, ShardedBackend, ThreadPoolBackend
from repro.sampling.engine import BlockSamplingEngine
from repro.sampling.policies import ScanAllPolicy
from repro.storage.cost_model import DEFAULT_COST_MODEL
from repro.storage.schema import CategoricalAttribute, Schema
from repro.storage.shuffle import shuffle_table
from repro.storage.table import ColumnTable
from repro.system.clock import SimulatedClock

from ..harness import array_hash, workers
from ..proxies import SamplerProxy, TimedBackend
from .common import DATA_SEED, SCAN_REPEATS, LayerTimes, OpOut, Workload, derive_seed

NAME = "fullpass_backends"
CANDIDATES = 64
GROUPS = 24
BLOCK_SIZE = 4096
WINDOWS_PER_PASS = 32
BACKENDS = ("serial", "threads", "sharded")
#: Workers are pinned one per CPU.  Not the backends' default (no
#: affinity), which a traced run reports on its own
#: (``parallel.*.unpinned.pass_ms``): left to the scheduler, a pool's pass
#: time depends on where its workers happened to land (20-34 ms from one
#: thread pool to the next on the 2-core reference host, against 38-44 ms
#: pinned), and the op latency spread by 30% from run to run.
AFFINITY = "spread"
UNPINNED_PASSES = 30

#: 2M rows in 32 windows: each window (61k rows) is above the sharded
#: backend's inline threshold for any W <= 4, and an op (three passes) is
#: short enough that a run sees 200 of them.
ROWS = 2_000_000
QUICK_ROWS = 200_000
#: 200k rows are 49 blocks; four windows keep each above the sharded
#: backend's inline threshold, so --quick still crosses the process pool.
QUICK_WINDOWS_PER_PASS = 4


def generator_table(rows: int, seed: int) -> ColumnTable:
    """A (z, x) table straight from the generator helpers: 64 Zipf(1)
    candidates x 24 groups, each candidate a jittered-uniform histogram.
    (The same recipe as benchmarks/bench_parallel_scaling.py, copied so
    that editing that file cannot move this benchmark.)"""
    rng = np.random.default_rng(seed)
    sizes = sizes_from_weights(zipf_weights(CANDIDATES, alpha=1.0), rows, rng)
    base = np.full(GROUPS, 1.0 / GROUPS)
    distributions = np.stack(
        [jittered(base, concentration=50.0, rng=rng) for _ in range(CANDIDATES)]
    )
    z = np.repeat(np.arange(CANDIDATES, dtype=np.int64), sizes)
    x = conditional_column(sizes, distributions, rng)
    schema = Schema((
        CategoricalAttribute("z", tuple(f"Z{i:03d}" for i in range(CANDIDATES))),
        CategoricalAttribute("x", tuple(f"X{i:03d}" for i in range(GROUPS))),
    ))
    return ColumnTable(schema, {"z": z, "x": x})


class FullpassBackends(Workload):
    name = NAME
    memory_sweeps = 100  # a sweep is one op

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__()
        self.seed = seed
        self.rows = QUICK_ROWS if quick else ROWS
        self.windows_per_pass = QUICK_WINDOWS_PER_PASS if quick else WINDOWS_PER_PASS
        self.workers = workers()
        self.backends: dict = {}
        self.count_table_ms: dict = {}
        self.pass_ns: dict = {}  # traced? -> per-op {backend: ns}

    # ------------------------------------------------------------------ set-up

    def setup(self) -> LayerTimes:
        times = LayerTimes()
        with times.timed("data.generate"):
            self.table = generator_table(self.rows, DATA_SEED)
        with times.timed("storage.shuffle"):
            self.shuffled = shuffle_table(
                self.table, BLOCK_SIZE, np.random.default_rng(derive_seed(self.seed, 1))
            )
        with times.timed("bitmap.build"):
            self.index = build_bitmap_index(self.shuffled, "z")
        self.window_blocks = max(1, self.shuffled.num_blocks // self.windows_per_pass)
        self.windows = -(-self.shuffled.num_blocks // self.window_blocks)
        # The process pool forks before the thread pool exists: forking a
        # process that already has threads is unsafe.
        self.backends = {"serial": SerialBackend()}
        with times.timed("parallel.sharded.warmup"):
            self.backends["sharded"] = ShardedBackend(self.workers, cpu_affinity=AFFINITY)
            self._pass(self.backends["sharded"])  # spawn, publish, warm
        with times.timed("parallel.threads.warmup"):
            self.backends["threads"] = ThreadPoolBackend(self.workers, cpu_affinity=AFFINITY)
            self._pass(self.backends["threads"])
        self.execute(None)  # warm-up sweep, untimed
        return times

    def teardown(self) -> None:
        for backend in self.backends.values():
            backend.close()
        self.backends = {}
        self.table = self.shuffled = self.index = None

    def input_hashes(self) -> dict[str, str]:
        table = self.table
        return {"z": array_hash(table.column("z")), "x": array_hash(table.column("x"))}

    def _count_table(self, name: str) -> tuple[float, np.ndarray]:
        t0 = time.perf_counter_ns()
        counts = self.backends[name].count_table(
            self.shuffled.table, "z", "x", CANDIDATES, GROUPS)
        return (time.perf_counter_ns() - t0) * 1e-6, counts

    def scan_once(self) -> dict[str, float]:
        """The scan here is the serial exact ``count_table``."""
        wall, _ = self._count_table("serial")
        self.scan_samples["fullpass"].append(wall)
        return {"fullpass": wall}

    def baseline(self) -> None:
        """Each backend's exact ``count_table``, which must agree."""
        for name in BACKENDS:
            timed = [self._count_table(name) for _ in range(SCAN_REPEATS)]
            self.count_table_ms[name] = statistics.median(wall for wall, _ in timed)
            if name == "serial":
                self.truth = timed[-1][1]
                self.scan_samples["fullpass"].extend(wall for wall, _ in timed)
            elif not np.array_equal(self.truth, timed[-1][1]):
                self.identity_failures.append(f"count_table: {name} != serial")

    # --------------------------------------------------------------------- ops

    def _engine(self, backend) -> BlockSamplingEngine:
        return BlockSamplingEngine(
            shuffled=self.shuffled, candidate_attribute="z", grouping_attribute="x",
            index=self.index, cost_model=DEFAULT_COST_MODEL, clock=SimulatedClock(),
            policy=ScanAllPolicy(), window_blocks=self.window_blocks, start_block=0,
            backend=backend,
        )

    def _pass(self, backend) -> np.ndarray:
        return self._engine(backend).sample_until(np.full(CANDIDATES, np.inf))

    def sweep(self, index: int) -> list:
        return [None]

    def execute(self, op):
        timings, counts = {}, {}
        for name in BACKENDS:
            t0 = time.perf_counter_ns()
            counts[name] = self._pass(self.backends[name])
            timings[name] = time.perf_counter_ns() - t0
        return timings, counts

    def execute_traced(self, op, recorder):
        timings, counts = {}, {}
        for name in BACKENDS:
            with recorder.span(f"parallel.{name}.pass"):
                t0 = time.perf_counter_ns()
                with recorder.span("sampling.engine_init"):
                    engine = self._engine(TimedBackend(self.backends[name], recorder))
                counts[name] = SamplerProxy(engine, recorder).sample_until(
                    np.full(CANDIDATES, np.inf)
                )
                timings[name] = time.perf_counter_ns() - t0
        return timings, counts

    def verify(self, op, raw, traced: bool) -> OpOut:
        timings, counts = raw
        ok = True
        for name in BACKENDS[1:]:
            if not np.array_equal(counts["serial"], counts[name]):
                ok = False
                self.identity_failures.append(f"pass counts: {name} != serial")
        if not np.array_equal(counts["serial"], self.truth):
            ok = False
            self.identity_failures.append("pass counts != exact count_table")
        self.answers.setdefault("counts", array_hash(counts["serial"]))
        self.pass_ns.setdefault(traced, []).append(timings)
        return OpOut(
            rows=self.rows * len(BACKENDS), ok=ok, key="fullpass",
            exact={
                "sampling.windows": self.windows * len(BACKENDS),
                "sampling.blocks_read": self.shuffled.num_blocks * len(BACKENDS),
                "sampling.rows_delivered": self.rows * len(BACKENDS),
            },
        )

    # ------------------------------------------------------------- per layer

    def unpinned_pass_ms(self) -> dict:
        """Median wall of the same pass on ``ThreadPoolBackend(W)`` and
        ``ShardedBackend(W)`` as a user gets them, without CPU affinity."""
        self.backends["threads"].close()  # no live threads while a pool forks
        medians = {}
        for name, backend_class in (("sharded", ShardedBackend), ("threads", ThreadPoolBackend)):
            backend = backend_class(self.workers)
            try:
                self._pass(backend)  # spawn, publish, warm
                walls = []
                for _ in range(UNPINNED_PASSES):
                    t0 = time.perf_counter_ns()
                    counts = self._pass(backend)
                    walls.append(time.perf_counter_ns() - t0)
            finally:
                backend.close()
            if not np.array_equal(counts, self.truth):
                self.identity_failures.append(f"pass counts: unpinned {name} != serial")
            medians[name] = statistics.median(walls) * 1e-6
        return medians

    def layer_metrics(self, setups, untraced, traced, budget, seconds: float) -> dict:
        last = setups[-1].seconds
        pass_ms = {
            name: statistics.median(t[name] for t in self.pass_ns[False]) * 1e-6
            for name in BACKENDS
        }
        exact = traced.exact
        metrics = {
            "data.generate_s": (last["data.generate"], "s"),
            "storage.shuffle_s": (last["storage.shuffle"], "s"),
            "bitmap.build_s": (last["bitmap.build"], "s"),
            "bitmap.index_mb": (self.index.nbytes / 2**20, "MiB"),
            "core.self_ms": (budget.self_ms_per_op("core.step"), "ms"),
            "sampling.engine_init_ms": (
                budget.self_ms_per_op("sampling.engine_init") / len(BACKENDS), "ms"),
            "sampling.self_ms": (
                budget.self_ms_per_op("sampling.sample_until", "sampling.state"), "ms"),
            "sampling.windows": (exact["sampling.windows"], "count"),
            "sampling.blocks_read": (exact["sampling.blocks_read"], "count"),
            "sampling.rows_delivered": (exact["sampling.rows_delivered"], "count"),
            "parallel.count_blocks_ms": (
                budget.self_ms_per_op("parallel.count_blocks"), "ms"),
            "parallel.count_blocks_calls": (
                budget.calls_per_op("parallel.count_blocks"), "count"),
            "parallel.threads.speedup_vs_serial": (
                pass_ms["serial"] / pass_ms["threads"], "ratio"),
            "parallel.sharded.speedup_vs_serial": (
                pass_ms["serial"] / pass_ms["sharded"], "ratio"),
            "parallel.sharded.overhead_ms_per_window": (
                (pass_ms["sharded"] - pass_ms["serial"] / self.workers) / self.windows,
                "ms"),
            "parallel.threads.warmup_s": (last["parallel.threads.warmup"], "s"),
            "parallel.sharded.warmup_s": (last["parallel.sharded.warmup"], "s"),
            "system.scan_ms": (self.scan_ms("fullpass"), "ms"),
        }
        for name in BACKENDS:
            metrics[f"parallel.{name}.pass_ms"] = (pass_ms[name], "ms")
            metrics[f"parallel.{name}.count_table_ms"] = (self.count_table_ms[name], "ms")
        for name, wall_ms in self.unpinned_pass_ms().items():
            metrics[f"parallel.{name}.unpinned.pass_ms"] = (wall_ms, "ms")
        return metrics
