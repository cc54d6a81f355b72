"""What the workloads share: seed derivation, query preparation with
per-layer set-up timings, the scan baseline, and the closed-loop driver."""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.bitmap.builder import build_bitmap_index
from repro.core import HistSimConfig
from repro.core.guarantees import true_top_k
from repro.core.target import resolve_target
from repro.query.executor import exact_candidate_counts
from repro.query.predicate import TruePredicate
from repro.storage.cost_model import DEFAULT_COST_MODEL
from repro.system import PreparedQuery, run_approach
from repro.system.clock import SimulatedClock
from repro.system.fastmatch import make_engine

from ..harness import HostProbe, OpRecord, RoundClock, gc_quiet, reduce_rounds

#: The paper's Section 5.2 parameters at this repo's scale (ε inside the
#: Fig. 8 sweep; see benchmarks/common.py for why not the 0.04 headline).
EPSILON = 0.1
DELTA = 0.01
SIGMA = 0.0008
STAGE1_SAMPLES = 50_000

#: The datasets are fixtures, like the paper's real ones: generated from
#: this seed whatever ``--seed`` says.  ``--seed`` drives what a run draws —
#: the row order (shuffle), the sampling seeds, the op sequence, the
#: arrivals — so seeds differ in how the work is sampled, not in how hard
#: the questions are.  (With per-seed data the open-loop workload's
#: utilisation moved by +-8% from seed to seed, and queueing amplified that
#: into a p95 spread as wide as the regression bound.)
DATA_SEED = 7

SCAN_REPEATS = 5

#: A closed loop times the host probe before every this many ops (2.5 ms
#: next to four ops of 20-60 ms): a round's slow-down is then a median of
#: twenty-five samples or more on every workload.
PROBE_EVERY_OPS = 4


def derive_seed(seed: int, *path: int) -> int:
    """A 31-bit child seed; the same ``(seed, path)`` gives the same value."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1)[0]
    return int(state & 0x7FFFFFFF)


def config_for(k: int) -> HistSimConfig:
    return HistSimConfig(
        k=k, epsilon=EPSILON, delta=DELTA, sigma=SIGMA, stage1_samples=STAGE1_SAMPLES
    )


class Workload:
    """What run.py asks of a workload, with the closed-loop defaults."""

    name = ""
    #: Traced run: share of --seconds for the untraced and the traced pass;
    #: the rest pays for the kernel microbench and the program-tracer pass.
    untraced_share = 0.35
    traced_share = 0.35
    #: Sweeps of the measured pass after which peak memory is read (a fixed
    #: amount of work, whatever the host's speed).
    memory_sweeps = 1
    #: A closed loop re-times the scan baseline every this many sweeps, so an
    #: op is compared with scans taken in its own round: the host's speed
    #: changes by a third for a minute at a time, and a ratio of two timings
    #: taken apart would mostly measure that.  Set so that a round sees each
    #: query's scan half a dozen times or more.
    scan_every = 3
    #: The run's :class:`~e2elib.harness.MemoryWatch`; run.py sets it.
    memory = None

    def __init__(self) -> None:
        self.answers: dict[str, str] = {}  # op key -> answer fingerprint
        self.identity_failures: list[str] = []
        self.scan_samples: dict[str, list[float]] = defaultdict(list)  # wall ms
        self.scan_sim_ns: dict[str, float] = {}

    def scan_items(self) -> dict:
        """``{key: (prepared query, config)}`` — what an op's exact serial
        Scan baseline runs on."""
        raise NotImplementedError

    def scan_one(self, key: str, prepared, config) -> float:
        """Time the exact Scan of one item, from outside: wall ms."""
        t0 = time.perf_counter_ns()
        run_approach(prepared, "scan", config, seed=0)
        wall = (time.perf_counter_ns() - t0) * 1e-6
        self.scan_samples[key].append(wall)
        return wall

    def scan_once(self) -> dict[str, float]:
        """Time the exact Scan of every item once."""
        return {key: self.scan_one(key, prepared, config)
                for key, (prepared, config) in self.scan_items().items()}

    def baseline(self) -> None:
        """Check scan top-k == ground-truth top-k, keep the scan's simulated
        time, and take the first wall timings."""
        for key, (prepared, config) in self.scan_items().items():
            report = run_approach(prepared, "scan", config, seed=0)
            self.scan_sim_ns[key] = report.elapsed_ns
            truth = true_top_k(
                prepared.exact_counts, prepared.target, config.k, config.sigma)
            if tuple(int(i) for i in truth) != report.result.matching:
                self.identity_failures.append(f"{key}: scan top-k != ground-truth top-k")
        for _ in range(SCAN_REPEATS):
            self.scan_once()

    def scan_ms(self, key: str) -> float:
        return statistics.median(self.scan_samples[key])

    def mean_scan_ms(self) -> float:
        return statistics.fmean(self.scan_ms(key) for key in self.scan_samples)

    def run(self, seconds: float, recorder=None) -> "Pass":
        return closed_loop(self, seconds, recorder)

    def end_to_end(self, result: "Pass", slowdown: list[float] | None) -> dict:
        """The pass's end-to-end metrics at the reference host's speed
        (``slowdown=result.slowdown``) or as wall time (``None``)."""
        return reduce_rounds(result.records, slowdown=slowdown)

    def warnings(self) -> list[str]:
        return []


def query_layer_metrics(workload: Workload, exact: dict, budget) -> dict:
    """The per-layer metrics every query-running workload derives the same
    way: exact effort counts of the first sweep, and self times of the
    spans the proxies record (``system.finish`` = report assembly + audit)."""
    read, skipped = exact["sampling.blocks_read"], exact["sampling.blocks_skipped"]
    metrics = {
        "bitmap.probes": (exact["bitmap.probes"], "count"),
        "core.self_ms": (budget.self_ms_per_op("core.step"), "ms"),
        "core.steps": (exact["core.steps"], "count"),
        "core.stage2_rounds": (exact["core.stage2_rounds"], "count"),
        "sampling.self_ms": (
            budget.self_ms_per_op(
                "sampling.sample_uniform", "sampling.sample_until", "sampling.state"
            ), "ms"),
        "sampling.policy_select_ms": (
            budget.self_ms_per_op("sampling.policy_select"), "ms"),
        "sampling.blocks_read": (read, "count"),
        "sampling.blocks_skipped": (skipped, "count"),
        "sampling.skip_ratio": (skipped / (read + skipped), "ratio"),
        "sampling.rows_delivered": (exact["sampling.rows_delivered"], "count"),
        "parallel.count_blocks_ms": (
            budget.self_ms_per_op("parallel.count_blocks"), "ms"),
        "parallel.count_blocks_calls": (
            budget.calls_per_op("parallel.count_blocks"), "count"),
        "system.scan_ms": (workload.mean_scan_ms(), "ms"),
        "system.audit_ms": (budget.self_ms_per_op("system.finish"), "ms"),
    }
    if "log_sim_speedup" in exact:  # the op ran on a simulated clock
        metrics["storage.sim_latency_ms"] = (exact["storage.sim_latency_ms"], "ms")
        metrics["storage.sim_speedup_vs_scan"] = (
            float(np.exp(exact["log_sim_speedup"])), "ratio")
    return metrics


def engine_init_ms(items, kernel: str = "auto") -> float:
    """Mean wall ms of constructing the sampling engine, timed directly,
    over ``(prepared query, config)`` pairs."""
    walls = []
    for prepared, config in items:
        t0 = time.perf_counter()
        make_engine(prepared, "fastmatch", config, DEFAULT_COST_MODEL,
                    SimulatedClock(), np.random.default_rng(0), kernel=kernel)
        walls.append((time.perf_counter() - t0) * 1e3)
    return statistics.fmean(walls)


class LayerTimes:
    """Seconds spent per set-up layer during one set-up."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    def timed(self, layer: str):
        return _Timed(self, layer)


class _Timed:
    def __init__(self, owner: LayerTimes, layer: str) -> None:
        self.owner, self.layer = owner, layer

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc_info):
        self.owner.seconds[self.layer] += time.perf_counter() - self.t0
        return False


def prepare_on(shuffled, query, times: LayerTimes, index_cache: dict) -> PreparedQuery:
    """What ``PreparedQuery.prepare`` does after its shuffle — index, exact
    ground truth, target, row filter — with each layer timed and the index
    shared between queries over one candidate attribute.  No process-wide
    cache is involved, so a repeated set-up really repeats the work."""
    key = (id(shuffled), query.candidate_attribute)
    if key not in index_cache:
        with times.timed("bitmap.build"):
            index_cache[key] = build_bitmap_index(shuffled, query.candidate_attribute)
    with times.timed("query.ground_truth"):
        exact = exact_candidate_counts(shuffled.table, query)
    target = resolve_target(query.target, exact)
    row_filter = (
        None if isinstance(query.predicate, TruePredicate)
        else query.predicate.mask(shuffled.table)
    )
    return PreparedQuery(
        query=query, shuffled=shuffled, index=index_cache[key], exact_counts=exact,
        target=target, row_filter=row_filter,
    )


@dataclass
class OpOut:
    """What executing one op hands back to the driver."""

    rows: int
    ok: bool
    key: str
    #: Counts that must repeat bit-for-bit for one seed (summed over the
    #: first sweep and reported per op).
    exact: dict = field(default_factory=dict)


@dataclass
class Pass:
    """One measured pass over a workload."""

    records: list
    exact: dict  # name -> per-op mean over the first sweep
    first_sweep_ops: int
    slowdown: list  # per round: the host probe's time / its reference time


def closed_loop(workload, seconds: float, recorder=None) -> Pass:
    """One client: the next op starts when the previous one returned.

    Whole sweeps are run until ``seconds`` are used up, so every round sees
    the same mix of ops; what the benchmark does between ops (checks,
    fingerprints) is outside every op's latency.
    """
    records: list[OpRecord] = []
    exact: dict = defaultdict(float)
    round_scans: dict = defaultdict(list)
    first_sweep_ops = 0
    clock = RoundClock(seconds)
    probe = HostProbe()
    sweep = op_id = 0
    with gc_quiet():
        while clock.next_sweep():
            if sweep % workload.scan_every == 0:
                for key, wall in workload.scan_once().items():
                    round_scans[(clock.round, key)].append(wall)
            for op in workload.sweep(sweep):
                if op_id % PROBE_EVERY_OPS == 0:
                    probe.time(clock.round)
                t0 = time.perf_counter_ns()
                if recorder is None:
                    raw = workload.execute(op)
                else:
                    with recorder.root(op_id):
                        raw = workload.execute_traced(op, recorder)
                latency = time.perf_counter_ns() - t0
                out: OpOut = workload.verify(op, raw, traced=recorder is not None)
                records.append(OpRecord(
                    clock.round, latency, out.rows, 0.0, out.ok, out.key,
                    "" if out.ok else "audit",
                ))
                if sweep == 0:
                    first_sweep_ops += 1
                    for name, value in out.exact.items():
                        exact[name] += value
                op_id += 1
            sweep += 1
            if sweep == workload.memory_sweeps and workload.memory is not None:
                workload.memory.mark_rss()
            gc.collect()  # between ops, so garbage never piles up over a round
    for record in records:
        in_round = round_scans.get((record.round, record.key))
        record.scan_ms = (
            statistics.median(in_round) if in_round else workload.scan_ms(record.key))
    per_op = {name: value / first_sweep_ops for name, value in exact.items()}
    return Pass(records, per_op, first_sweep_ops, probe.slowdown())
