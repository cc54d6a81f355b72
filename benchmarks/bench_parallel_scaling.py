"""Parallel scaling: threads-vs-sharded-vs-serial speedup by worker count.

Unlike the paper-reproduction benchmarks (which report *simulated* latency
from the cost model), this benchmark measures **real wall-clock time** of
the counting work the parallel backends parallelize: full
uniform-without-replacement passes over a shuffled table, i.e. the gather +
filter + bincount pipeline that dominates sampling cost at scale.  Two
datasets are swept — a 10M-row synthetic built straight from
``repro.data.generator`` and the TAXI evaluation dataset — across worker
counts for **both** parallel backends (``sharded`` process pool over
/dev/shm, ``threads`` in-process executor — its threads overlap in the
gather, ``np.bincount`` holds the GIL), verifying on every run that the
parallel counts are byte-identical to serial.

``--rows-per-call`` measures the crossover instead: one contiguous
``count_blocks`` per call, at each size, on each backend — the rows a
*call* needs before a fan-out beats counting inline.

Results go to ``benchmarks/results/parallel_scaling.json`` (including each
run's backend descriptor) and a text table.

Speedup requires physical cores: on a single-core machine the sharded
backend can only add IPC overhead, and the report will say so.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --tiny   # CI smoke
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \\
        --rows-per-call 65536,131072,262144,524288,1048576,2097152,4194304 --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import numpy as np

from common import RESULTS_DIR, format_table, save_report
from repro.bitmap.builder import build_bitmap_index
from repro.data import load_dataset, sizes_from_weights, zipf_weights
from repro.data.generator import conditional_column, jittered
from repro.parallel import (
    CountSource,
    ExecutionBackend,
    SerialBackend,
    ShardedBackend,
    ThreadPoolBackend,
)
from repro.parallel.backend import DEFAULT_MIN_SHARD_ROWS
from repro.sampling.engine import BlockSamplingEngine
from repro.sampling.policies import ScanAllPolicy
from repro.storage.cost_model import DEFAULT_COST_MODEL
from repro.storage.schema import CategoricalAttribute, Schema
from repro.storage.shuffle import shuffle_table
from repro.storage.table import ColumnTable
from repro.system.clock import SimulatedClock

GENERATOR_CANDIDATES = 64
GENERATOR_GROUPS = 24


def generator_table(rows: int, seed: int) -> ColumnTable:
    """A synthetic (z, x) table built directly from the generator helpers."""
    rng = np.random.default_rng(seed)
    sizes = sizes_from_weights(
        zipf_weights(GENERATOR_CANDIDATES, alpha=1.0), rows, rng
    )
    base = np.full(GENERATOR_GROUPS, 1.0 / GENERATOR_GROUPS)
    distributions = np.stack(
        [jittered(base, concentration=50.0, rng=rng) for _ in range(sizes.size)]
    )
    z = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    x = conditional_column(sizes, distributions, rng)
    schema = Schema(
        (
            CategoricalAttribute(
                "z", tuple(f"Z{i:03d}" for i in range(GENERATOR_CANDIDATES))
            ),
            CategoricalAttribute(
                "x", tuple(f"X{i:03d}" for i in range(GENERATOR_GROUPS))
            ),
        )
    )
    return ColumnTable(schema, {"z": z, "x": x})


def counting_pass(
    shuffled, z_name: str, x_name: str, index, window_blocks: int,
    backend: ExecutionBackend,
) -> tuple[float, np.ndarray]:
    """One full sampling pass (every row delivered); returns (seconds, counts)."""
    engine = BlockSamplingEngine(
        shuffled=shuffled,
        candidate_attribute=z_name,
        grouping_attribute=x_name,
        index=index,
        cost_model=DEFAULT_COST_MODEL,
        clock=SimulatedClock(),
        policy=ScanAllPolicy(),
        window_blocks=window_blocks,
        start_block=0,
        backend=backend,
    )
    budgets = np.full(engine.num_candidates, np.inf)
    start = time.perf_counter()
    counts = engine.sample_until(budgets)
    return time.perf_counter() - start, counts


def bench_dataset(
    name: str,
    table: ColumnTable,
    z_name: str,
    x_name: str,
    args: argparse.Namespace,
) -> dict:
    """Sweep worker counts on one dataset; verify identity; return results."""
    shuffled = shuffle_table(table, args.block_size, np.random.default_rng(11))
    index = build_bitmap_index(shuffled, z_name)
    window_blocks = max(1, shuffled.num_blocks // args.windows_per_pass)

    def measure(backend: ExecutionBackend) -> tuple[float, np.ndarray]:
        seconds, counts = [], None
        for _ in range(args.passes):
            elapsed, counts = counting_pass(
                shuffled, z_name, x_name, index, window_blocks, backend
            )
            seconds.append(elapsed)
        return min(seconds), counts

    serial_s, serial_counts = measure(SerialBackend())
    factories = {"sharded": ShardedBackend, "threads": ThreadPoolBackend}
    runs = []
    for workers in args.workers:
        for backend_name, factory in factories.items():
            backend = factory(workers, min_shard_rows=args.min_shard_rows)
            try:
                parallel_s, parallel_counts = measure(backend)
                identical = bool(np.array_equal(serial_counts, parallel_counts))
                runs.append(
                    {
                        "backend_name": backend_name,
                        "workers": workers,
                        "seconds": parallel_s,
                        "speedup": (
                            serial_s / parallel_s if parallel_s > 0 else float("inf")
                        ),
                        "identical_to_serial": identical,
                        "backend": backend.describe(),
                    }
                )
            finally:
                backend.close()
    return {
        "dataset": name,
        "rows": table.num_rows,
        "blocks": shuffled.num_blocks,
        "block_size": args.block_size,
        "passes": args.passes,
        "serial_seconds": serial_s,
        "runs": runs,
    }


def bench_rows_per_call(sizes: list[int], args: argparse.Namespace) -> int:
    """The rows-per-call crossover: median wall of one contiguous
    ``count_blocks`` at each size on serial / threads / sharded.

    The table holds twice the largest call and successive calls start at
    successive offsets, so a small call does not re-read what the last one
    left in cache.  Workers are pinned one per CPU, as the end-to-end
    benchmark's ``fullpass_backends`` pins them.
    """
    table = generator_table(2 * max(sizes), seed=7)
    shuffled = shuffle_table(table, args.block_size, np.random.default_rng(11))
    source = CountSource(
        shuffled=shuffled, z_name="z", x_name="x",
        num_candidates=GENERATOR_CANDIDATES, num_groups=GENERATOR_GROUPS,
        row_filter=None,
    )
    repeats = max(args.passes, 15)

    def median_ms(backend: ExecutionBackend, size: int) -> tuple[float, np.ndarray]:
        blocks_per_call = max(1, size // args.block_size)
        offsets = shuffled.num_blocks - blocks_per_call
        walls, counts = [], None
        for i in range(repeats + 1):  # the first call warms pool and segments
            first = (i * blocks_per_call) % offsets
            blocks = np.arange(first, first + blocks_per_call, dtype=np.int64)
            start = time.perf_counter()
            counts = backend.count_blocks(source, blocks)
            walls.append((time.perf_counter() - start) * 1e3)
        return statistics.median(walls[1:]), counts

    serial = SerialBackend()
    serial_ms, reference = {}, {}
    for size in sizes:
        serial_ms[size], reference[size] = median_ms(serial, size)
    runs, rows_out, identical = [], [], True
    kwargs = {"cpu_affinity": "spread"}
    if args.min_shard_rows is not None:
        kwargs["min_shard_rows"] = args.min_shard_rows
    for workers in args.workers:
        parallel_ms = {}
        # The process pool forks before the thread pool has threads.
        for name, factory in (("sharded", ShardedBackend), ("threads", ThreadPoolBackend)):
            with factory(workers, **kwargs) as backend:
                for size in sizes:
                    wall, counts = median_ms(backend, size)
                    identical &= bool(np.array_equal(counts, reference[size]))
                    parallel_ms[name, size] = wall
        for size in sizes:
            serial_wall = serial_ms[size]
            threads, sharded = parallel_ms["threads", size], parallel_ms["sharded", size]
            ns_per_row = serial_wall * 1e6 / size
            runs.append({
                "workers": workers, "rows_per_call": size,
                "serial_ms": serial_wall, "threads_ms": threads,
                "sharded_ms": sharded, "serial_ns_per_row": ns_per_row,
            })
            rows_out.append([
                str(workers), f"{size:,}", f"{serial_wall:.2f}",
                f"{threads:.2f}", f"{sharded:.2f}",
                f"{serial_wall / threads:.2f}x", f"{serial_wall / sharded:.2f}x",
                f"{ns_per_row:.2f}",
            ])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "parallel_rows_per_call.json").write_text(json.dumps({
        "cpu_count": os.cpu_count(), "table_rows": table.num_rows,
        "block_size": args.block_size, "repeats": repeats, "runs": runs,
    }, indent=2) + "\n")
    save_report("parallel_rows_per_call", format_table(
        f"Rows per call — median ms of one contiguous count_blocks, "
        f"{repeats} calls a cell (cpu_count={os.cpu_count()})",
        ["W", "rows/call", "serial", "threads", "sharded",
         "threads vs serial", "sharded vs serial", "serial ns/row"],
        rows_out,
    ))
    if not identical:
        print("ERROR: parallel counts diverged from serial")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=10_000_000,
                        help="generator dataset rows (default 10M)")
    parser.add_argument("--taxi-rows", type=int, default=None,
                        help="taxi dataset rows (default min(rows, 2M))")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        help="worker counts to sweep")
    parser.add_argument("--block-size", type=int, default=4096,
                        help="tuples per block (larger than the simulation "
                             "default: real counting throughput, not block "
                             "mechanics, is under test)")
    parser.add_argument("--passes", type=int, default=3,
                        help="passes per configuration (best-of)")
    parser.add_argument("--windows-per-pass", type=int, default=8,
                        help="windows one pass is split into")
    parser.add_argument("--min-shard-rows", type=int, default=None,
                        help="override the sharded backend's inline-fallback "
                             "threshold")
    parser.add_argument("--max-concurrent-steps", type=int, default=1,
                        help="recorded in the JSON schema: the serving-layer "
                             "step-slot count these backend numbers pair "
                             "with (see bench_serving.py)")
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke mode: small data, forced pool usage")
    parser.add_argument("--rows-per-call", default=None, metavar="N,N,...",
                        help="measure the rows-per-call crossover instead: "
                             "one contiguous count_blocks of each size on "
                             "each backend at each --workers (median of "
                             "max(--passes, 15) calls)")
    args = parser.parse_args(argv)

    if args.rows_per_call is not None:
        if args.tiny:
            parser.error("--rows-per-call and --tiny are separate modes")
        return bench_rows_per_call(
            [int(size) for size in args.rows_per_call.split(",")], args
        )

    if args.tiny:
        args.rows = 40_000
        args.taxi_rows = 350_000  # the TAXI builder's minimum scale
        args.workers = [1, 2]
        args.block_size = 512
        args.passes = 1
        # Force every window through the pool so CI exercises the real path.
        args.min_shard_rows = 0
    if args.min_shard_rows is None:
        args.min_shard_rows = DEFAULT_MIN_SHARD_ROWS
    if args.taxi_rows is None:
        args.taxi_rows = min(args.rows, 2_000_000)

    datasets = [
        ("generator", generator_table(args.rows, seed=7), "z", "x"),
        ("taxi", load_dataset("taxi", rows=args.taxi_rows, seed=7).table,
         "location", "hour_of_day"),
    ]

    results = {
        "cpu_count": os.cpu_count(),
        "tiny": args.tiny,
        "max_concurrent_steps": args.max_concurrent_steps,
        "datasets": [],
    }
    rows_out = []
    all_identical = True
    for name, table, z_name, x_name in datasets:
        entry = bench_dataset(name, table, z_name, x_name, args)
        results["datasets"].append(entry)
        rows_out.append(
            [name, f"{entry['rows']:,}", "serial", f"{entry['serial_seconds']:.3f}",
             "1.00x", "-"]
        )
        for run in entry["runs"]:
            all_identical &= run["identical_to_serial"]
            rows_out.append(
                [name, f"{entry['rows']:,}",
                 f"{run['backend_name']}({run['workers']}w)",
                 f"{run['seconds']:.3f}", f"{run['speedup']:.2f}x",
                 "yes" if run["identical_to_serial"] else "NO"]
            )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "parallel_scaling.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    note = (
        f"cpu_count={os.cpu_count()}"
        + ("  (single core: sharding can only add overhead here)"
           if (os.cpu_count() or 1) < 2 else "")
    )
    table_text = format_table(
        f"Parallel scaling — wall-clock counting passes ({note})",
        ["dataset", "rows", "backend", "best s", "speedup", "identical"],
        rows_out,
    )
    save_report("parallel_scaling", table_text)
    if not all_identical:
        print("ERROR: parallel counts diverged from serial")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
