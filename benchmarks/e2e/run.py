"""The repo's benchmark of record: wall-clock, end to end, traced from outside.

    python3 benchmarks/e2e/run.py --workload table4_oneshot --seed 7
    python3 benchmarks/e2e/run.py --workload all --quick --out set.json
    python3 benchmarks/e2e/run.py --workload serving_openloop --trace 1
    python3 benchmarks/e2e/run.py compare A.json B.json

One run generates its inputs from ``--seed``, sets the workload up (several
times over; ``setup_s`` is the median), measures for ``--seconds`` with
tracing off, checks every answer, and prints every metric by name with its
unit (end-to-end timings divided by the host's slow-down in their round,
see ``harness.HostProbe``); the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` instead
runs an untraced and a separately timed traced pass and prints the
per-layer metrics.  Exit status is 0 only when every check passed.

See README.md beside this file for the workloads, the metrics and why.
"""

from __future__ import annotations

import time

PROCESS_START_NS = time.perf_counter_ns()  # before the heavy imports: they are set-up

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SCHEMA = 1
DEFAULT_SECONDS = 20.0
QUICK_SECONDS = 3.0
SETUP_REPEATS = 3

EXIT_INCORRECT = 1
EXIT_STALE_SHM = 2
EXIT_PINS = 3
EXIT_NO_PROGRAM = 4


def build_parser() -> argparse.ArgumentParser:
    from e2elib.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; the default seed is checked against pins.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time (default {DEFAULT_SECONDS:g}, "
                             f"{QUICK_SECONDS:g} with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (<= 200k rows): plumbing check, not a measurement")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result document here")
    parser.add_argument("--update-pins", action="store_true",
                        help="record this run's inputs and answers in pins.json")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --workload all: run the four workloads this many "
                             "times over, with seeds seed, seed+1, ...")
    return parser


def make_workload(name: str, seed: int, quick: bool):
    from e2elib.workloads.fullpass_backends import FullpassBackends
    from e2elib.workloads.serving_openloop import ServingOpenloop
    from e2elib.workloads.session_cache_mix import SessionCacheMix
    from e2elib.workloads.table4_oneshot import Table4Oneshot

    classes = {cls.name: cls for cls in (
        Table4Oneshot, FullpassBackends, SessionCacheMix, ServingOpenloop)}
    return classes[name](seed, quick)


def run_setups(workload, repeats: int, memory) -> tuple[list, list[float]]:
    """Set the workload up ``repeats`` times; the last one is kept."""
    setups, seconds = [], []
    for index in range(repeats):
        if index:
            workload.teardown()
            gc.collect()
        t0 = time.perf_counter()
        setups.append(workload.setup())
        seconds.append(time.perf_counter() - t0)
        memory.sample()
    return setups, seconds


def measure_end_to_end(workload, args, memory, import_s: float):
    from e2elib.harness import Metric, median_metric

    setups, setup_seconds = run_setups(workload, SETUP_REPEATS, memory)
    workload.baseline()
    inputs = workload.input_hashes()
    result = workload.run(args.seconds)
    memory.sample()
    metrics = workload.end_to_end(result, result.slowdown)
    wall = workload.end_to_end(result, None)  # as measured, for the document
    # Process start to the first timed op: the imports, then one set-up.
    setup = median_metric([import_s + s for s in setup_seconds], "s")
    metrics = {"setup_s": setup, **metrics}
    warnings = workload.warnings()
    workload.teardown()
    metrics["peak_rss_mb"] = Metric(memory.peak_rss_mb(), "MiB")
    extra = {
        "host_slowdown_by_round": result.slowdown,
        "wall_metrics": {name: metric.to_json() for name, metric in wall.items()},
    }
    return metrics, result.records, inputs, warnings, extra


def measure_per_layer(workload, args, memory, import_s: float):
    from e2elib import kernelbench, spans
    from e2elib.harness import Metric, percentile, shm_segments
    from e2elib.metrics import PER_LAYER

    setups, _ = run_setups(workload, 1, memory)
    workload.baseline()
    inputs = workload.input_hashes()
    recorder = spans.SpanRecorder()
    untraced = workload.run(args.seconds * workload.untraced_share)
    traced = workload.run(args.seconds * workload.traced_share, recorder)
    budget = spans.budget(recorder.spans)
    layer = workload.layer_metrics(setups, untraced, traced, budget, args.seconds)
    kernel_metrics, kernel_failures = kernelbench.run(args.seed)
    layer.update(kernel_metrics)
    workload.identity_failures.extend(kernel_failures)
    records = untraced.records + traced.records

    def p50(result):
        return percentile([r.latency_ns for r in result.records], 50)

    layer["host.slowdown"] = (statistics.median(untraced.slowdown), "ratio")
    layer["bench.trace_overhead_ratio"] = (p50(traced) / p50(untraced), "ratio")
    layer["bench.unattributed_share"] = (budget.unattributed_share, "ratio")
    layer["bench.failed_op_rate"] = (
        sum(not r.ok for r in records) / len(records), "ratio")
    warnings = workload.warnings()
    workload.teardown()
    layer["parallel.shm_leaked_segments"] = (len(shm_segments(own_only=True)), "count")

    problems = spans.check_nesting(recorder.spans)
    if problems:
        workload.identity_failures.append(f"span tree: {problems[0]}")
    if budget.worst_residual > 0.02:
        workload.identity_failures.append(
            f"layer self times miss an op's wall by {budget.worst_residual:.1%}")
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write_jsonl(OUT_DIR / f"trace-{workload.name}.jsonl")

    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        value, got_unit = layer.pop(name, (0.0, unit))
        if got_unit != unit:
            raise AssertionError(f"{name}: unit {got_unit!r}, declared {unit!r}")
        metrics[name] = Metric(float(value), unit)
    if layer:
        raise AssertionError(f"undeclared per-layer metrics: {sorted(layer)}")
    extra = {
        "layer_self_ms_per_op": {
            layer_name: ns / max(budget.ops, 1) * 1e-6
            for layer_name, ns in sorted(budget.by_layer().items())
        },
        "span_self_ms_per_op": {
            name: ns / max(budget.ops, 1) * 1e-6
            for name, ns in sorted(budget.self_ns.items())
        },
        "traced_ops": budget.ops,
        "traced_op_wall_ms": budget.wall_ns / max(budget.ops, 1) * 1e-6,
        "budget_worst_residual": budget.worst_residual,
    }
    return metrics, records, inputs, warnings, extra


def run_one(args) -> int:
    from e2elib import pins
    from e2elib.harness import (
        DELTA, MemoryWatch, host_block, shm_segments, speedup_by_key,
    )

    host = host_block()
    stale = shm_segments()
    if stale:
        print(f"error: {len(stale)} repro-* shared-memory segment(s) from another "
              f"run are in /dev/shm (e.g. {stale[0].name}); a live run would contend "
              "with this one and a dead one's leak would be charged to it. Remove "
              "them (rm /dev/shm/repro-*) once no other run is live.", file=sys.stderr)
        return EXIT_STALE_SHM

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is not at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM

    workload = make_workload(args.workload, args.seed, args.quick)
    import_s = (time.perf_counter_ns() - PROCESS_START_NS) * 1e-9
    workload.memory = memory = MemoryWatch()
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        metrics, records, inputs, warnings, extra = measure(workload, args, memory, import_s)
    finally:
        workload.teardown()  # again after a failure: pools, sessions and the door close

    mode = "quick" if args.quick else "full"
    answers = workload.answers if args.seed == pins.DEFAULT_SEED else None
    if args.update_pins:
        pins.update(mode, workload.name, inputs, answers or {})
        pin_status = "recorded"
    else:
        try:
            pin_status = pins.check(mode, workload.name, inputs, answers)
        except pins.PinMismatch as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_PINS

    attempted = len(records)
    failed = sum(not r.ok for r in records)
    failures = sorted(set(workload.identity_failures))
    correct = not failures and failed / attempted <= DELTA
    document = {
        "schema": SCHEMA,
        "workload": workload.name,
        "seed": args.seed,
        "quick": args.quick,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "identity_failures": failures,
        "failed_ops": [f"{r.key}: {r.note}" for r in records if not r.ok][:20],
        "speedup_vs_scan_by_key": speedup_by_key(records),
        "pins": pin_status,
        "warnings": warnings,
        "metrics": {name: metric.to_json() for name, metric in metrics.items()},
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    default_out = OUT_DIR / f"result-{workload.name}{suffix}.json"
    for path in filter(None, (default_out, args.out)):
        path.write_text(json.dumps(document, indent=1) + "\n")

    print_table(document)
    for failure in failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in metrics.items()
        },
    }))
    return 0 if correct else EXIT_INCORRECT


def print_table(document: dict) -> None:
    host = document["host"]
    print(f"# {document['workload']} seed={document['seed']} "
          f"{'quick ' if document['quick'] else ''}trace={document['trace']} "
          f"seconds={document['seconds']:g} | {host['nproc']} x {host['cpu_model']} "
          f"load {host['loadavg_at_start']} | pins: {document['pins']}")
    for name, metric in document["metrics"].items():
        line = f"{name:<52} {metric['value']:>16.6g} {metric['unit']:<7} n={metric['n']}"
        if "q1" in metric:
            line += f"  q1={metric['q1']:.6g} q3={metric['q3']:.6g}"
        if "rounds" in metric:
            line += "  rounds=" + "/".join(f"{v:.5g}" for v in metric["rounds"])
        print(line)
    print(f"# attempted={document['attempted']} failed={document['failed']} "
          f"correct={document['correct']}")


def run_all(args) -> int:
    """Every workload, each in a fresh process (set-up time and peak
    memory are per process), merged into one list document.  ``--repeat``
    goes round the four workloads several times, a new seed each round, so
    a side of ``compare`` can be a median over runs."""
    from e2elib.metrics import WORKLOADS

    documents, status = [], 0
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for round_index, workload in itertools.product(range(args.repeat), WORKLOADS):
            out = Path(scratch) / f"{workload}-{round_index}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed + round_index), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(out),
            ]
            if args.quick:
                command.append("--quick")
            if args.update_pins:
                command.append("--update-pins")
            code = subprocess.run(command).returncode
            status = status or code
            if out.exists():
                documents.append(json.loads(out.read_text()))
    if args.out is not None:
        args.out.write_text(json.dumps(documents, indent=1) + "\n")
    return status


def main(argv: list[str]) -> int:
    """Whatever the way out, no process this one started is left running."""
    from e2elib.harness import adopt_orphans, stop_child_processes

    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return dispatch(argv)
    finally:
        gc.collect()  # a dropped shared-memory store unlinks now, not after the tracker
        stop_child_processes()


def dispatch(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from e2elib.compare import compare

        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    args = build_parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
