"""Command-line interface: run Table 3 workload queries end to end.

Single query (prints the run report and ASCII visualizations):

    python -m repro --query flights-q1 --approach fastmatch --rows 1000000
    python -m repro --list

Multi-query batch (one MatchSession per dataset; prepared artifacts are
shared across queries and execution is interleaved on one simulated clock):

    python -m repro batch --queries flights-q1 flights-q3 flights-q4

Online serving through the front door — admission control, a scheduling
policy (including feasibility-aware ``edf-f``), per-query deadlines with
ε-relaxed partial answers, and an open-loop trace replay mode.  All
datasets in play are served *multi-tenant* through one
``SessionRegistry`` behind a single front door (one shared clock, one
worker pool), and ``--datasets`` pre-loads tenants explicitly:

    python -m repro serve --queries taxi-q1 taxi-q2 --repeat 4 \\
        --policy edf --deadline-ms 50 --max-queue 8
    python -m repro serve --datasets flights,taxi --policy edf-f \\
        --deadline-ms 50
    python -m repro serve --trace arrivals.jsonl --policy cost
    python -m repro serve --datasets flights,taxi --async

``--async`` drives the same requests through the asyncio
``AsyncFrontDoor`` (one scheduler task, awaitable handles) instead of the
synchronous open-loop replay.

A trace file holds one JSON object per line:
``{"query": "flights-q1", "arrival_ms": 12.5, "deadline_ms": 40}``
(optional keys: ``approach``, ``seed``, ``on_deadline``).

Parallel execution fans block counts and the exact Scan/ground-truth
passes out to workers once a count reaches about a million rows (smaller
ones run inline, as on serial), with byte-identical results.  Both worker
backends share one fan-out and differ only in what carries a shard:
``--backend sharded --workers N`` a persistent pool of shared-memory
worker processes, ``--backend threads --workers N`` an in-process thread
pool (no fork, no /dev/shm; the gather overlaps across threads,
``np.bincount`` holds the GIL).  Workers are left unpinned; library
callers can pin them through a backend's constructor (``cpu_affinity=``).
Online serving
can additionally run steps of different requests concurrently
(``serve --async --max-concurrent-steps M``):

    python -m repro --query taxi-q1 --backend sharded --workers 4
    python -m repro serve --queries taxi-q1 taxi-q2 --backend threads \\
        --async --max-concurrent-steps 4
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core.config import HistSimConfig
from .data import QUERY_NAMES, load_dataset, prepare_workload, workload_query
from .data.registry import dataset_builders
from .obs import (
    ProfileSnapshot,
    Profiler,
    StatsExporter,
    TraceReader,
    TraceSchemaError,
    TraceWriter,
    Tracer,
    WallProfiler,
    summarize_records,
)
from .parallel import BACKENDS, KERNEL_SPECS, WORKER_BACKENDS, make_backend
from .serving import POLICIES, AsyncFrontDoor, FrontDoor, QueryRequest
from .system import APPROACHES, MatchSession, SessionRegistry, run_approach
from .system.visualize import render_result

__all__ = ["build_parser", "main"]


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if not parsed > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {parsed}")
    return parsed


def _config(args: argparse.Namespace, query) -> HistSimConfig:
    """The run configuration every subcommand builds from its flags: the
    query's own k unless ``--k`` overrides it, and a stage-1 sample of a
    twentieth of the rows, capped at 50,000."""
    return HistSimConfig(
        k=args.k if args.k is not None else query.k,
        epsilon=args.epsilon, delta=args.delta, sigma=args.sigma,
        stage1_samples=min(50_000, max(1, args.rows // 20)),
    )


def resolve_backend_args(args: argparse.Namespace) -> tuple[str, int | None]:
    """Normalize ``(--backend, --workers)`` — the one backend-spec rule.

    Every subcommand (single run, batch, serve, serve --async) routes its
    backend choice through here: worker-carrying backends (``sharded``,
    ``threads``) keep ``--workers``; ``serial`` with it is
    ignored-with-warning rather than silently accepted (or fatally
    rejected) — scripted callers flipping ``--backend`` should not crash,
    but must be told their parallelism knob did nothing.
    """
    backend = getattr(args, "backend", "serial")
    workers = getattr(args, "workers", None)
    if workers is not None and backend not in WORKER_BACKENDS:
        print(
            f"warning: --workers {workers} is ignored with --backend {backend}",
            file=sys.stderr,
        )
        workers = None
    return backend, workers


def _add_batch_arguments(sub: argparse.ArgumentParser, queries_required: bool = True) -> None:
    sub.add_argument(
        "--queries", nargs="+", choices=QUERY_NAMES, required=queries_required,
        help="Table 3 queries to serve concurrently",
    )
    # Flags the top-level parser also accepts use SUPPRESS so a value given
    # before the subcommand (``repro --rows 5000 batch ...``) is not
    # overwritten by a subparser default; the top-level defaults apply.
    sub.add_argument(
        "--approach", choices=APPROACHES, default=argparse.SUPPRESS,
        help="execution approach for every query (default: fastmatch)",
    )
    sub.add_argument("--rows", type=int, default=argparse.SUPPRESS,
                     help="dataset rows (default 1,000,000)")
    sub.add_argument("--repeat", type=_positive_int, default=1,
                     help="submit each query this many times (shows cache reuse)")
    sub.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--delta", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--sigma", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub.add_argument(
        "--max-step-rows", type=_positive_int, default=None,
        help="bound rows sampled per scheduler step (finer interleaving)",
    )
    sub.add_argument(
        "--backend", choices=BACKENDS, default=argparse.SUPPRESS,
        help="execution backend for sampling (default: serial)",
    )
    sub.add_argument(
        "--workers", type=_positive_int, default=argparse.SUPPRESS,
        help="workers for --backend sharded (processes) or threads "
             "(default: CPU count)",
    )
    sub.add_argument(
        "--kernel", choices=KERNEL_SPECS, default=argparse.SUPPRESS,
        help="counting kernel (default: auto; all byte-identical)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FastMatch/HistSim reproduction: top-k histogram matching",
    )
    parser.add_argument("--list", action="store_true", help="list available queries")
    parser.add_argument("--query", choices=QUERY_NAMES, help="Table 3 query to run")
    parser.add_argument(
        "--approach", choices=APPROACHES, default="fastmatch",
        help="execution approach (default: fastmatch)",
    )
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="dataset rows (default 1,000,000; paper-scale: 6,000,000)")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=0.01)
    parser.add_argument("--sigma", type=float, default=0.0008)
    parser.add_argument("--k", type=int, default=None,
                        help="override the query's default k")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-render", action="store_true",
                        help="skip the ASCII visualization panels")
    parser.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="execution backend for sampling approaches (default: serial; "
             "'sharded' fans a sampling call's block counting out to a "
             "worker-process pool, 'threads' to an in-process thread pool "
             "(the gather overlaps, bincount holds the GIL) — both with "
             "byte-identical results)",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="workers for --backend sharded (processes) or threads "
             "(default: CPU count)",
    )
    parser.add_argument(
        "--kernel", choices=KERNEL_SPECS, default="auto",
        help="counting kernel: 'auto' picks the narrowest exact path, "
             "'fused' adds a cached pair-code column (session layer), "
             "'narrow'/'classic' force a specific path — all choices "
             "produce byte-identical answers (default: auto)",
    )

    subparsers = parser.add_subparsers(dest="command")
    batch = subparsers.add_parser(
        "batch",
        help="drain several queries through shared MatchSessions",
        description="Interleave several workload queries per dataset through "
                    "one MatchSession each, reporting per-query latency, "
                    "aggregate throughput, and artifact-cache reuse.",
    )
    _add_batch_arguments(batch)
    batch.set_defaults(command="batch")

    serve = subparsers.add_parser(
        "serve",
        help="online serving through the async front door",
        description="Serve workload queries through the front door: bounded "
                    "admission, a scheduling policy, per-query deadlines "
                    "(ε-relaxed partial answers on expiry), and an open-loop "
                    "trace replay mode.  Reports per-query outcomes plus "
                    "latency percentiles, deadline-hit rate, and shed count.",
    )
    _add_batch_arguments(serve, queries_required=False)
    serve.add_argument(
        "--policy", choices=POLICIES, default="edf",
        help="scheduling policy (default: edf)",
    )
    serve.add_argument(
        "--deadline-ms", type=_positive_float, default=None,
        help="per-query deadline on the simulated clock (default: none)",
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=None,
        help="admission bound on requests in flight (default: unbounded)",
    )
    serve.add_argument(
        "--trace", type=Path, default=None,
        help="JSONL trace replayed open-loop: one "
             '{"query", "arrival_ms", "deadline_ms"?, ...} per line',
    )
    serve.add_argument(
        "--datasets", type=str, default=None,
        help="comma-separated dataset tenants to pre-load behind the one "
             "front door (e.g. 'flights,taxi'); without --queries/--trace, "
             "serves every workload query of those datasets",
    )
    serve.add_argument(
        "--async", dest="use_async", action="store_true",
        help="drive requests through the asyncio AsyncFrontDoor (one "
             "scheduler task, awaitable handles) instead of the "
             "synchronous open-loop replay",
    )
    serve.add_argument(
        "--max-concurrent-steps", type=_positive_int, default=1,
        help="step-execution slots for --async: above 1, steps of "
             "different requests run concurrently on a bounded executor "
             "(answers stay byte-identical; replay mode is deterministic "
             "single-slot and ignores this)",
    )
    serve.add_argument(
        "--trace-out", type=Path, default=None,
        help="export every span/event of the run as schema-versioned JSONL "
             "to this path (enables tracing; inspect with "
             "'repro trace summarize FILE')",
    )
    serve.add_argument(
        "--stats-out", type=Path, default=None,
        help="periodically export queue/latency/health frames as JSON to "
             "this path while serving (watch live with 'repro top FILE')",
    )
    serve.add_argument(
        "--stats-interval", type=_positive_float, default=0.5,
        help="seconds between --stats-out frames (default: 0.5)",
    )
    serve.set_defaults(command="serve")

    trace = subparsers.add_parser(
        "trace",
        help="inspect an exported JSONL trace",
        description="Read a trace written by 'serve --trace-out' and print "
                    "the per-stage time budget: where every request's "
                    "latency went (queue wait, engine steps, HistSim "
                    "stages, shard fan-out), with p50/p99 per stage.",
    )
    trace.add_argument("action", choices=["summarize"],
                       help="what to do with the trace (summarize: "
                            "per-stage time-budget table)")
    trace.add_argument("file", type=Path, help="JSONL trace file")
    trace.add_argument("--json", action="store_true",
                       help="emit the summary as JSON instead of a table")
    trace.set_defaults(command="trace")

    profile = subparsers.add_parser(
        "profile",
        help="profile one workload query's hot path",
        description="Run one workload query with the hot-path profiler on: "
                    "per-kernel effort (calls, ns, rows gathered, blocks, "
                    "bytes moved, bincount invocations) attributed per "
                    "HistSim stage, per-stage simulated time reconciled "
                    "against trace spans, and (with --wall) collapsed-stack "
                    "samples renderable by any flamegraph tool.",
    )
    profile.add_argument("query", choices=QUERY_NAMES, help="Table 3 query")
    profile.add_argument(
        "--approach", choices=APPROACHES, default=argparse.SUPPRESS,
        help="execution approach (default: fastmatch)",
    )
    profile.add_argument("--rows", type=int, default=argparse.SUPPRESS,
                         help="dataset rows (default 1,000,000)")
    profile.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    profile.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    profile.add_argument("--delta", type=float, default=argparse.SUPPRESS)
    profile.add_argument("--sigma", type=float, default=argparse.SUPPRESS)
    profile.add_argument(
        "--backend", choices=BACKENDS, default=argparse.SUPPRESS,
        help="execution backend (default: serial)",
    )
    profile.add_argument(
        "--workers", type=_positive_int, default=argparse.SUPPRESS,
        help="workers for --backend sharded/threads",
    )
    profile.add_argument(
        "--kernel", choices=KERNEL_SPECS, default=argparse.SUPPRESS,
        help="counting kernel (default: auto; all byte-identical)",
    )
    profile.add_argument(
        "--wall", action="store_true",
        help="also sample wall-clock stacks on a background thread and "
             "print collapsed flamegraph lines",
    )
    profile.add_argument(
        "--wall-interval-ms", type=_positive_float, default=5.0,
        help="wall-profiler sampling interval (default: 5 ms)",
    )
    profile.add_argument(
        "--top", type=_positive_int, default=15,
        help="collapsed stacks to print with --wall (default: 15)",
    )
    profile.add_argument("--json", action="store_true",
                         help="emit the profile as JSON")
    profile.set_defaults(command="profile")

    top = subparsers.add_parser(
        "top",
        help="live dashboard over a serving process's --stats-out file",
        description="Tail the JSON frames a running 'repro serve "
                    "--stats-out FILE' exports and render a live dashboard: "
                    "queue depth, step slots, shared-memory bytes, per-"
                    "tenant latency percentiles, calibration ratios, and "
                    "health status.  Purely a reader — the serving process "
                    "is never touched.",
    )
    top.add_argument("file", type=Path, help="stats JSON file written by "
                                             "'serve --stats-out'")
    top.add_argument("--interval", type=_positive_float, default=1.0,
                     help="seconds between refreshes (default: 1.0)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (no screen clearing)")
    top.set_defaults(command="top")
    return parser


def _run_single(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not args.query:
        parser.error("--query is required (or use --list)")

    prepared = prepare_workload(args.query, rows=args.rows, seed=args.seed)
    config = _config(args, prepared.query)

    backend = make_backend(args.backend, args.workers)
    try:
        if args.approach == "scan":
            # The report IS the baseline; count it through the chosen
            # backend (byte-identical, exercises the sharded exact pass).
            scan = run_approach(prepared, "scan", config, seed=args.seed, backend=backend)
            report = scan
        else:
            scan = run_approach(prepared, "scan", config, seed=args.seed)
            report = run_approach(
                prepared, args.approach, config, seed=args.seed,
                backend=backend, kernel=args.kernel,
            )
    finally:
        backend.close()

    print(f"query      : {args.query}  (Z={prepared.query.candidate_attribute}, "
          f"X={prepared.query.grouping_attribute}, k={config.k})")
    print(f"approach   : {args.approach}")
    print(f"backend    : {report.backend}"
          + (f" ({args.workers or 'auto'} workers)"
             if report.backend in WORKER_BACKENDS else ""))
    print(f"rows       : {prepared.shuffled.num_rows:,} "
          f"({prepared.shuffled.num_blocks:,} blocks)")
    print(f"latency    : {report.elapsed_seconds * 1e3:.2f} ms simulated "
          f"({report.speedup_over(scan):.2f}x vs scan)")
    print(f"samples    : {report.result.stats.total_samples:,} "
          f"(stage-2 rounds: {report.result.stats.rounds}, "
          f"pruned: {report.result.stats.pruned_candidates})")
    if report.audit is not None:
        print(f"guarantees : separation={'OK' if report.audit.separation_ok else 'VIOLATED'} "
              f"reconstruction={'OK' if report.audit.reconstruction_ok else 'VIOLATED'} "
              f"delta_d={report.audit.delta_d:+.4f}")
    z_attr = prepared.shuffled.table.schema[prepared.query.candidate_attribute]
    matches = ", ".join(
        f"{z_attr.values[c]}({d:.3f})"
        for c, d in zip(report.result.matching, report.result.distances)
    )
    print(f"matches    : {matches}")

    if not args.no_render and report.result.k > 0:
        x_attr = prepared.shuffled.table.schema[prepared.query.grouping_attribute]
        print()
        print(
            render_result(
                report.result,
                prepared.target,
                candidate_labels=list(z_attr.values),
                group_labels=list(x_attr.values),
                max_candidates=2,
            )
        )
    return 0


def _run_batch(args: argparse.Namespace) -> int:
    # One MatchSession per dataset: a session owns one table, so queries are
    # grouped by the dataset they run against.
    by_dataset: dict[str, list[str]] = {}
    for query_name in args.queries:
        dataset_name, _ = workload_query(query_name)
        by_dataset.setdefault(dataset_name, []).append(query_name)

    total_queries = 0
    total_elapsed = 0.0
    for dataset_name, query_names in by_dataset.items():
        dataset = load_dataset(dataset_name, rows=args.rows, seed=args.seed)
        # One session (and thus one worker pool / shared-memory store for the
        # sharded backend) serves the dataset's whole batch.
        with MatchSession(
            dataset.table, backend=args.backend, workers=args.workers,
            kernel=args.kernel,
        ) as session:
            for query_name in query_names:
                _, query = workload_query(query_name)
                config = _config(args, query)
                # Repeats share one seed so they hit the prepared-artifact cache
                # (one shuffle/index for the whole batch) — the point of --repeat.
                for repeat in range(args.repeat):
                    session.submit(
                        query,
                        approach=args.approach,
                        config=config,
                        seed=args.seed,
                        max_step_rows=args.max_step_rows,
                        name=f"{query_name}" + (f"#{repeat}" if args.repeat > 1 else ""),
                    )
            run = session.run()

        backend_desc = ", ".join(
            f"{key}={value}" for key, value in (run.backend or {}).items()
        )
        print(f"dataset    : {dataset_name}  ({dataset.table.num_rows:,} rows, "
              f"{len(run)} queries, approach={args.approach})")
        print(f"  backend    : {backend_desc or 'serial'}")
        for outcome in run:
            audit = outcome.report.audit
            guarantees = (
                "OK" if audit is not None and audit.ok else
                ("VIOLATED" if audit is not None else "n/a")
            )
            print(f"  {outcome.name:<14} latency={outcome.latency_seconds * 1e3:8.2f} ms  "
                  f"service={outcome.service_seconds * 1e3:7.2f} ms  "
                  f"steps={outcome.steps:<3d} "
                  f"samples={outcome.report.result.stats.total_samples:>9,}  "
                  f"guarantees={guarantees}")
        print(f"  throughput : {run.throughput_qps:,.1f} queries/simulated-second "
              f"({run.elapsed_seconds * 1e3:.2f} ms total)")
        print(f"  cache      : {session.cache_stats.summary()} "
              f"({session.cache_hits} hits)")
        total_queries += len(run)
        total_elapsed += run.elapsed_seconds

    if len(by_dataset) > 1 and total_elapsed > 0:
        print(f"overall    : {total_queries} queries, "
              f"{total_queries / total_elapsed:,.1f} queries/simulated-second")
    return 0


def _dataset_list(args: argparse.Namespace) -> list[str]:
    """The validated ``--datasets`` tenants (empty when the flag is unset)."""
    datasets = [d.strip() for d in (args.datasets or "").split(",") if d.strip()]
    known = set(dataset_builders())
    unknown = [d for d in datasets if d not in known]
    if unknown:
        raise SystemExit(
            f"unknown dataset(s) {unknown}; available: {sorted(known)}"
        )
    return datasets


def _serve_query_names(args: argparse.Namespace) -> list[str]:
    """The workload queries the serve command targets.

    ``--queries`` wins; otherwise ``--datasets`` implies every workload
    query of those datasets."""
    if args.queries:
        return list(args.queries)
    datasets = set(_dataset_list(args))
    return [name for name in QUERY_NAMES if workload_query(name)[0] in datasets]


def _load_trace(args: argparse.Namespace) -> list[tuple[float, str, QueryRequest]]:
    """Arrival events as ``(arrival_ns, dataset, request)``, arrival-sorted.

    Sourced from ``--trace`` (JSONL, open-loop timestamps) or synthesized
    from ``--queries``/``--datasets``/``--repeat`` (all arriving at time
    zero).  Every request is tagged with its dataset key so one registry
    front door routes it to the right tenant."""
    events: list[tuple[float, str, QueryRequest]] = []

    def request_for(query_name: str, *, deadline_ms, seed, approach,
                    on_deadline="partial", label=None) -> tuple[str, QueryRequest]:
        dataset_name, query = workload_query(query_name)
        config = _config(args, query)
        return dataset_name, QueryRequest(
            query,
            approach=approach,
            config=config,
            seed=seed,
            max_step_rows=args.max_step_rows,
            deadline_ns=None if deadline_ms is None else deadline_ms * 1e6,
            on_deadline=on_deadline,
            name=label or query_name,
            dataset=dataset_name,
        )

    if args.trace is not None:
        for line_no, line in enumerate(args.trace.read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                event = json.loads(line)
                query_name = event["query"]
            except (json.JSONDecodeError, KeyError) as exc:
                raise SystemExit(f"{args.trace}:{line_no}: bad trace event: {exc}")
            if query_name not in QUERY_NAMES:
                raise SystemExit(
                    f"{args.trace}:{line_no}: unknown query {query_name!r}"
                )
            try:
                dataset_name, request = request_for(
                    query_name,
                    deadline_ms=event.get("deadline_ms", args.deadline_ms),
                    seed=event.get("seed", args.seed),
                    approach=event.get("approach", args.approach),
                    on_deadline=event.get("on_deadline", "partial"),
                    label=f"{query_name}@{line_no}",
                )
            except ValueError as exc:
                raise SystemExit(f"{args.trace}:{line_no}: bad trace event: {exc}")
            events.append((event.get("arrival_ms", 0.0) * 1e6, dataset_name, request))
    else:
        for query_name in _serve_query_names(args):
            for repeat in range(args.repeat):
                dataset_name, request = request_for(
                    query_name,
                    deadline_ms=args.deadline_ms,
                    seed=args.seed,
                    approach=args.approach,
                    label=f"{query_name}" + (f"#{repeat}" if args.repeat > 1 else ""),
                )
                events.append((0.0, dataset_name, request))
    return sorted(events, key=lambda e: e[0])


def _drive_async(door, events) -> list:
    """Submit every request through the AsyncFrontDoor and await outcomes.

    Closed-loop with backpressure: arrivals are submitted in trace order,
    and while the admission queue is full the client first awaits its
    oldest outstanding request — so a bounded ``--max-queue`` throttles
    instead of shedding everything beyond the bound (the open-loop timing
    study is :meth:`FrontDoor.replay`).
    """
    import asyncio

    async def drive():
        outcomes: list = [None] * len(events)
        admission = door.admission
        async with door:
            handles: list[tuple[int, object]] = []
            waiting = 0
            for index, (_, _, request) in enumerate(events):
                # Backpressure: while the queue is full, await the oldest
                # outstanding request (capacity reads are race-free in one
                # event loop), so nothing is submitted into a rejection.
                while (
                    admission.max_queue is not None
                    and admission.in_flight >= admission.max_queue
                    and waiting < len(handles)
                ):
                    await handles[waiting][1].outcome()
                    waiting += 1
                handles.append((index, await door.submit(request)))
            for index, handle in handles:
                outcomes[index] = await handle.outcome()
        return outcomes

    return asyncio.run(drive())


def _run_serve(args: argparse.Namespace) -> int:
    events = _load_trace(args)
    if not events:
        raise SystemExit("nothing to serve: no queries matched")

    # --trace-out turns tracing on: one tracer collects spans from every
    # layer (engine, stepper, backend) and streams them to the JSONL file.
    tracer = None
    writer = None
    if args.trace_out is not None:
        tracer = Tracer()
        writer = TraceWriter(args.trace_out)
        tracer.subscribe(writer)

    # One registry serves every dataset in play behind a single front door:
    # one shared clock, one backend (worker pool), requests routed by key.
    # --datasets tenants are pre-loaded even when --queries/--trace name
    # only a subset (the flag promises the tenants exist behind the door).
    registry = SessionRegistry(
        backend=args.backend, workers=args.workers, kernel=args.kernel,
        tracer=tracer,
    )
    dataset_rows: dict[str, int] = {}
    tenants = dict.fromkeys(
        _dataset_list(args) + [name for _, name, _ in events]
    )
    for dataset_name in tenants:
        dataset = load_dataset(dataset_name, rows=args.rows, seed=args.seed)
        registry.add_dataset(dataset_name, dataset.table)
        dataset_rows[dataset_name] = dataset.table.num_rows

    # --stats-out starts the read-only StatsExporter over the live door:
    # queue/latency/health frames land in a JSON file `repro top` tails.
    exporter = None
    try:
        if args.use_async:
            door = AsyncFrontDoor(
                registry,
                policy=args.policy,
                max_queue=args.max_queue,
                max_concurrent_steps=args.max_concurrent_steps,
            )
            if args.stats_out is not None:
                exporter = StatsExporter(
                    door, args.stats_out, interval_s=args.stats_interval
                ).start()
            outcomes = _drive_async(door, events)
            mode = "async (closed-loop)"
            if args.max_concurrent_steps > 1:
                mode += f", {args.max_concurrent_steps} step slots"
        else:
            if args.max_concurrent_steps > 1:
                print(
                    "warning: --max-concurrent-steps is ignored in replay mode "
                    "(the open-loop trace is deterministic single-slot); "
                    "use --async for concurrent steps",
                    file=sys.stderr,
                )
            door = FrontDoor(registry, policy=args.policy, max_queue=args.max_queue)
            if args.stats_out is not None:
                exporter = StatsExporter(
                    door, args.stats_out, interval_s=args.stats_interval
                ).start()
            try:
                outcomes = door.replay(
                    [(arrival_ns, request) for arrival_ns, _, request in events]
                )
            finally:
                door.shutdown()
            mode = "replay (open-loop)"
    finally:
        if exporter is not None:
            exporter.stop()
        if writer is not None:
            writer.close()

    print(f"tenants    : {', '.join(f'{name} ({rows:,} rows)' for name, rows in dataset_rows.items())}")
    print(f"mode       : {mode}, policy={args.policy}, "
          f"max_queue={args.max_queue or 'unbounded'}, "
          f"{len(events)} requests")
    for (_, dataset_name, _), outcome in zip(events, outcomes):
        extra = ""
        if outcome.status == "partial" and outcome.report is not None:
            extra = (f"  achieved_eps={outcome.report.achieved_epsilon:.3f}"
                     f" (asked {args.epsilon})")
        elif outcome.status == "completed" and outcome.deadline_ns is not None:
            extra = "  deadline=hit" if outcome.deadline_hit else "  deadline=late"
        print(f"  {outcome.name:<16} [{dataset_name:<7}] {outcome.status:<9} "
              f"latency={outcome.latency_seconds * 1e3:8.2f} ms  "
              f"steps={outcome.steps:<3d}{extra}")
    snap = door.metrics.snapshot()
    print(f"  served     : {snap.completed} completed, {snap.partial} partial, "
          f"{snap.missed} missed, {snap.shed} shed")
    print(f"  latency    : p50={snap.p50_latency_ms:.2f} "
          f"p95={snap.p95_latency_ms:.2f} p99={snap.p99_latency_ms:.2f} ms")
    print(f"  deadlines  : hit rate "
          f"{snap.deadline_hit_rate * 100:.1f}% "
          f"({door.metrics.deadline_hits}/{door.metrics.deadline_requests})")
    for dataset_name in dataset_rows:
        session = registry.session(dataset_name)
        print(f"  cache      : [{dataset_name}] {session.cache_stats.summary()} "
              f"({session.cache_hits} hits)")
    if writer is not None:
        print(f"  trace      : {writer.written} records -> {args.trace_out} "
              "(inspect: repro trace summarize)")
    if exporter is not None:
        print(f"  stats      : {exporter.frames} frames -> {args.stats_out} "
              f"(watch: repro top {args.stats_out})")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace summarize FILE`` — the per-stage time-budget table."""
    if not args.file.exists():
        print(f"trace file not found: {args.file}", file=sys.stderr)
        return 1
    try:
        records = TraceReader(args.file).records()
    except TraceSchemaError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    summary = summarize_records(records)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"trace      : {args.file}  ({summary.spans} spans, "
          f"{summary.events} events, {summary.requests} requests)")
    print(summary.format_table())
    if summary.requests:
        print(f"end-to-end : {summary.total_latency_ns / 1e6:.2f} ms total latency, "
              f"max queue+step tiling drift {summary.max_drift_ns:.0f} ns")
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """``repro profile QUERY`` — hot-path profile of one workload run."""
    dataset_name, query = workload_query(args.query)
    dataset = load_dataset(dataset_name, rows=args.rows, seed=args.seed)
    config = _config(args, query)
    profiler = Profiler()
    tracer = Tracer()
    wall = WallProfiler(args.wall_interval_ms * 1e-3) if args.wall else None
    with MatchSession(
        dataset.table, backend=args.backend, workers=args.workers,
        kernel=args.kernel, profiler=profiler, tracer=tracer,
    ) as session:
        if wall is not None:
            wall.start()
        try:
            outcome = session.match(
                query, approach=args.approach, config=config, seed=args.seed
            )
        finally:
            if wall is not None:
                wall.stop()
    report = outcome.report
    profile = report.profile or {}

    # The profile's per-stage durations and the stepper's trace spans share
    # the same clock endpoints, so their per-stage sums agree exactly —
    # printing both makes the reconciliation visible (drift should be 0).
    trace_stage_ns: dict[str, float] = {}
    for span in tracer.spans:
        if span.name.startswith("stepper."):
            stage = span.name[len("stepper."):]
            trace_stage_ns[stage] = (
                trace_stage_ns.get(stage, 0.0) + span.duration_ns
            )

    if args.json:
        payload = {
            "query": args.query,
            "approach": args.approach,
            "backend": report.backend,
            "kernel": args.kernel,
            "rows": dataset.table.num_rows,
            "elapsed_ns": report.elapsed_ns,
            "steps": outcome.steps,
            "profile": profile,
            "trace_stage_ns": trace_stage_ns,
        }
        if wall is not None:
            payload["wall"] = {"samples": wall.samples, "stacks": wall.collapsed()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"query      : {args.query}  (approach={args.approach}, "
          f"backend={report.backend}, kernel={args.kernel}, "
          f"rows={dataset.table.num_rows:,})")
    print(f"latency    : {report.elapsed_seconds * 1e3:.2f} ms simulated, "
          f"{outcome.steps} steps")
    stages = profile.get("stages", {})
    if stages:
        print()
        print(f"{'stage':<10} {'steps':>6} {'rows':>12} {'profile ms':>11} "
              f"{'trace ms':>11} {'drift ns':>9}")
        for stage, stats in stages.items():
            trace_ns = trace_stage_ns.get(stage)
            trace_ms = "-" if trace_ns is None else f"{trace_ns * 1e-6:.3f}"
            drift = 0.0 if trace_ns is None else stats["ns"] - trace_ns
            print(f"{stage:<10} {stats['steps']:>6} {stats['rows']:>12,} "
                  f"{stats['ns'] * 1e-6:>11.3f} {trace_ms:>11} {drift:>9.0f}")
    if profile.get("kernels"):
        print()
        print(ProfileSnapshot(**profile).format_table())
    totals = profile.get("totals", {})
    if totals:
        print()
        print(f"totals     : {totals.get('rows_gathered', 0):,} rows gathered, "
              f"{totals.get('blocks_touched', 0):,} blocks, "
              f"{totals.get('bytes_moved', 0) / 2**20:.2f} MiB moved, "
              f"{totals.get('bincount_calls', 0)} bincounts, "
              f"{totals.get('kernel_ns', 0.0) * 1e-6:.3f} ms in kernels")
    if wall is not None:
        print()
        print(f"wall stacks: {wall.samples} samples @ "
              f"{args.wall_interval_ms:g} ms (collapsed, flamegraph-ready)")
        print(wall.format_collapsed(top=args.top) or "  (no samples landed)")
    return 0


def _render_top_frame(frame: dict, path: Path) -> str:
    """One ``repro top`` screen from a StatsExporter frame dict."""
    queue = frame.get("queue", {})
    shm = frame.get("shm", {})
    serving = frame.get("serving", {})
    health = frame.get("health", {})
    max_queue = queue.get("max_queue")
    lines = [
        f"repro top — {path}  (frame {frame.get('frame', 0)})",
        "",
        f"queue      : {queue.get('in_flight', 0)} in flight "
        f"(bound {max_queue if max_queue is not None else 'unbounded'}), "
        f"{queue.get('pending', 0)} pending, "
        f"{queue.get('stepping', 0)}/{queue.get('step_slots', 1)} step slots",
        f"shm        : {shm.get('bytes', 0) / 2**20:.2f} MiB in "
        f"{shm.get('segments', 0)} segments",
        f"served     : {serving.get('requests', 0)} requests — "
        f"{serving.get('completed', 0)} completed, "
        f"{serving.get('partial', 0)} partial, "
        f"{serving.get('missed', 0)} missed, {serving.get('shed', 0)} shed",
        f"latency    : p50={serving.get('p50_latency_ms', 0.0):.2f} "
        f"p95={serving.get('p95_latency_ms', 0.0):.2f} "
        f"p99={serving.get('p99_latency_ms', 0.0):.2f} ms  "
        f"deadline hit rate {serving.get('deadline_hit_rate', 1.0) * 100:.1f}%",
    ]
    merged = serving.get("all_tenants")
    if merged:
        lines.append(
            f"all tenants: {merged.get('requests', 0)} requests, merged "
            f"p50={merged.get('p50_latency_ms', 0.0):.2f} "
            f"p99={merged.get('p99_latency_ms', 0.0):.2f} ms"
        )
    tenants = serving.get("per_tenant") or {}
    for tenant, stats in sorted(tenants.items()):
        line = (f"  [{tenant:<8}] completed={stats.get('completed', 0):<4} "
                f"p50={stats.get('p50_latency_ms', 0.0):8.2f} ms")
        calibration = stats.get("calibration_ratio", 0.0)
        if calibration:
            line += f"  calibration={calibration:.3f}"
        lines.append(line)
    status = health.get("status", "unknown")
    lines.append(f"health     : {status.upper()}")
    for reason in health.get("reasons", []):
        lines.append(f"  ! {reason}")
    return "\n".join(lines)


def _run_top(args: argparse.Namespace) -> int:
    """``repro top FILE`` — live dashboard over serve's --stats-out frames."""
    import time as _time

    last_frame = -1
    try:
        while True:
            if not args.file.exists():
                if args.once:
                    print(f"stats file not found: {args.file} "
                          "(is 'repro serve --stats-out' running?)",
                          file=sys.stderr)
                    return 1
                print(f"waiting for {args.file} ...", file=sys.stderr)
                _time.sleep(args.interval)
                continue
            try:
                frame = json.loads(args.file.read_text())
            except json.JSONDecodeError:
                # Torn read can't happen (atomic rename) but an unrelated
                # file here shouldn't crash the dashboard loop.
                if args.once:
                    print(f"not a stats frame: {args.file}", file=sys.stderr)
                    return 1
                _time.sleep(args.interval)
                continue
            if args.once:
                print(_render_top_frame(frame, args.file))
                return 0
            if frame.get("frame", 0) != last_frame:
                last_frame = frame.get("frame", 0)
                sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
                print(_render_top_frame(frame, args.file))
                sys.stdout.flush()
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.backend, args.workers = resolve_backend_args(args)

    command = getattr(args, "command", None)
    if command == "batch":
        return _run_batch(args)
    if command == "trace":
        return _run_trace(args)
    if command == "profile":
        return _run_profile(args)
    if command == "top":
        return _run_top(args)
    if command == "serve":
        if args.trace is None and not args.queries and not args.datasets:
            parser.error("serve requires --queries, --datasets, or --trace")
        return _run_serve(args)

    if args.list:
        print("available queries:")
        for name in QUERY_NAMES:
            print(f"  {name}")
        return 0
    return _run_single(args, parser)


if __name__ == "__main__":
    sys.exit(main())
