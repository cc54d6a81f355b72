"""Serving benchmark — open-loop Poisson arrivals through the front door.

Not a paper figure: this benchmark exercises the online serving subsystem
(admission control + deadline-aware scheduling + bounded steppers) under
the load shape the ROADMAP north star implies — requests arriving on their
own schedule, not as a batch.  A fixed Poisson arrival trace over the
FLIGHTS workload mix is replayed open-loop on the simulated clock through
every scheduling policy, at an arrival rate deliberately above the service
rate (overload), with heterogeneous per-request deadlines.

The default overload is moderate (1.25× the service rate): that is the
regime where *scheduling* decides deadline hits — queues build, so FIFO
convoys tight-deadline requests behind loose ones while EDF reorders.
Far past saturation (≳ 1.5×) most deadlines become infeasible for any
order and EDF exhibits its classic overload domino (it keeps granting
slices to the most-imminent — hence most-doomed — request), so comparisons
there measure draining, not scheduling.

Reports, per policy: p50/p95/p99 latency, deadline-hit rate, completion /
partial / miss / shed counts.  JSON goes to
``benchmarks/results/bench_serving.json``.

A second, **multi-tenant** section replays a mixed FLIGHTS+POLICE trace at
1.5× overload through one ``SessionRegistry`` front door (requests routed
by dataset key, one shared clock and backend).  That is deep EDF-domino
territory, where the feasibility-aware ``edf-f`` policy — settle requests
whose lookahead estimate can no longer meet their deadline as immediate
partial answers — must hold at least EDF's hit rate.

Checks:

- a request served through the front door (no deadline) returns results
  byte-identical to a standalone ``run_approach`` execution — and, with
  ``--async``, so does one request per tenant through an ``edf-f``
  registry door on its scheduler thread, its handles awaited from asyncio;
- under overload, EDF beats FIFO on deadline-hit rate (the classic
  single-server scheduling result, and PR 4's acceptance criterion);
- FIFO actually misses deadlines under overload (otherwise the comparison
  above is vacuous);
- in the multi-tenant run at ≥1.5× overload, ``edf-f``'s deadline-hit
  rate is at least EDF's (this PR's acceptance criterion).

Usage:

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --tiny --async  # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json

import numpy as np

from pathlib import Path

from common import RESULTS_DIR, format_table, save_report
from repro.data import load_dataset, workload_query
from repro.core.config import HistSimConfig
from repro.obs import TraceReader, TraceWriter, Tracer, summarize_records
from repro.serving import POLICIES, FrontDoor, QueryRequest
from repro.system import MatchSession, SessionRegistry, run_approach

#: Queries cycled to fill the trace (all on FLIGHTS: one session serves it).
FLIGHTS_QUERIES = ("flights-q1", "flights-q2", "flights-q3", "flights-q4")

#: Tenants of the multi-tenant run (dataset -> its workload queries).
TENANTS = {
    "flights": FLIGHTS_QUERIES,
    "police": ("police-q1", "police-q2", "police-q3"),
}

#: Overload floor of the multi-tenant run: the regime where pure EDF
#: dominoes and feasibility shedding pays (ROADMAP: ≳1.5×).
MULTI_TENANT_OVERLOAD = 1.5

#: Deadline multiples of each query's *own* standalone service time: a
#: tight/medium/loose mix, so deadline-aware policies have something to
#: exploit.  Tight deadlines stay feasible when served promptly — deadlines
#: no schedule could meet only reward draining fast, not scheduling well.
DEADLINE_FACTORS = (1.5, 3.0, 10.0)


def config_for_query(query, rows: int) -> HistSimConfig:
    return HistSimConfig(
        k=query.k, epsilon=0.1, delta=0.01, sigma=0.0008,
        stage1_samples=min(50_000, max(1, rows // 20)),
    )


def calibrate_service_ns(
    tenants: dict, tables: dict, args
) -> dict[tuple[str, str], float]:
    """Standalone service time of every ``(dataset, query)`` of a mix."""
    service: dict[tuple[str, str], float] = {}
    for dataset_name, query_names in tenants.items():
        session = MatchSession(tables[dataset_name])
        for name in query_names:
            _, query = workload_query(name)
            prepared = session.prepared(query, seed=args.seed)
            report = run_approach(
                prepared, "fastmatch",
                config_for_query(query, tables[dataset_name].num_rows),
                seed=args.seed, audit=False,
            )
            service[(dataset_name, name)] = report.elapsed_ns
        session.close()
    return service


def build_trace(
    tenants: dict,
    tables: dict,
    service_ns: dict[tuple[str, str], float],
    args,
    *,
    overload: float,
    rng_seed: int,
    tag_dataset: bool,
) -> list[tuple[float, QueryRequest]]:
    """One fixed Poisson trace over a tenant mix, shared by every policy run.

    Interarrival times are exponential with rate ``overload / μ`` — i.e.
    work arrives ``overload``× faster than one server can drain it — and
    each request draws a deadline from the tight/medium/loose mix, scaled
    to its own query's service time.  ``tag_dataset`` stamps requests with
    their routing key (multi-tenant registry doors need it; the
    single-session door must not see one).
    """
    mix = [(ds, q) for ds, queries in tenants.items() for q in queries]
    mu_ns = float(np.mean([service_ns[key] for key in mix]))
    rng = np.random.default_rng(rng_seed)
    clock_ns = 0.0
    trace = []
    for i in range(args.requests):
        clock_ns += rng.exponential(mu_ns / overload)
        dataset_name, query_name = mix[i % len(mix)]
        _, query = workload_query(query_name)
        deadline = service_ns[(dataset_name, query_name)] * rng.choice(
            DEADLINE_FACTORS
        )
        trace.append(
            (
                clock_ns,
                QueryRequest(
                    query,
                    config=config_for_query(query, tables[dataset_name].num_rows),
                    seed=args.seed,
                    max_step_rows=args.max_step_rows,
                    deadline_ns=float(deadline),
                    on_deadline="partial",
                    name=f"{query_name}#{i}",
                    dataset=dataset_name if tag_dataset else None,
                ),
            )
        )
    return trace


def run_policy(table, policy: str, trace, args) -> dict:
    # Each policy replays under a metrics-sink tracer so the snapshot's
    # per-stage time budget (queue/step/settle/stage1-3 p50/p99) lands in
    # the benchmark JSON.  Tracing never changes answers or the simulated
    # timeline; the identity checks run untraced and guard exactly that.
    session = MatchSession(table, tracer=Tracer())
    door = FrontDoor(session, policy=policy, max_queue=args.max_queue)
    try:
        outcomes = door.replay(trace)
    finally:
        door.shutdown()
    snap = door.metrics.snapshot()
    achieved = [
        o.report.achieved_epsilon
        for o in outcomes
        if o.status == "partial" and o.report is not None
    ]
    return {
        "policy": policy,
        **snap.to_dict(),
        "mean_partial_achieved_epsilon": (
            float(np.mean(achieved)) if achieved else None
        ),
    }


def run_traced_export(table, trace, args, path: Path) -> dict:
    """Replay the single-tenant trace with JSONL export; validate the trace.

    This is the acceptance path for the trace file format: every line must
    round-trip through :class:`TraceReader` (schema validation on read),
    and the reconstructed per-stage budget's queue+step sums must tile each
    request's end-to-end latency within one clock tick.
    """
    tracer = Tracer()
    writer = TraceWriter(path)
    tracer.subscribe(writer)
    session = MatchSession(table, tracer=tracer)
    door = FrontDoor(session, policy="edf", max_queue=args.max_queue)
    try:
        outcomes = door.replay(trace)
    finally:
        door.shutdown()
        writer.close()
    summary = summarize_records(TraceReader(path).records())
    engine_served = sum(1 for o in outcomes if o.status != "shed")
    assert summary.requests == engine_served, (
        f"trace finalized {summary.requests} requests, engine served "
        f"{engine_served}"
    )
    tick = session.clock.resolution_ns
    assert summary.max_drift_ns <= tick, (
        f"queue+step spans drift {summary.max_drift_ns} ns from end-to-end "
        f"latency (> one {tick} ns clock tick)"
    )
    print(f"trace export: {writer.written} records -> {path} "
          f"(max tiling drift {summary.max_drift_ns:.0f} ns)")
    return {"path": str(path), "records": writer.written, **summary.to_dict()}


def run_multitenant_policy(tables: dict, policy: str, trace, args) -> dict:
    """One policy's replay of the mixed trace through a registry door."""
    registry = SessionRegistry()
    for dataset_name, table in tables.items():
        registry.add_dataset(dataset_name, table)
    door = FrontDoor(registry, policy=policy, max_queue=args.max_queue)
    try:
        outcomes = door.replay(trace)
    finally:
        door.shutdown()
    snap = door.metrics.snapshot()
    by_tenant = {
        ds: sum(1 for o in outcomes if o.name.split("-")[0] == ds)
        for ds in tables
    }
    return {"policy": policy, "per_tenant_requests": by_tenant, **snap.to_dict()}


def verify_async_front_door_identity(tables: dict, args) -> None:
    """One request per tenant through a registry door, its handles awaited
    from asyncio, == standalone."""

    async def drive():
        registry = SessionRegistry()
        for dataset_name, table in tables.items():
            registry.add_dataset(dataset_name, table)
        with FrontDoor(registry, policy="edf-f") as door:
            door.start()
            handles = {}
            for dataset_name, query_names in TENANTS.items():
                _, query = workload_query(query_names[0])
                handles[dataset_name] = door.submit(
                    QueryRequest(
                        query,
                        config=config_for_query(
                            query, tables[dataset_name].num_rows
                        ),
                        seed=args.seed,
                        dataset=dataset_name,
                    )
                )
            return {ds: await h for ds, h in handles.items()}

    outcomes = asyncio.run(drive())
    for dataset_name, outcome in outcomes.items():
        _, query = workload_query(TENANTS[dataset_name][0])
        session = MatchSession(tables[dataset_name])
        standalone = run_approach(
            session.prepared(query, seed=args.seed), "fastmatch",
            config_for_query(query, tables[dataset_name].num_rows),
            seed=args.seed, audit=False,
        )
        session.close()
        assert outcome.status == "completed"
        assert outcome.report.result.matching == standalone.result.matching, (
            f"awaited front-door matching differs from standalone ({dataset_name})"
        )
        assert np.array_equal(
            outcome.report.result.histograms, standalone.result.histograms
        ), f"awaited front-door histograms differ from standalone ({dataset_name})"
        assert outcome.report.result.stats == standalone.result.stats, (
            f"awaited front-door sampling effort differs ({dataset_name})"
        )


def verify_front_door_identity(table, args) -> None:
    """A no-deadline request through the front door == standalone execution."""
    _, query = workload_query(FLIGHTS_QUERIES[0])
    config = config_for_query(query, table.num_rows)
    session = MatchSession(table)
    door = FrontDoor(session, policy="edf")
    (outcome,) = door.replay(
        [(0.0, QueryRequest(query, config=config, seed=args.seed))]
    )
    standalone = run_approach(
        session.prepared(query, seed=args.seed), "fastmatch", config,
        seed=args.seed, audit=False,
    )
    door.shutdown()
    assert outcome.status == "completed"
    assert outcome.report.result.matching == standalone.result.matching, (
        "front-door matching differs from standalone"
    )
    assert np.array_equal(
        outcome.report.result.histograms, standalone.result.histograms
    ), "front-door histograms differ from standalone"
    assert outcome.report.result.stats == standalone.result.stats, (
        "front-door sampling effort differs from standalone"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="FLIGHTS dataset rows (default 1M)")
    parser.add_argument("--requests", type=int, default=120,
                        help="requests in the Poisson trace")
    parser.add_argument("--overload", type=float, default=1.25,
                        help="arrival rate as a multiple of service rate "
                             "(> 1 = overload; see module docstring)")
    parser.add_argument("--max-queue", type=int, default=8,
                        help="admission bound on requests in flight")
    parser.add_argument("--max-step-rows", type=int, default=5_000,
                        help="scheduler time-slice in rows")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke mode: small data, short trace")
    parser.add_argument("--async", dest="use_async", action="store_true",
                        help="also verify byte-identity with the door's "
                             "handles awaited from asyncio")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="also replay the single-tenant trace with JSONL "
                             "span export to this path, validating the "
                             "schema and the queue+step tiling invariant")
    args = parser.parse_args(argv)

    if args.tiny:
        args.rows = 60_000
        args.requests = 64
        args.max_step_rows = 2_000
        args.max_queue = 8

    table = load_dataset("flights", rows=args.rows, seed=args.seed).table
    verify_front_door_identity(table, args)

    tables = {
        name: load_dataset(name, rows=args.rows, seed=args.seed).table
        for name in TENANTS
    }
    if args.use_async:
        verify_async_front_door_identity(tables, args)
        print("async front-door identity: ok")

    single_tenant = {"flights": FLIGHTS_QUERIES}
    service_ns = calibrate_service_ns(single_tenant, tables, args)
    mu_ns = float(np.mean(list(service_ns.values())))
    trace = build_trace(
        single_tenant, tables, service_ns, args,
        overload=args.overload, rng_seed=args.seed, tag_dataset=False,
    )

    mt_service_ns = calibrate_service_ns(TENANTS, tables, args)
    mt_mu_ns = float(np.mean(list(mt_service_ns.values())))
    mt_overload = max(args.overload, MULTI_TENANT_OVERLOAD)
    mt_trace = build_trace(
        TENANTS, tables, mt_service_ns, args,
        overload=mt_overload, rng_seed=args.seed + 1, tag_dataset=True,
    )

    trace_export = None
    if args.trace_out is not None:
        trace_export = run_traced_export(table, trace, args, args.trace_out)

    results = {
        "rows": table.num_rows,
        "requests": args.requests,
        "overload": args.overload,
        "max_queue": args.max_queue,
        "max_step_rows": args.max_step_rows,
        "mean_service_ms": mu_ns * 1e-6,
        "trace": trace_export,
        "policies": [run_policy(table, policy, trace, args) for policy in POLICIES],
        "multi_tenant": {
            "datasets": list(TENANTS),
            "overload": mt_overload,
            "mean_service_ms": mt_mu_ns * 1e-6,
            "policies": [
                run_multitenant_policy(tables, policy, mt_trace, args)
                for policy in POLICIES
            ],
        },
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_serving.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    def policy_rows(records):
        return [
            [
                r["policy"],
                r["completed"], r["partial"], r["missed"], r["shed"],
                f"{r['deadline_hit_rate'] * 100:.1f}%",
                f"{r['p50_latency_ms']:.2f}",
                f"{r['p95_latency_ms']:.2f}",
                f"{r['p99_latency_ms']:.2f}",
            ]
            for r in records
        ]

    columns = ["policy", "done", "part", "miss", "shed", "hit rate",
               "p50 ms", "p95 ms", "p99 ms"]
    save_report(
        "bench_serving",
        format_table(
            f"Serving under overload — {args.requests} Poisson arrivals at "
            f"{args.overload:.1f}x service rate, FLIGHTS mix "
            f"(mean service {mu_ns * 1e-6:.2f} ms, max_queue={args.max_queue})",
            columns,
            policy_rows(results["policies"]),
        )
        + "\n"
        + format_table(
            f"Multi-tenant ({'+'.join(TENANTS)}) — {args.requests} Poisson "
            f"arrivals at {mt_overload:.1f}x service rate through one "
            f"SessionRegistry front door "
            f"(mean service {mt_mu_ns * 1e-6:.2f} ms, max_queue={args.max_queue})",
            columns,
            policy_rows(results["multi_tenant"]["policies"]),
        )
        + "\n"
        + format_table(
            f"Per-stage time budget — span-fed sketches, by policy "
            f"(single-tenant trace)",
            ["policy", "stage", "count", "total ms", "p50 ms", "p99 ms", "rows"],
            [
                [
                    r["policy"],
                    stage,
                    budget["count"],
                    f"{budget['total_ms']:.2f}",
                    f"{budget['p50_ms']:.4f}",
                    f"{budget['p99_ms']:.4f}",
                    budget["rows"],
                ]
                for r in results["policies"]
                for stage, budget in r["per_stage"].items()
            ],
        ),
    )

    by_policy = {r["policy"]: r for r in results["policies"]}
    fifo, edf = by_policy["fifo"], by_policy["edf"]
    if fifo["deadline_hit_rate"] >= 1.0:
        print("ERROR: FIFO hit every deadline — the trace is not an overload")
        return 1
    if edf["deadline_hit_rate"] < fifo["deadline_hit_rate"]:
        print(
            "ERROR: EDF deadline-hit rate "
            f"({edf['deadline_hit_rate']:.3f}) below FIFO "
            f"({fifo['deadline_hit_rate']:.3f}) under overload"
        )
        return 1

    mt_by_policy = {r["policy"]: r for r in results["multi_tenant"]["policies"]}
    mt_edf, mt_edff = mt_by_policy["edf"], mt_by_policy["edf-f"]
    if mt_edff["deadline_hit_rate"] < mt_edf["deadline_hit_rate"]:
        print(
            "ERROR: multi-tenant edf-f deadline-hit rate "
            f"({mt_edff['deadline_hit_rate']:.3f}) below EDF "
            f"({mt_edf['deadline_hit_rate']:.3f}) at "
            f"{mt_overload:.1f}x overload"
        )
        return 1
    print(
        f"multi-tenant at {mt_overload:.1f}x overload: edf-f hit rate "
        f"{mt_edff['deadline_hit_rate']:.3f} >= edf "
        f"{mt_edf['deadline_hit_rate']:.3f}"
    )

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
