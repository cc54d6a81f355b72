"""The benchmark's metric names, units and directions, in one place.

``BENCHMARK.json`` at the repo root carries the same lists (the smoke test
keeps the two in step); the bounds live only there, and ``compare`` reads
them from it.
"""

from __future__ import annotations

WORKLOADS = (
    "table4_oneshot", "fullpass_backends", "session_cache_mix", "serving_openloop",
)

#: (name, unit, better) — the same seven on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p95", "ms", "lower"),
    ("throughput_ops_s", "ops/s", "higher"),
    ("rows_per_s", "rows/s", "higher"),
    ("speedup_vs_scan", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

KERNELS = ("classic", "narrow", "fused")
KERNEL_SHAPES = ("small_scattered", "large_contig", "large_filtered", "highcard_small")

_LOWER, _HIGHER = "lower", "higher"

#: (name, unit, better, exact).  ``exact`` counts must repeat bit-for-bit
#: across runs of one seed.  A metric a workload does not exercise reads 0
#: there: no time was spent in that layer.
PER_LAYER = (
    ("data.generate_s", "s", _LOWER, False),
    ("storage.shuffle_s", "s", _LOWER, False),
    ("storage.sim_latency_ms", "ms", _LOWER, True),
    ("storage.sim_speedup_vs_scan", "ratio", _HIGHER, True),
    ("bitmap.build_s", "s", _LOWER, False),
    ("bitmap.index_mb", "MiB", _LOWER, False),
    ("bitmap.probes", "count", _LOWER, True),
    ("query.ground_truth_ms", "ms", _LOWER, False),
    ("core.self_ms", "ms", _LOWER, False),
    ("core.steps", "count", _LOWER, True),
    ("core.stage2_rounds", "count", _LOWER, True),
    ("sampling.engine_init_ms", "ms", _LOWER, False),
    ("sampling.self_ms", "ms", _LOWER, False),
    ("sampling.policy_select_ms", "ms", _LOWER, False),
    ("sampling.windows", "count", _LOWER, True),
    ("sampling.blocks_read", "count", _LOWER, True),
    ("sampling.blocks_skipped", "count", _HIGHER, True),
    ("sampling.skip_ratio", "ratio", _HIGHER, True),
    ("sampling.rows_delivered", "count", _LOWER, True),
    ("parallel.count_blocks_ms", "ms", _LOWER, False),
    ("parallel.count_blocks_calls", "count", _LOWER, False),
    ("parallel.serial.pass_ms", "ms", _LOWER, False),
    ("parallel.threads.pass_ms", "ms", _LOWER, False),
    ("parallel.sharded.pass_ms", "ms", _LOWER, False),
    ("parallel.threads.unpinned.pass_ms", "ms", _LOWER, False),
    ("parallel.sharded.unpinned.pass_ms", "ms", _LOWER, False),
    ("parallel.threads.speedup_vs_serial", "ratio", _HIGHER, False),
    ("parallel.sharded.speedup_vs_serial", "ratio", _HIGHER, False),
    ("parallel.sharded.overhead_ms_per_window", "ms", _LOWER, False),
    ("parallel.serial.count_table_ms", "ms", _LOWER, False),
    ("parallel.threads.count_table_ms", "ms", _LOWER, False),
    ("parallel.sharded.count_table_ms", "ms", _LOWER, False),
    ("parallel.threads.warmup_s", "s", _LOWER, False),
    ("parallel.sharded.warmup_s", "s", _LOWER, False),
    ("parallel.pair_codes_build_ms", "ms", _LOWER, False),
    ("parallel.pair_codes_mb", "MiB", _LOWER, False),
    ("parallel.bytes_moved_per_row", "B/row", _LOWER, False),
    ("parallel.shm_leaked_segments", "count", _LOWER, False),
) + tuple(
    (f"parallel.kernel.{kernel}.{shape}.ns_per_row", "ns/row", _LOWER, False)
    for kernel in KERNELS for shape in KERNEL_SHAPES
) + (
    ("system.scan_ms", "ms", _LOWER, False),
    ("system.audit_ms", "ms", _LOWER, False),
    ("system.session.prepare_hit_ms", "ms", _LOWER, False),
    ("system.session.prepare_miss_ms", "ms", _LOWER, False),
    ("system.session.cache_hit_rate", "ratio", _HIGHER, True),
    ("system.session.evictions", "count", _LOWER, True),
    ("system.session.cache_mb", "MiB", _LOWER, False),
    ("system.session.make_job_ms", "ms", _LOWER, False),
    ("system.session.step_ms", "ms", _LOWER, False),
    ("system.scheduler.overhead_ms", "ms", _LOWER, False),
    ("serving.submit_ms_p50", "ms", _LOWER, False),
    ("serving.submit_ms_p95", "ms", _LOWER, False),
    ("serving.generator_lag_ms_p95", "ms", _LOWER, False),
    ("serving.queue_wait_ms_p50", "ms", _LOWER, False),
    ("serving.queue_wait_ms_p95", "ms", _LOWER, False),
    ("serving.service_ms_p50", "ms", _LOWER, False),
    ("serving.rate_a.latency_ms_p95", "ms", _LOWER, False),
    ("serving.rate_c.latency_ms_p95", "ms", _LOWER, False),
    ("serving.rate_d.latency_ms_p95", "ms", _LOWER, False),
    ("serving.max_rate_within_slo_qps", "qps", _HIGHER, False),
    ("serving.backlog_end", "count", _LOWER, False),
    ("serving.deadline_hit_rate", "ratio", _HIGHER, False),
    ("serving.partial_count", "count", _LOWER, False),
    ("serving.shed_count", "count", _LOWER, False),
    ("serving.rejected_count", "count", _LOWER, False),
    ("obs.tracer_on_overhead_ratio", "ratio", _LOWER, False),
    ("host.slowdown", "ratio", _LOWER, False),
    ("bench.trace_overhead_ratio", "ratio", _LOWER, False),
    ("bench.unattributed_share", "ratio", _LOWER, False),
    ("bench.failed_op_rate", "ratio", _LOWER, False),
)

EXACT = frozenset(name for name, _, _, exact in PER_LAYER if exact)
