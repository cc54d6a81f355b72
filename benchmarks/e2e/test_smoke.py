"""Smoke test of the end-to-end benchmark (plumbing, not numbers).

Run by explicit path — tier-1's ``testpaths = ["tests"]`` does not collect it:

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_smoke.py -q

(``PYTHONPATH=src`` is for ``benchmarks/conftest.py``, which imports ``repro``.)

Runs all four workloads with ``--quick`` — untraced on two seeds, traced on
one (about a minute and a half) — then checks the output contract, the span
trees, that the timing proxies change no answer, and that ``compare`` tells
same from slower from too noisy to tell.
"""

from __future__ import annotations

import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from e2elib import spans  # noqa: E402
from e2elib.compare import compare  # noqa: E402
from e2elib.harness import result_fingerprint  # noqa: E402
from e2elib.metrics import END_TO_END, EXACT, PER_LAYER, WORKLOADS  # noqa: E402
from e2elib.proxies import TimedBackend  # noqa: E402
from e2elib.workloads.table4_oneshot import Table4Oneshot  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def run_set(tmp_path: Path, trace: int, repeat: int = 1
            ) -> tuple[list[dict], list[dict], Path]:
    """``--workload all --quick``; the merged documents and each run's last
    stdout line."""
    out = tmp_path / f"set-{trace}.json"
    done = subprocess.run(
        RUN + ["--workload", "all", "--quick", "--trace", str(trace),
               "--repeat", str(repeat), "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    last_lines = [json.loads(line) for line in done.stdout.splitlines()
                  if line.startswith('{"correct"')]
    return json.loads(out.read_text()), last_lines, out


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_set(tmp_path_factory.mktemp("e2e"), 0, repeat=2)  # seeds 7 and 8


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_set(tmp_path_factory.mktemp("e2e"), 1)


def test_benchmark_json_matches_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in PER_LAYER]


def check_last_line(line: dict, declared: dict) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 20
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name], name
        assert math.isfinite(metric["value"]), name


def test_untraced_output_contract(untraced):
    documents, last_lines, _ = untraced
    assert [(d["workload"], d["seed"]) for d in documents] == \
        [(workload, seed) for seed in (7, 8) for workload in WORKLOADS]
    declared = {name: unit for name, unit, _ in END_TO_END}
    for line in last_lines:
        check_last_line(line, declared)
        assert all(metric["value"] > 0 for metric in line["metrics"].values())
    for document in documents:
        assert set(document["host"]) == {"nproc", "cpu_model", "python", "numpy",
                                         "loadavg_at_start"}
        assert document["pins"].startswith(  # answers are pinned at the default seed
            "inputs and answers ok" if document["seed"] == 7 else "inputs ok")
        for name in ("latency_ms_p50", "latency_ms_p95", "speedup_vs_scan"):
            metric = document["metrics"][name]
            assert len(metric["rounds"]) == 3 and metric["q1"] <= metric["q3"]


def test_traced_output_contract(traced):
    documents, last_lines, _ = traced
    declared = {name: unit for name, unit, _, _ in PER_LAYER}
    for line in last_lines:
        check_last_line(line, declared)
    for document in documents:
        metrics = document["metrics"]
        assert metrics["bench.trace_overhead_ratio"]["value"] > 0
        assert metrics["parallel.shm_leaked_segments"]["value"] == 0
        assert metrics["parallel.kernel.fused.large_contig.ns_per_row"]["value"] > 0
        assert document["budget_worst_residual"] <= 0.02
    by_name = {d["workload"]: d["metrics"] for d in documents}
    assert by_name["table4_oneshot"]["bench.unattributed_share"]["value"] <= 0.15
    assert by_name["table4_oneshot"]["sampling.engine_init_ms"]["value"] > 0
    assert by_name["fullpass_backends"]["core.self_ms"]["value"] == 0
    assert by_name["fullpass_backends"]["parallel.sharded.pass_ms"]["value"] > 0
    assert 0 < by_name["session_cache_mix"]["system.session.cache_hit_rate"]["value"] < 1
    assert by_name["serving_openloop"]["serving.service_ms_p50"]["value"] > 0


def test_spans_nest_and_account_for_the_op_wall(traced):
    for workload in WORKLOADS:
        path = HERE / "out" / f"trace-{workload}.jsonl"
        recorded = [spans.Span(**json.loads(line)) for line in path.read_text().splitlines()]
        assert recorded and spans.check_nesting(recorded) == []
        children: dict = {}
        for span in recorded:
            children[span.parent] = children.get(span.parent, 0) + span.duration
        for span in recorded:
            # Self time is never negative — up to the microseconds by which a
            # request's submit (generator thread) and its first step (loop
            # thread) can overlap under one open-loop root.
            slack = 0.01 * span.duration if span.name == spans.ROOT_NAME else 0
            assert span.duration - children.get(span.id, 0) >= -slack, span
        budget = spans.budget(recorded)
        assert budget.ops >= 20
        assert budget.worst_residual <= 0.02
        assert sum(budget.self_ns.values()) == pytest.approx(budget.wall_ns, rel=0.02)


def session_members(session: int) -> list[str]:
    """Command lines of the processes, zombies too, in a session."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
                if int(stat[stat.rindex(")") + 2:].split()[3]) == session:
                    members.append(Path("/proc", entry, "cmdline").read_text())
            except OSError:
                pass
    return members


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_a_run(trace):
    """The sharded pool's workers each start a resource tracker that
    outlives them, and the coordinator's outlives the coordinator."""
    done = subprocess.Popen(
        RUN + ["--workload", "fullpass_backends", "--quick", "--seconds", "1",
               "--trace", str(trace)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    assert done.wait(timeout=300) == 0
    assert session_members(done.pid) == []


def test_proxies_change_no_answer():
    workload = Table4Oneshot(seed=11, quick=True)
    workload.setup()
    workload.baseline()
    recorder = spans.SpanRecorder()
    for op_id, op in enumerate(workload.sweep(0)):
        plain = workload.execute(op)
        with recorder.root(op_id):
            report, steps, windows = workload.execute_traced(op, recorder)
        assert result_fingerprint(report) == result_fingerprint(plain)
        assert report.breakdown == plain.breakdown and report.audit == plain.audit
        assert report.backend == plain.backend == "serial"
        assert steps >= 2 and windows >= 1
    names = {span.name for span in recorder.spans}
    assert {"sampling.policy_select", "sampling.sample_until", "parallel.count_blocks",
            "core.step"} <= names


def test_timed_backend_is_a_pass_through_in_a_session():
    from repro.parallel import SerialBackend
    from repro.system import MatchSession

    workload = Table4Oneshot(seed=11, quick=True)
    workload.setup()
    name, dataset, query = workload.queries[0]
    table = workload.datasets[dataset].table
    answers = []
    for backend in (SerialBackend(), TimedBackend(SerialBackend(), None),
                    TimedBackend(SerialBackend(), spans.SpanRecorder())):
        with MatchSession(table, backend=backend, kernel="fused") as session:
            outcome = session.match(query, config=workload.configs[name], seed=3)
            answers.append(result_fingerprint(outcome.report))
            assert outcome.report.backend == "serial"
    assert len(set(answers)) == 1


def scaled(documents: list[dict], names: tuple, factor, spread: float = 0.0) -> list[dict]:
    """A copy with the named metrics multiplied by ``factor(document)`` and
    their rounds set ``spread`` apart (as a share of the value)."""
    documents = copy.deepcopy(documents)
    for document in documents:
        for name in names:
            metric = document["metrics"][name]
            metric["value"] *= factor(document)
            metric["rounds"] = [metric["value"] * (1 + side * spread / 2)
                                for side in (-1, 0, 1)]
    return documents


def test_compare_tells_same_from_slower_from_too_noisy(untraced, traced, tmp_path):
    def compared(a: list[dict], b: list[dict]) -> tuple[int, str]:
        """Exit status and the table's last line (the tally)."""
        paths = []
        for label, documents in (("a", a), ("b", b)):
            paths.append(tmp_path / f"{label}.json")
            paths[-1].write_text(json.dumps(documents))
        sink = io.StringIO()
        status = compare(str(paths[0]), str(paths[1]), out=sink)
        return status, sink.getvalue().splitlines()[-1]

    # A quick run's rounds are a second long and as noisy as the host; what
    # is under test is the verdicts, so the rounds are set by hand.
    timings = tuple(name for name, _, _ in END_TO_END if name != "peak_rss_mb")
    single = scaled([d for d in untraced[0] if d["seed"] == 7], timings, lambda d: 1.0)
    assert compared(single, single) == (
        0, "0 breach(es), 0 unresolved (1 run(s) per workload on side A, 1 on side B)")

    slower = scaled(single, ("latency_ms_p50", "latency_ms_p95"), lambda d: 1.3)
    status, tally = compared(single, slower)
    assert status == 1 and tally.startswith(f"{2 * len(WORKLOADS)} breach(es), 0 unresolved")

    # Rounds too far apart to tell unchanged from worse: a failure as well.
    noisy = scaled(single, ("setup_s",), lambda d: 1.0, spread=0.6)
    status, tally = compared(single, noisy)
    assert status == 1 and tally.startswith(f"0 breach(es), {len(WORKLOADS)} unresolved")

    # Sides of two runs: the spread is between the runs, whatever the rounds.
    steady = single + [dict(copy.deepcopy(d), seed=8) for d in single]
    noisy = scaled(steady, ("setup_s",), lambda d: 1.0, spread=0.6)
    assert compared(steady, noisy) == (
        0, "0 breach(es), 0 unresolved (2 run(s) per workload on side A, 2 on side B)")
    # One run 1.4x slower: the median moves by 20%, inside the bound, but
    # the side's runs now disagree by more than it.
    mixed = scaled(steady, ("latency_ms_p50",), lambda d: 1.4 if d["seed"] == 8 else 1.0)
    status, tally = compared(steady, mixed)
    assert status == 1 and tally.startswith(f"0 breach(es), {len(WORKLOADS)} unresolved")

    failing = copy.deepcopy(steady)
    failing[0]["failed"] = failing[0]["attempted"] // 10
    status, tally = compared(steady, failing)
    assert status == 1 and tally.startswith("1 breach(es), 0 unresolved")

    counts, _, _ = traced
    assert compared(counts, counts)[0] == 0
    moved = copy.deepcopy(counts)
    moved[0]["metrics"][sorted(EXACT)[0]]["value"] += 1
    status, tally = compared(counts, moved)
    assert status == 1 and tally.startswith("1 breach(es)")
    dropped = copy.deepcopy(counts)
    for document in dropped:
        document["metrics"]["serving.max_rate_within_slo_qps"]["value"] *= 0.5
    status, tally = compared(counts, dropped)
    assert status == 1 and tally.startswith("1 breach(es)")
