"""``run.py compare A.json B.json``: is B no worse than A, metric by metric?

A and B are files of result documents this benchmark wrote: one document,
or the list ``--workload all [--repeat N] --out`` writes.  A side's value
for a metric is the **median over its runs**; its spread is the distance
between the quartiles of its runs' values as a share of their median —
what the driver computes — and a side of a single run lets that run's
per-round values stand in for runs.  One row per (workload, end-to-end
metric): both medians, the relative difference in the direction that is
worse, and a verdict against the bound ``BENCHMARK.json`` fixes:

- ``ok``          B is not worse than A by more than the bound;
- ``BREACH``      it is;
- ``unresolved``  a side's own spread exceeds the bound, so the runs cannot
                  tell "unchanged" from "worse": lengthen the sides
                  (``--repeat``) until they can.

Two more end-to-end gates carry ISSUE 13's absolute bounds, which
``BENCHMARK.json`` cannot hold (a metric there may never read 0 and its
bound is relative): ``failed_op_rate`` — ``failed / attempted`` over a
side's runs may rise by at most 0.01 — and, in traced documents,
``serving.max_rate_within_slo_qps``, which may not drop at all.  Counts
marked exact must be equal in every traced run of one seed, on either side.

Exit status 1 on any breach or unresolved metric, 2 when the files share
nothing to compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from .metrics import EXACT

BENCHMARK_JSON = Path(__file__).resolve().parents[3] / "BENCHMARK.json"

FAILED_OP_RATE_SLACK = 0.01
NO_DROP = "serving.max_rate_within_slo_qps"


def load_runs(path: str) -> dict:
    """``{(workload, trace): [document, ...]}``"""
    loaded = json.loads(Path(path).read_text())
    runs = defaultdict(list)
    for document in loaded if isinstance(loaded, list) else [loaded]:
        runs[(document["workload"], int(document["trace"]))].append(document)
    return runs


def side(runs: list[dict], name: str) -> tuple[float, float]:
    """(median over the runs, spread) of one metric on one side."""
    samples = [run["metrics"][name]["value"] for run in runs]
    median = statistics.median(samples)
    if len(runs) == 1:
        samples = runs[0]["metrics"][name].get("rounds") or samples
    centre = statistics.median(samples)
    if len(samples) < 2 or not centre:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return median, (q3 - q1) / abs(centre)


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def failed_op_rate(runs: list[dict]) -> float:
    return sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)


def compare(path_a: str, path_b: str, out=sys.stdout) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    shared = sorted(set(runs_a) & set(runs_b))
    if not shared:
        print("no (workload, trace) pair is in both files", file=out)
        return 2
    breaches = unresolved = 0
    header = (f"{'workload':<20} {'metric':<18} {'A':>13} {'B':>13} {'worse by':>9} "
              f"{'bound':>6} {'spread A/B':>12}  verdict")
    print(header, file=out)
    print("-" * len(header), file=out)
    for workload, trace in shared:
        a, b = runs_a[(workload, trace)], runs_b[(workload, trace)]
        if trace:
            for name in sorted(EXACT):
                seen = defaultdict(set)  # seed -> values, over both sides
                for run in a + b:
                    seen[run["seed"]].add(run["metrics"][name]["value"])
                for seed, values in sorted(seen.items()):
                    if len(values) > 1:
                        print(f"{workload:<20} {name:<18} exact count differs at seed "
                              f"{seed}: {sorted(values)}  BREACH", file=out)
                        breaches += 1
            (rate_a, _), (rate_b, _) = side(a, NO_DROP), side(b, NO_DROP)
            if rate_b < rate_a:
                print(f"{workload:<20} {NO_DROP} dropped: {rate_a:g} -> {rate_b:g}  "
                      "BREACH", file=out)
                breaches += 1
            continue
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            (value_a, spread_a), (value_b, spread_b) = side(a, name), side(b, name)
            delta = worse_by(value_a, value_b, entry["better"])
            if delta > bound:
                verdict = "BREACH"
                breaches += 1
            elif max(spread_a, spread_b) > bound:
                verdict = "unresolved"
                unresolved += 1
            else:
                verdict = "ok"
            print(f"{workload:<20} {name:<18} {value_a:>13.6g} {value_b:>13.6g} "
                  f"{delta:>+9.1%} {bound:>6.0%} {spread_a:>5.0%} /{spread_b:>5.0%}  "
                  f"{verdict}", file=out)
        failed_a, failed_b = failed_op_rate(a), failed_op_rate(b)
        rose = failed_b - failed_a
        verdict = "BREACH" if rose > FAILED_OP_RATE_SLACK else "ok"
        breaches += verdict == "BREACH"
        print(f"{workload:<20} {'failed_op_rate':<18} {failed_a:>13.6g} {failed_b:>13.6g} "
              f"{rose:>+9.4f} {FAILED_OP_RATE_SLACK:>6g} {'':>12}  {verdict}", file=out)
        for label, runs in (("A", a), ("B", b)):
            wrong = [run for run in runs if not run["correct"]]
            if wrong:
                print(f"{workload:<20} {len(wrong)} of {len(runs)} run(s) on side "
                      f"{label} were not correct", file=out)
                breaches += 1
    print(f"{breaches} breach(es), {unresolved} unresolved "
          f"({max(len(r) for r in runs_a.values())} run(s) per workload on side A, "
          f"{max(len(r) for r in runs_b.values())} on side B)", file=out)
    return 1 if breaches or unresolved else 0
