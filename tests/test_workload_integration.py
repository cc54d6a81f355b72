"""Cross-module integration: every Table 3 workload, end to end, small scale.

Runs the full pipeline (dataset build -> shuffle/layout -> bitmap index ->
target resolution -> FastMatch -> guarantee audit) for all nine queries at
reduced row counts, checking invariants that must hold at any scale.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import HistSimConfig, true_top_k
from repro.data import QUERY_NAMES, prepare_workload
from repro.system import run_approach

ROWS = {"flights": 120_000, "taxi": 400_000, "police": 150_000}

#: Each query's FastMatch outcome at this module's scale, seed and config.
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "table3_outcomes.json").read_text()
)

#: The end-to-end benchmark's rows (TAXI at 400k) and the paper benches'
#: config, where most runs stop before the data runs out.
ROWS_1M = {"flights": 1_000_000, "taxi": 400_000, "police": 1_000_000}
CONFIG_1M = dict(epsilon=0.1, delta=0.01, sigma=0.0008, stage1_samples=50_000)
GOLDEN_1M = json.loads(
    (Path(__file__).parent / "data" / "table3_outcomes_1M.json").read_text()
)
#: The runs of ``GOLDEN_1M`` that read less than the whole table.
EARLY_STOPS_1M = (
    "flights-q1", "flights-q2", "flights-q3",
    "police-q1", "police-q2", "police-q3",
)


def rows_for(query_name: str) -> int:
    return ROWS[query_name.split("-")[0]]


def pinned_fields(report) -> dict:
    """The run's top-k ids, rounds, engine counters and simulated time."""
    counters = report.counters
    return {
        "matching": [int(i) for i in report.result.matching],
        "rounds": int(report.result.stats.rounds),
        "rows_delivered": int(counters["rows_delivered"]),
        "blocks_read": int(counters["blocks_read"]),
        "blocks_skipped": int(counters["blocks_skipped"]),
        "probes": int(counters["probes"]),
        "elapsed_ns": report.elapsed_ns,
    }


@pytest.mark.parametrize("query_name", QUERY_NAMES)
class TestEveryWorkload:
    def test_fastmatch_guarantees_and_accounting(self, query_name):
        prepared = prepare_workload(query_name, rows=rows_for(query_name), seed=7)
        config = HistSimConfig(
            k=prepared.query.k, epsilon=0.2, delta=0.05, sigma=0.0008,
            stage1_samples=20_000,
        )
        report = run_approach(prepared, "fastmatch", config, seed=5)

        # Guarantees hold against exact ground truth.
        assert report.audit is not None and report.audit.ok, report.audit

        # Output size: k, unless fewer candidates survive pruning.
        assert 0 < report.result.k <= config.k

        # Accounting invariants.
        counters = report.counters
        assert counters["rows_delivered"] <= prepared.shuffled.num_rows
        assert counters["blocks_read"] <= prepared.shuffled.num_blocks
        assert report.elapsed_ns > 0
        assert abs(
            sum(v for k, v in report.breakdown.items() if k != "overlap_hidden")
            - report.breakdown.get("overlap_hidden", 0.0)
            - report.elapsed_ns
        ) < 1e3  # serial components + max-of-pipelined == elapsed

        # Matching candidates were never pruned.
        assert not (set(report.result.matching) & set(report.result.pruned))

        # Estimated distances are sorted and within [0, 2].
        d = report.result.distances
        assert np.all(np.diff(d) >= -1e-12)
        assert np.all((d >= 0) & (d <= 2.0))

    def test_fastmatch_outcome_is_pinned(self, query_name):
        """The run's top-k ids, rounds, engine counters and simulated
        elapsed time equal the pinned ones in ``data/table3_outcomes.json``.

        Every quantity here is deterministic for the dataset seed and the
        run seed: the clock is simulated and the engine's block choices
        depend only on the active sets.  A failure means a change moved a
        sampling decision (which blocks were read or skipped, how many
        rounds ran, which candidates were returned) or a charge to the
        simulated clock.  A change meant to keep answers and costs
        byte-identical must not touch this file; one meant to move them
        re-pins it and says why.
        """
        prepared = prepare_workload(query_name, rows=rows_for(query_name), seed=7)
        config = HistSimConfig(
            k=prepared.query.k, epsilon=0.2, delta=0.05, sigma=0.0008,
            stage1_samples=20_000,
        )
        report = run_approach(prepared, "fastmatch", config, seed=5)
        assert pinned_fields(report) == GOLDEN[query_name]

    def test_fastmatch_outcome_is_pinned_at_1M(self, query_name):
        """As above at ``ROWS_1M`` and ``CONFIG_1M``, pinned in
        ``data/table3_outcomes_1M.json``: the pin that covers runs which
        stop early, so a moved stopping decision shows here."""
        prepared = prepare_workload(
            query_name, rows=ROWS_1M[query_name.split("-")[0]], seed=7
        )
        config = HistSimConfig(k=prepared.query.k, **CONFIG_1M)
        report = run_approach(prepared, "fastmatch", config, seed=5)
        assert pinned_fields(report) == GOLDEN_1M[query_name]

    def test_scan_matches_true_top_k(self, query_name):
        prepared = prepare_workload(query_name, rows=rows_for(query_name), seed=7)
        config = HistSimConfig(k=prepared.query.k, epsilon=0.2, delta=0.05, sigma=0.0008)
        report = run_approach(prepared, "scan", config, seed=5)
        expected = true_top_k(
            prepared.exact_counts, prepared.target, config.k, config.sigma
        )
        assert set(report.result.matching) == set(int(i) for i in expected)
        assert report.audit.delta_d == pytest.approx(0.0)


def test_the_1M_pin_covers_early_stops():
    """Every outcome of ``table3_outcomes.json`` reads the whole table; the
    1M pin must keep holding runs that stop before the data runs out."""
    early = {
        name for name, pin in GOLDEN_1M.items()
        if pin["rows_delivered"] < ROWS_1M[name.split("-")[0]]
    }
    assert early == set(EARLY_STOPS_1M)
