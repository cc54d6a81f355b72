"""Tests for the in-memory ArraySampler (uniformity and budget semantics)."""

import numpy as np
import pytest

from repro.core.sampler import ArraySampler, TupleSampler


def make_sampler(n=10_000, candidates=5, groups=4, seed=0, batch=512):
    rng = np.random.default_rng(seed)
    z = rng.integers(0, candidates, size=n)
    x = rng.integers(0, groups, size=n)
    return ArraySampler(z, x, candidates, groups, rng, batch_size=batch), z, x


class TestProtocol:
    def test_satisfies_tuple_sampler_protocol(self):
        sampler, _, _ = make_sampler()
        assert isinstance(sampler, TupleSampler)

    def test_metadata(self):
        sampler, z, _ = make_sampler()
        assert sampler.total_rows == z.size
        assert sampler.num_candidates == 5
        assert sampler.num_groups == 4
        np.testing.assert_array_equal(
            sampler.candidate_rows(), np.bincount(z, minlength=5)
        )


class TestSampleUniform:
    def test_returns_requested_count(self):
        sampler, _, _ = make_sampler()
        counts = sampler.sample_uniform(1000)
        assert counts.sum() == 1000
        assert counts.shape == (5, 4)

    def test_truncates_at_end_of_data(self):
        sampler, _, _ = make_sampler(n=100)
        counts = sampler.sample_uniform(1000)
        assert counts.sum() == 100
        assert sampler.fully_scanned

    def test_joint_counts_match_data(self):
        """Consuming everything must reproduce the exact joint histogram."""
        sampler, z, x = make_sampler(n=3000)
        counts = sampler.sample_uniform(3000)
        expected = np.zeros((5, 4), dtype=np.int64)
        np.add.at(expected, (z, x), 1)
        np.testing.assert_array_equal(counts, expected)

    def test_sampling_is_without_replacement(self):
        sampler, _, _ = make_sampler(n=1000)
        a = sampler.sample_uniform(600)
        b = sampler.sample_uniform(600)
        assert a.sum() == 600
        assert b.sum() == 400  # only 400 rows remained

    def test_uniformity_chi_square_like(self):
        """Sample proportions track true proportions within tolerance."""
        rng = np.random.default_rng(11)
        z = rng.choice(3, size=50_000, p=[0.6, 0.3, 0.1])
        x = np.zeros_like(z)
        sampler = ArraySampler(z, x, 3, 1, np.random.default_rng(5))
        counts = sampler.sample_uniform(10_000).sum(axis=1)
        np.testing.assert_allclose(counts / 10_000, [0.6, 0.3, 0.1], atol=0.02)


class TestSampleUntil:
    def test_meets_budgets(self):
        sampler, _, _ = make_sampler()
        needed = np.array([100.0, 0.0, 50.0, 0.0, 0.0])
        fresh = sampler.sample_until(needed)
        rows = fresh.sum(axis=1)
        assert rows[0] >= 100
        assert rows[2] >= 50

    def test_infinite_budget_consumes_candidate(self):
        sampler, z, _ = make_sampler(n=2000)
        needed = np.full(5, 0.0)
        needed[1] = np.inf
        fresh = sampler.sample_until(needed)
        assert fresh[1].sum() == np.bincount(z, minlength=5)[1]
        assert sampler.fully_scanned

    def test_zero_budget_reads_nothing(self):
        sampler, _, _ = make_sampler()
        fresh = sampler.sample_until(np.zeros(5))
        assert fresh.sum() == 0
        assert not sampler.fully_scanned

    def test_budget_capped_by_remaining_rows(self):
        """Asking for more than a candidate has must terminate, not loop."""
        rng = np.random.default_rng(2)
        z = np.concatenate([np.zeros(50, dtype=int), np.ones(950, dtype=int)])
        x = np.zeros(1000, dtype=int)
        sampler = ArraySampler(z, x, 2, 1, rng)
        fresh = sampler.sample_until(np.array([1e9, 0.0]))
        assert fresh[0].sum() == 50

    def test_shape_validation(self):
        sampler, _, _ = make_sampler()
        with pytest.raises(ValueError):
            sampler.sample_until(np.zeros(4))

    def test_delivered_rows_tracks_everything(self):
        sampler, _, _ = make_sampler(n=5000)
        sampler.sample_uniform(1000)
        sampler.sample_until(np.array([200.0, 0, 0, 0, 0]))
        delivered = sampler.delivered_rows()
        assert delivered.sum() >= 1200


class TestValidation:
    def test_rejects_bad_codes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ArraySampler(np.array([0, 5]), np.array([0, 0]), 2, 2, rng)
        with pytest.raises(ValueError):
            ArraySampler(np.array([0, 1]), np.array([0, 7]), 2, 2, rng)
        with pytest.raises(ValueError):
            ArraySampler(np.array([0, 1]), np.array([0]), 2, 2, rng)
        with pytest.raises(ValueError):
            ArraySampler(np.array([0]), np.array([0]), 2, 2, rng, batch_size=0)


# ---------------------------------------------------------------------------
# The delivered_rows() contract HistSim reads each call's row sums from
# ---------------------------------------------------------------------------


def contract_calls(num_candidates):
    """A stage-1 call, bounded and unbounded budgeted calls, then the rest:
    every kind of call HistSim makes, until the data runs out."""
    some = np.zeros(num_candidates)
    some[[0, 2, num_candidates - 1]] = np.inf, 60, 15
    return [
        lambda s: s.sample_uniform(700),
        lambda s: s.sample_until(some, max_rows=300),
        lambda s: s.sample_until(some, max_rows=300),
        lambda s: s.sample_until(np.full(num_candidates, 40.0)),
        lambda s: s.sample_uniform(0),
        lambda s: s.sample_until(np.full(num_candidates, np.inf), max_rows=900),
        lambda s: s.sample_until(np.full(num_candidates, np.inf)),
        lambda s: s.sample_until(np.full(num_candidates, np.inf)),  # nothing left
    ]


def contract_world(groups, block_size=25):
    """40 candidates over 240 blocks of 25 rows.  With 8-block windows (200
    rows) 4 groups (160 cells) count each window at once, 8 (320 cells)
    tally it and count once per call."""
    from repro.bitmap import build_bitmap_index
    from repro.storage import CategoricalAttribute, ColumnTable, Schema, shuffle_table

    rng = np.random.default_rng(groups)
    schema = Schema((
        CategoricalAttribute("z", tuple(f"z{i}" for i in range(40))),
        CategoricalAttribute("x", tuple(f"x{i}" for i in range(groups))),
    ))
    table = ColumnTable(schema, {
        "z": rng.integers(0, 40, size=6000), "x": rng.integers(0, groups, size=6000),
    })
    shuffled = shuffle_table(table, block_size, rng)
    return shuffled, build_bitmap_index(shuffled, "z")


class TestDeliveredRowsContract:
    """Every in-tree sampler grows ``delivered_rows()`` by exactly the row
    sums of each matrix it returns — what HistSim hands its state instead
    of summing the matrix again."""

    @pytest.mark.parametrize("backend_name", ["serial", "threads", "sharded"])
    def test_engine_keeps_the_delivered_rows_contract(
        self, delivered_rows_contract, backend_name
    ):
        from repro.parallel import ShardedBackend, ThreadPoolBackend, build_pair_codes
        from repro.sampling import AnyActiveLookaheadPolicy, BlockSamplingEngine
        from repro.storage import CostModel
        from repro.system import SimulatedClock

        backend = {
            "serial": lambda: None,
            "threads": lambda: ThreadPoolBackend(2, min_fan_out_rows=0),
            "sharded": lambda: ShardedBackend(2, min_fan_out_rows=0),
        }[backend_name]()
        try:
            for groups, deferred in ((4, False), (8, True)):
                shuffled, index = contract_world(groups)
                table = shuffled.table
                for counted in ("plain", "filtered", "folded"):
                    row_filter = table.column("x") < 3 if counted != "plain" else None
                    codes = None
                    if counted == "folded":
                        codes = build_pair_codes(
                            table.column("z"), table.column("x"), 40, groups,
                            row_filter=row_filter,
                        )
                    engine = BlockSamplingEngine(
                        shuffled=shuffled, candidate_attribute="z",
                        grouping_attribute="x", index=index, cost_model=CostModel(),
                        clock=SimulatedClock(), policy=AnyActiveLookaheadPolicy(),
                        window_blocks=8, row_filter=row_filter, start_block=37,
                        backend=backend, codes=codes,
                    )
                    assert engine._deferred == deferred
                    seen = 0
                    for call in contract_calls(40):
                        seen += delivered_rows_contract(engine, call).sum()
                    assert engine.fully_scanned and seen == engine.total_rows
        finally:
            if backend is not None:
                backend.close()

    def test_array_samplers_keep_the_delivered_rows_contract(
        self, delivered_rows_contract
    ):
        from repro.extensions.predicates import PredicateCandidateSampler
        from repro.extensions.sum_aggregation import MeasureBiasedSampler
        from repro.query import Equals, InRange

        shuffled, _ = contract_world(4)
        table = shuffled.table
        z, x = table.column("z"), table.column("x")
        rng = np.random.default_rng(3)
        samplers = [
            ArraySampler(z, x, 40, 4, rng, batch_size=256),
            MeasureBiasedSampler(
                z, x, rng.random(z.size), 40, 4, rng, batch_size=256
            ),
            PredicateCandidateSampler(
                table,
                [Equals("z", 3), InRange("z", 0, 20), InRange("z", 10, 40)]
                + [Equals("z", v) for v in range(37)],
                "x", rng, batch_size=256,
            ),
        ]
        for sampler in samplers:
            assert sampler.num_candidates == 40
            for call in contract_calls(40):
                delivered_rows_contract(sampler, call)
            assert sampler.fully_scanned
