"""Tests for the synthetic datasets, generator machinery, and workloads."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import candidate_distances, l1_distance
from repro.core.target import uniform_target
from repro.data import (
    QUERY_NAMES,
    at_distance,
    build_flights,
    build_police,
    build_taxi,
    jittered,
    load_dataset,
    mixture,
    peaked,
    prepare_workload,
    sizes_from_weights,
    workload_query,
    zipf_weights,
)
from repro.data.flights import ATW, ORD
from repro.data import generator
from repro.data.generator import _inverse_cdf, _one_of, conditional_column, independent_column
from repro.query import HistogramQuery, exact_candidate_counts

FLIGHTS_TEST_ROWS = 120_000
TAXI_TEST_ROWS = 400_000
POLICE_TEST_ROWS = 150_000


class TestGeneratorPrimitives:
    def test_zipf_weights_normalized_descending(self):
        w = zipf_weights(100, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_zipf_alpha_zero_is_uniform(self):
        np.testing.assert_allclose(zipf_weights(5, 0.0), np.full(5, 0.2))

    def test_sizes_exact_total(self):
        rng = np.random.default_rng(0)
        sizes = sizes_from_weights(zipf_weights(50, 1.0), 10_000, rng)
        assert sizes.sum() == 10_000

    def test_sizes_floor_respected_and_shape_kept(self):
        rng = np.random.default_rng(1)
        sizes = sizes_from_weights(zipf_weights(50, 1.2), 100_000, rng, min_rows=500)
        assert sizes.sum() == 100_000
        assert sizes.min() >= 500
        assert sizes[0] > 5 * sizes[-1]  # skew survives the flooring

    def test_sizes_infeasible_floor_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            sizes_from_weights(zipf_weights(10, 1.0), 50, rng, min_rows=10)

    def test_jittered_concentration_controls_distance(self):
        rng = np.random.default_rng(3)
        base = np.full(24, 1.0 / 24)
        close = np.mean(
            [l1_distance(jittered(base, 5000.0, rng), base) for _ in range(20)]
        )
        far = np.mean([l1_distance(jittered(base, 50.0, rng), base) for _ in range(20)])
        assert close < far

    def test_peaked_and_mixture(self):
        p = peaked(4, 2, 0.6)
        assert p.sum() == pytest.approx(1.0)
        assert p[2] == p.max()
        m = mixture([p, np.full(4, 0.25)], [0.5, 0.5])
        assert m.sum() == pytest.approx(1.0)

    @given(
        st.integers(min_value=2, max_value=48),
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80)
    def test_at_distance_exact_placement(self, groups, fraction, seed):
        rng = np.random.default_rng(seed)
        base = np.full(groups, 1.0 / groups)
        # Feasible range: a single peak can move at most 2(1 - 1/groups).
        distance = fraction * 2.0 * (1.0 - 1.0 / groups)
        out = at_distance(base, distance, rng)
        assert out.sum() == pytest.approx(1.0)
        assert l1_distance(out, base) == pytest.approx(distance, abs=1e-9)

    def test_at_distance_validation(self):
        rng = np.random.default_rng(0)
        base = np.full(4, 0.25)
        with pytest.raises(ValueError):
            at_distance(base, 2.0, rng)
        with pytest.raises(ValueError):
            at_distance(base, 1.9, rng, peak=0)  # headroom 0.75: max 1.5
        with pytest.raises(ValueError):
            at_distance(np.array([1.0]), 0.5, rng, peak=0)


def _reference_jittered(base, concentration, rng):
    """The original body of ``jittered``: the oracle its rewrite must equal."""
    base = np.asarray(base, dtype=np.float64)
    if concentration <= 0:
        raise ValueError(f"concentration must be positive, got {concentration}")
    if np.any(base < 0) or base.sum() <= 0:
        raise ValueError("base must be non-negative with positive mass")
    alpha = base / base.sum() * concentration
    alpha = np.maximum(alpha, 1e-3)
    return rng.dirichlet(alpha)


def _reference_at_distance(base, distance, rng, peak=None, jitter=0.0, peaks=1):
    """The original body of ``at_distance``: the oracle its rewrite must equal."""
    base = np.asarray(base, dtype=np.float64)
    if np.any(base < 0) or base.sum() <= 0:
        raise ValueError("base must be non-negative with positive mass")
    base = base / base.sum()
    if not 0.0 <= distance < 2.0:
        raise ValueError(f"L1 distance must be in [0, 2), got {distance}")
    if peak is None:
        if not 1 <= peaks <= base.size:
            raise ValueError(f"peaks must be in [1, {base.size}], got {peaks}")
        peak_idx = rng.choice(base.size, size=peaks, replace=False)
    else:
        peak_idx = np.atleast_1d(np.asarray(peak, dtype=np.int64))
    if peak_idx.size == 0 or np.any(peak_idx < 0) or np.any(peak_idx >= base.size):
        raise ValueError(f"peak indices out of range: {peak_idx}")
    k = peak_idx.size
    if np.any(base[peak_idx] > 1.0 / k):
        peak_idx = np.argsort(base, kind="stable")[:k]
    headroom = 1.0 - float(base[peak_idx].sum())
    if headroom <= 0:
        raise ValueError("base already concentrates all mass on the peaks")
    take = distance / (2.0 * headroom)
    if take > 1.0:
        raise ValueError(f"distance {distance} unreachable")
    out = base * (1.0 - take)
    out[peak_idx] += take / k
    if jitter > 0:
        out = _reference_jittered(out, jitter, rng)
    return out


def _reference_conditional_column(sizes, distributions, rng):
    """One fully checked ``rng.choice`` per candidate: the draws
    ``conditional_column`` must reproduce, in the same order."""
    parts = [
        rng.choice(distributions.shape[1], size=int(size), p=dist / dist.sum())
        for size, dist in zip(sizes, distributions)
        if size
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return ValueError


_BASES = {
    "uniform24": np.full(24, 1.0 / 24),
    "hub24": np.r_[np.full(6, 0.35), 6.35, 6.35, 4.35, np.full(15, 0.35)],
    "sparse7": np.array([0.0, 2.0, 0.0, 1.0, 1.0, 0.0, 4.0]),
    "skewed4": np.array([0.7, 0.1, 0.1, 0.1]),  # peak 0 is overloaded for k = 2
    "wide351": np.linspace(1.0, 3.0, 351),
}


def _peak_grid(size):
    """``(peak, peaks)`` pairs: random peaks 1..k, int and array peaks."""
    every = range(1, size + 1) if size <= 24 else (1, 2, 3, 5, 12, 100, size)
    grid = [(None, peaks) for peaks in every]
    grid += [(0, 1), (size - 1, 1), (np.int64(size // 2), 1), (size, 1), (-1, 1)]
    grid += [(np.array([0, 1]), 1), (np.arange(size), 1), (np.array([], int), 1)]
    return grid


class _FixedUniforms(np.random.Generator):
    """A generator whose ``random`` hands out given values, in order.

    ``Generator.choice`` draws its uniforms through ``self.random``, so the
    oracle sees the same values the helper under test does.
    """

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self._uniforms = np.asarray(uniforms, dtype=np.float64)

    def random(self, size=None, dtype=np.float64, out=None):
        drawn, self._uniforms = np.split(self._uniforms, [int(np.prod(size))])
        return drawn.reshape(size)


class TestGeneratorOracles:
    """The generator's helpers draw exactly what their ``rng`` oracles draw."""

    @pytest.mark.parametrize("base_name", sorted(_BASES))
    @pytest.mark.parametrize("jitter", [0.0, 50.0, 5_000.0])
    def test_at_distance_equals_reference(self, base_name, jitter):
        base = _BASES[base_name]
        for peak, peaks in _peak_grid(base.size):
            for distance in (0.0, 0.3, 1.2, 1.6, 1.99):
                for seed in range(3):
                    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = _outcome(
                        at_distance, base, distance, ours, peak=peak,
                        jitter=jitter, peaks=peaks,
                    )
                    want = _outcome(
                        _reference_at_distance, base, distance, ref, peak=peak,
                        jitter=jitter, peaks=peaks,
                    )
                    if want is ValueError:
                        assert got is ValueError, (peak, peaks, distance)
                        continue
                    assert got.dtype == np.float64
                    np.testing.assert_array_equal(got, want)
                    assert ours.bit_generator.state == ref.bit_generator.state

    def test_at_distance_list_base_and_unnormalised_base(self):
        for base in ([1, 2, 3, 4], np.array([3.0, 0.0, 9.0])):
            for peak in (None, 1):
                ours, ref = np.random.default_rng(5), np.random.default_rng(5)
                np.testing.assert_array_equal(
                    at_distance(base, 0.4, ours, peak=peak, jitter=100.0),
                    _reference_at_distance(base, 0.4, ref, peak=peak, jitter=100.0),
                )
                assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("base_name", sorted(_BASES))
    @pytest.mark.parametrize("concentration", [0.01, 1.0, 50.0, 50_000.0])
    def test_jittered_equals_reference(self, base_name, concentration):
        for seed in range(5):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(
                jittered(_BASES[base_name], concentration, ours),
                _reference_jittered(_BASES[base_name], concentration, ref),
            )
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_jittered_validation(self):
        rng = np.random.default_rng(0)
        for base, concentration in (
            (np.full(3, 1 / 3), 0.0),
            (np.zeros(3), 1.0),
            (np.array([0.5, -0.1, 0.6]), 1.0),
            (np.array([np.nan, -1.0]), 1.0),
        ):
            with pytest.raises(ValueError):
                jittered(base, concentration, rng)

    @given(
        sizes=st.lists(
            st.one_of(st.just(0), st.just(1), st.integers(0, 3_000)),
            min_size=1, max_size=12,
        ),
        num_groups=st.integers(min_value=1, max_value=400),
        sparsity=st.sampled_from([0.0, 0.5, 0.95]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_conditional_column_equals_choice_loop(
        self, sizes, num_groups, sparsity, seed
    ):
        setup = np.random.default_rng(seed)
        dists = setup.random((len(sizes), num_groups))
        dists[setup.random(dists.shape) < sparsity] = 0.0
        dists[:, setup.integers(0, num_groups)] += 0.01  # every row has mass
        ours, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = conditional_column(np.array(sizes), dists, ours)
        want = _reference_conditional_column(sizes, dists, ref)
        # The storage width, ColumnTable's rule: uint8 to 256 groups, then uint16.
        width = np.uint8 if num_groups <= 256 else np.uint16
        assert got.dtype == width and got.shape == (sum(sizes),)
        np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_conditional_column_ties_on_cdf_values(self):
        """Uniforms that land exactly on a CDF value, or one ulp either side
        of one, before or after the CDF's normalisation, pick the group
        ``rng.choice`` picks (its ``searchsorted`` is ``side="right"``)."""
        setup = np.random.default_rng(0)
        unnormalised = next(  # a row whose CDF does not end at exactly 1.0
            row
            for row in setup.random((1_000, 30))
            if np.cumsum(row / row.sum())[-1] != 1.0
        )
        dists = np.array(
            [[1.0, 1.0, 0.0, 2.0], [0.0, 3.0, 0.0, 1.0], [0.25, 0.25, 0.25, 0.25]]
        )
        for rows in (dists, unnormalised[None, :]):
            uniforms = []
            for row in rows:
                raw = np.cumsum(row / row.sum())
                for edge in np.r_[0.0, raw, raw / raw[-1]]:
                    uniforms += [edge, np.nextafter(edge, 0), np.nextafter(edge, 1)]
            uniforms = np.array([u for u in uniforms if 0.0 <= u < 1.0])
            sizes = np.full(len(rows), uniforms.size // len(rows))
            sizes[0] += uniforms.size - sizes.sum()
            got = conditional_column(sizes, rows, _FixedUniforms(uniforms))
            want = _reference_conditional_column(
                sizes, rows, _FixedUniforms(uniforms)
            )
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("num_groups", [1, 2, 5, 31, 351, 5_000])
    def test_inverse_cdf_is_searchsorted(self, num_groups):
        """The bucket table answers exactly what the search answers, for
        uniforms on bucket edges, on CDF entries and one ulp either side."""
        rng = np.random.default_rng(num_groups)
        dist = rng.random(num_groups)
        dist[rng.random(num_groups) < 0.3] = 0.0
        dist[0] += 1e-3
        cdf = np.cumsum(dist / dist.sum())
        cdf /= cdf[-1]
        edges = np.arange(1 << generator._BUCKET_BITS) / (1 << generator._BUCKET_BITS)
        special = np.r_[edges, cdf]
        uniforms = np.r_[
            rng.random(20_000), special, np.nextafter(special, 0), np.nextafter(special, 1)
        ]
        uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
        np.testing.assert_array_equal(
            _inverse_cdf(cdf, uniforms, generator._bucket_table(cdf)),
            cdf.searchsorted(uniforms, side="right"),
        )

    @pytest.mark.parametrize("num_groups", [2, 24, 351])
    def test_conditional_column_large_candidates(self, num_groups):
        """Candidates above the bucket-table threshold draw as choice does."""
        rng = np.random.default_rng(num_groups)
        dists = rng.random((4, num_groups))
        sizes = [generator._BUCKET_MIN_ROWS + 3, 0, 5, 2 * generator._BUCKET_MIN_ROWS]
        ours, ref = np.random.default_rng(1), np.random.default_rng(1)
        np.testing.assert_array_equal(
            conditional_column(np.array(sizes), dists, ours),
            _reference_conditional_column(sizes, dists, ref),
        )
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("chunk_rows", [7, 1_000, 4_097])
    @pytest.mark.parametrize("num_groups", [2, 24, 351])
    def test_draws_spanning_chunks_equal_choice(
        self, monkeypatch, chunk_rows, num_groups
    ):
        """Draws cut into many ``_DRAW_CHUNK_ROWS`` chunks, below and above
        the bucket-table threshold, equal ``rng.choice`` value for value and
        leave the generator where it leaves it."""
        monkeypatch.setattr(generator, "_DRAW_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(num_groups)
        dists = rng.random((5, num_groups))
        big = generator._BUCKET_MIN_ROWS
        sizes = [big + 3, 0, chunk_rows + 1, 2 * big, chunk_rows]
        ours, ref = np.random.default_rng(4), np.random.default_rng(4)
        np.testing.assert_array_equal(
            conditional_column(np.array(sizes), dists, ours),
            _reference_conditional_column(sizes, dists, ref),
        )
        assert ours.bit_generator.state == ref.bit_generator.state
        for total_rows in (chunk_rows - 1, chunk_rows, 3 * chunk_rows + 2, big + 5):
            got = independent_column(total_rows, dists[0], ours)
            want = ref.choice(num_groups, size=total_rows, p=dists[0] / dists[0].sum())
            np.testing.assert_array_equal(got, want)
            assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("num_groups", [1, 2, 12, 31, 400])
    @pytest.mark.parametrize("total_rows", [0, 1, 1_000, 70_000])
    def test_independent_column_equals_choice(self, num_groups, total_rows):
        dist = np.random.default_rng(num_groups).random(num_groups) + 0.01
        ours, ref = np.random.default_rng(2), np.random.default_rng(2)
        got = independent_column(total_rows, dist, ours)
        want = ref.choice(num_groups, size=total_rows, p=dist / dist.sum())
        assert got.dtype == (np.uint8 if num_groups <= 256 else np.uint16)
        np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("total_rows", [0, 10])
    @pytest.mark.parametrize(
        "dist",
        [
            np.zeros(3),
            np.array([0.5, -0.1, 0.6]),
            np.array([0.5, np.nan]),
            np.array([0.5, np.inf]),
            np.full((2, 2), 0.25),
        ],
    )
    def test_independent_column_rejects_what_choice_rejected(self, total_rows, dist):
        with pytest.raises(ValueError):
            independent_column(total_rows, dist, np.random.default_rng(0))

    def test_conditional_column_skips_empty_candidates(self):
        """A size-0 candidate draws nothing and is not checked (as before)."""
        dists = np.array([[0.0, 0.0], [1.0, 3.0], [np.nan, -1.0]])
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        got = conditional_column(np.array([0, 5, 0]), dists, ours)
        np.testing.assert_array_equal(
            got, _reference_conditional_column([0, 5, 0], dists, ref)
        )
        assert ours.bit_generator.state == ref.bit_generator.state
        empty = conditional_column(np.zeros(3, int), dists, ours)
        assert empty.dtype == np.uint8 and empty.size == 0

    @pytest.mark.parametrize(
        "sizes, dists",
        [
            ([3, 4], np.full((3, 2), 0.5)),                  # ragged: rows != sizes
            ([3, 4], np.full(2, 0.5)),                       # not 2-D
            ([3, 4], np.array([[0.5, 0.5], [0.0, 0.0]])),    # zero mass, live
            ([3, 4], np.array([[0.5, 0.5], [1.5, -0.5]])),   # negative entry
            ([3, 4], np.array([[0.5, 0.5], [np.nan, 1.0]])), # NaN entry
            ([3, 4], np.array([[0.5, 0.5], [np.inf, 1.0]])), # infinite entry
            ([3, -1], np.full((2, 2), 0.5)),                 # negative size
        ],
    )
    def test_conditional_column_rejects_what_choice_rejected(self, sizes, dists):
        """NaN needs its own check: searchsorted over a NaN CDF answers
        silently, where ``rng.choice`` raised."""
        with pytest.raises(ValueError):
            conditional_column(np.array(sizes), dists, np.random.default_rng(0))

    def test_one_of_draws_as_choice_does(self):
        for options in ((7, 8, 9, 17, 18, 19), (0, 1, 2, 3, 4), (5,)):
            ours, ref = np.random.default_rng(11), np.random.default_rng(11)
            for _ in range(200):
                assert _one_of(options, ours) == int(ref.choice(options))
            assert ours.bit_generator.state == ref.bit_generator.state


#: sha256 of every column the builders make at seed 7, recorded before the
#: generator lost its per-candidate overhead.  Byte identity is the
#: contract: a change that moves one of these moves every answer pinned
#: downstream.  (The e2e smoke run leaves TAXI out, so this is its guard.)
#: NumPy does not promise a ``Generator`` draws the same stream across
#: releases (NEP 19), so the pins hold for the release series they were
#: recorded under, ``_PINNED_NUMPY``.
_PINNED_NUMPY = "2.4"
_COLUMN_SHA256 = {
    ("flights", 20_000): {
        "origin": "8b49a7e8f92557a8b5e7e946970ef8b10908e366520bc6acc78baedb5e96e1ed",
        "dest": "5ba4dfd4f40d60d942eed9165c4505ca0e9c25b326d001095a6a49611bc02da7",
        "dep_hour": "f9aa2b08d3327a89507e975f2b84e6a1c804a2d0b9bbdae6e0b336e651947f8c",
        "day_of_week": "2b75e880bedcd1784cb21a746db740cea0c0782966310d3af12ee44255079f8d",
        "day_of_month": "191dece409ab64a545da8a1c062d897f72a84b2565ded2fe85c29ca65a0b1d88",
        "dep_delay": "d2627956698f62a9b303d9ef05004932c567156237226772d8d6c663a145651e",
        "arr_delay": "a2dd8597fc7ff3a318ab5737d2448cb0c136d963ed3f94b0125234681b89b67a",
    },
    ("police", 50_000): {
        "road": "129bb96fc018f378d209bc4c7f4de1bd686917bf4ead0bf9094915e23f40ae7e",
        "county": "37afe115584cea2ad8b21b06d2b80a65606548128469a63150946944204490e8",
        "contraband_found": "e30e3474a205ab61acc8b00554293608902f880b3c45ee50213fffbf51f04ec9",
        "officer_race": "a6bda08e2b6b261c364342a252bb28918c3c358945b06460b1bffc3baef9f6a5",
        "violation": "acd5b03af0361fdbc67f8640c399038a79d0c4c55e1d40891d5bc2cba792bd84",
        "driver_gender": "cd08e9d58aa7fa6f6a11ca9a9ad3cee05cd684ca9431cf56ad8fbf3d4a78a166",
        "officer_gender": "f59aba56f3bcb87e00b20326e86d7fef61132bf99cce7ae36736ed5c399c92c7",
        "driver_race": "454a0237901921d0fa068108679eabd5ab436e21cdafe7acff329bf18245bff4",
        "stop_outcome": "07657d662dc632b055dc5233a68e86da9c3a1502805d7797da99098a756b1194",
        "search_conducted": "9a617daedf232fa1a5835948520b698a5f99fa5c120ec518860d15092f573821",
    },
    ("taxi", 350_000): {
        "location": "4b88a13045a3a41a091cecd12d409e869e0522c8bdf04aa005eeeaa81ecbb615",
        "hour_of_day": "e53bcf378a96faaa140f38641118e6315a9b24e36c519173cb6c583255514c2e",
        "month_of_year": "94c2fcd0872d0fca44557c6eb8d945a60d913afdd807bddead2801547bd9a99b",
        "day_of_week": "e3512c32e580f653c92e9f1e23f92f446c9006691aecfb13f1191299842f3d70",
        "passenger_count": "ccc9ab92ccf5740f795ea9165e120f0debc4764645dbb8417b9089725d50b433",
        "trip_minutes": "1ccfc1601a6071a6dcbe85d3f30a0f11e5e18e9e0bd3f4eba62a36916e591afa",
        "payment_type": "f1f4630d02a7c2d88bbcce0cade5f03d278d8fedf7052a2af6fb1a0dabb0aca5",
    },
}


@pytest.mark.parametrize("dataset, rows", sorted(_COLUMN_SHA256))
def test_builder_columns_are_pinned(dataset, rows):
    if np.__version__.split(".")[:2] != _PINNED_NUMPY.split("."):
        pytest.skip(f"pins recorded under NumPy {_PINNED_NUMPY}, running {np.__version__}")
    build = {"flights": build_flights, "police": build_police, "taxi": build_taxi}
    table = build[dataset](rows=rows, seed=7).table
    got = {
        name: hashlib.sha256(table.column(name).tobytes()).hexdigest()
        for name in table.schema.names
    }
    assert got == _COLUMN_SHA256[(dataset, rows)]


def test_builder_peaks_near_its_table():
    """Columns are drawn and permuted at their stored width: building POLICE
    peaks at no more than four times the table it returns (drawing at int64
    and narrowing in ``ColumnTable`` peaked near fifteen times)."""
    tracemalloc.start()
    try:
        table = build_police(rows=200_000, seed=7).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * table.nbytes


@pytest.fixture(scope="module")
def flights():
    return build_flights(rows=FLIGHTS_TEST_ROWS, seed=7)


@pytest.fixture(scope="module")
def taxi():
    return build_taxi(rows=TAXI_TEST_ROWS, seed=7)


@pytest.fixture(scope="module")
def police():
    return build_police(rows=POLICE_TEST_ROWS, seed=7)


class TestFlights:
    def test_schema_matches_table2(self, flights):
        assert flights.table.schema.cardinality("origin") == 347
        assert flights.table.schema.cardinality("dest") == 351
        assert flights.table.schema.cardinality("dep_hour") == 24
        assert flights.table.schema.cardinality("day_of_week") == 7
        assert len(flights.table.schema.names) == 7
        assert flights.num_rows == FLIGHTS_TEST_ROWS

    def test_ord_is_largest_origin(self, flights):
        sizes = flights.table.value_counts("origin")
        assert int(np.argmax(sizes)) == ORD

    def test_q1_cluster_closest_to_ord(self, flights):
        counts = exact_candidate_counts(
            flights.table, HistogramQuery("origin", "dep_hour")
        )
        d = candidate_distances(counts, counts[ORD])
        top10 = set(np.argsort(d)[:10].tolist())
        assert top10 == set(flights.metadata["q1_cluster"])

    def test_q2_cluster_small_and_closest_to_atw(self, flights):
        counts = exact_candidate_counts(
            flights.table, HistogramQuery("origin", "dep_hour")
        )
        sizes = counts.sum(axis=1)
        d = candidate_distances(counts, counts[ATW])
        top10 = set(np.argsort(d)[:10].tolist())
        assert top10 == set(flights.metadata["q2_cluster"])
        # Rare top-k: every cluster member is far smaller than the hubs.
        assert sizes[list(top10)].max() < sizes[ORD] / 10

    def test_q3_monday_heavy_cluster(self, flights):
        counts = exact_candidate_counts(
            flights.table, HistogramQuery("origin", "day_of_week")
        )
        target = np.array([0.25] + [0.125] * 6)
        d = candidate_distances(counts, target)
        top5 = set(np.argsort(d)[:5].tolist())
        assert top5 == set(flights.metadata["q3_cluster"])

    def test_deterministic_given_seed(self):
        a = build_flights(rows=30_000, seed=3)
        b = build_flights(rows=30_000, seed=3)
        np.testing.assert_array_equal(a.table.column("origin"), b.table.column("origin"))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            build_flights(rows=100)


class TestTaxi:
    def test_schema_matches_table2(self, taxi):
        assert taxi.table.schema.cardinality("location") == 7641
        assert taxi.table.schema.cardinality("hour_of_day") == 24
        assert taxi.table.schema.cardinality("month_of_year") == 12
        assert len(taxi.table.schema.names) == 7

    def test_ultra_rare_tail_matches_paper(self, taxi):
        """Paper: more than 3000 candidates have fewer than 10 datapoints."""
        sizes = taxi.table.value_counts("location")
        assert (sizes <= 10).sum() > 3000

    def test_flat_cluster_closest_to_uniform(self, taxi):
        counts = exact_candidate_counts(
            taxi.table, HistogramQuery("location", "hour_of_day")
        )
        sizes = counts.sum(axis=1)
        d = candidate_distances(counts, uniform_target(24))
        eligible = sizes >= 0.0008 * taxi.num_rows
        d = np.where(eligible, d, np.inf)
        top10 = set(np.argsort(d)[:10].tolist())
        assert top10 == set(taxi.metadata["q1_cluster"])

    def test_stragglers_low_selectivity(self, taxi):
        sizes = taxi.table.value_counts("location")
        sigma_rows = 0.0008 * taxi.num_rows
        for loc in taxi.metadata["q1_stragglers"]:
            assert sigma_rows <= sizes[loc] < 2.2 * sigma_rows

    def test_borderline_band_below_sigma(self, taxi):
        sizes = taxi.table.value_counts("location")
        band = sizes[500:750]
        sigma_rows = 0.0008 * taxi.num_rows
        assert np.all(band < sigma_rows)
        assert np.all(band >= 0.35 * sigma_rows)


class TestPolice:
    def test_schema_matches_table2(self, police):
        assert police.table.schema.cardinality("road") == 210
        assert police.table.schema.cardinality("violation") == 2110
        assert police.table.schema.cardinality("contraband_found") == 2
        assert police.table.schema.cardinality("officer_race") == 5
        assert len(police.table.schema.names) == 10

    def test_q1_cluster_near_even_contraband(self, police):
        counts = exact_candidate_counts(
            police.table, HistogramQuery("road", "contraband_found")
        )
        d = candidate_distances(counts, uniform_target(2))
        top10 = set(np.argsort(d)[:10].tolist())
        assert top10 == set(police.metadata["q1_cluster"])

    def test_q3_cluster_among_frequent_violations(self, police):
        counts = exact_candidate_counts(
            police.table, HistogramQuery("violation", "driver_gender")
        )
        sizes = counts.sum(axis=1)
        d = candidate_distances(counts, uniform_target(2))
        eligible = sizes >= 0.0008 * police.num_rows
        d = np.where(eligible, d, np.inf)
        top5 = set(np.argsort(d)[:5].tolist())
        assert top5 == set(police.metadata["q3_cluster"])

    def test_violation_tail_below_sigma(self, police):
        """q3 exercises stage-1 pruning: most violations are rare."""
        sizes = police.table.value_counts("violation")
        assert (sizes < 0.0008 * police.num_rows).sum() > 1500


class TestWorkloads:
    def test_all_nine_queries_defined(self):
        assert len(QUERY_NAMES) == 9
        for name in QUERY_NAMES:
            dataset_name, query = workload_query(name)
            assert dataset_name in ("flights", "taxi", "police")
            assert query.name == name

    def test_table3_cardinalities_and_k(self):
        _, q = workload_query("flights-q4")
        assert (q.candidate_attribute, q.grouping_attribute, q.k) == ("origin", "dest", 10)
        _, q = workload_query("taxi-q1")
        assert (q.candidate_attribute, q.grouping_attribute, q.k) == (
            "location", "hour_of_day", 10,
        )
        _, q = workload_query("police-q3")
        assert (q.candidate_attribute, q.grouping_attribute, q.k) == (
            "violation", "driver_gender", 5,
        )

    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError):
            workload_query("flights-q9")

    def test_prepare_workload_caches(self):
        a = prepare_workload("flights-q3", rows=FLIGHTS_TEST_ROWS, seed=7)
        b = prepare_workload("flights-q3", rows=FLIGHTS_TEST_ROWS, seed=7)
        assert a is b
        assert a.exact_counts.shape == (347, 7)
        assert a.target.shape == (7,)

    def test_prepare_workload_shares_index(self):
        """Queries over one candidate attribute share one bitmap index."""
        q1, q2, q3, q4 = (
            prepare_workload(f"flights-q{i}", rows=FLIGHTS_TEST_ROWS, seed=7)
            for i in (1, 2, 3, 4)
        )
        assert q1.index is q2.index is q3.index is q4.index
        other_seed = prepare_workload("flights-q1", rows=FLIGHTS_TEST_ROWS, seed=8)
        assert other_seed.index is not q1.index
        other_block = prepare_workload(
            "flights-q1", rows=FLIGHTS_TEST_ROWS, seed=7, block_size=64
        )
        assert other_block.index is not q1.index
        assert other_block.index.num_blocks == -(-FLIGHTS_TEST_ROWS // 64)

    def test_load_dataset_caches_and_validates(self):
        a = load_dataset("flights", rows=30_000, seed=3)
        b = load_dataset("flights", rows=30_000, seed=3)
        assert a is b
        with pytest.raises(ValueError):
            load_dataset("stocks")
