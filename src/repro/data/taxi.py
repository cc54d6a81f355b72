"""Synthetic TAXI dataset (paper Table 2/3 regimes).

Seven attributes mirroring the paper's extraction from the 2013 NYC Yellow
Cab trips: pickup Location (7641 bins of 0.01°×0.01°), HourOfDay (24),
MonthOfYear (12), DayOfWeek (7), PassengerCount (6), TripMinutes (12 bins),
PaymentType (4).

The defining stress (paper Section 5.1): enormous candidate cardinality with
a huge low-selectivity tail — "more than 3000 candidates have fewer than 10
total datapoints".  Location sizes come in three bands:

- ~500 busy city locations holding most trips (these survive the default
  σ = 0.0008 pruning),
- ~3600 outskirt locations with double-digit row counts (mostly pruned),
- ~3541 locations with 1–10 rows (the paper's ultra-rare tail).

The planted geometry per query (see flights.py for the margin/selectivity
reasoning): a near-uniform cluster among the busiest locations (the
closest-to-uniform targets resolve these cheaply), low-selectivity
*stragglers* at mid distance that dominate the sampling tail — the phase
where AnyActive + lookahead beat sequential scanning — and a crowd of
heavily peaked profiles (business rush-hours, the paper's 3–5 am nightclub
bump, residential) far from uniform.

|V_Z| = 7641 also puts the bitmap index far outside L3: the SyncMatch
cache pathology regime of Section 5.4.
"""

from __future__ import annotations

import numpy as np

from ..storage.schema import CategoricalAttribute, Schema
from ..storage.table import ColumnTable
from .generator import (
    _one_of,
    assemble,
    at_distance,
    candidate_column,
    conditional_column,
    independent_column,
    sizes_from_weights,
    zipf_weights,
)
from .registry import Dataset

__all__ = ["build_taxi", "NUM_LOCATIONS"]

NUM_LOCATIONS = 7641
NUM_HOURS = 24
NUM_MONTHS = 12
NUM_DOW = 7
NUM_PASSENGERS = 6
NUM_TRIP_BINS = 12
NUM_PAYMENT = 4

DEFAULT_ROWS = 6_000_000

_NUM_BUSY = 500
#: Locations just below the σ threshold in size that nevertheless survive
#: stage 1 (the test lacks power right at the boundary).  They are sparse
#: (low per-block presence) yet numerous — the population that makes
#: synchronous per-block probing pathological (Section 5.4).
_NUM_BORDERLINE = 250
_NUM_MID = 3350

_FLAT_HOUR_CLUSTER = tuple(range(0, 10))
_HOUR_CLUSTER_DISTANCES = (0.03, 0.06, 0.09, 0.12, 0.15, 0.17, 0.19, 0.21, 0.23, 0.25)
_HOUR_STRAGGLERS = (497, 498, 499)
_HOUR_STRAGGLER_DISTANCE = 0.8

_FLAT_MONTH_CLUSTER = tuple(range(10, 20))
_MONTH_CLUSTER_DISTANCES = (0.03, 0.06, 0.09, 0.12, 0.15, 0.17, 0.19, 0.21, 0.23, 0.25)
_MONTH_STRAGGLERS = (494, 495, 496)
_MONTH_STRAGGLER_DISTANCE = 0.75

_RUSH_HOURS = (7, 8, 9, 17, 18, 19)
_NIGHT_HOURS = (0, 1, 2, 3, 4)
_RESIDENTIAL_HOURS = (6, 7, 18, 19, 20)

#: Selectivity floor of the busy band: 1.5x the paper's default sigma.
_BUSY_FLOOR_SHARE = 0.0012


def _location_sizes(rows: int, rng: np.random.Generator) -> np.ndarray:
    """Four-band selectivity profile (busy / borderline / outskirts / rare)."""
    sizes = np.zeros(NUM_LOCATIONS, dtype=np.int64)
    num_rare = NUM_LOCATIONS - _NUM_BUSY - _NUM_BORDERLINE - _NUM_MID

    # Ultra-rare tail first: 1-10 rows each (paper: >3000 such locations);
    # its total is tiny and scale-independent.
    sizes[-num_rare:] = rng.integers(1, 11, size=num_rare)
    rare_rows = int(sizes.sum())

    # Borderline band: 40-60% of the σ threshold — sparse but numerous
    # stage-1 survivors (the under-representation test lacks the power to
    # flag them at the default stage-1 sample size).
    sigma_rows = 0.0008 * rows
    lo, hi = int(0.4 * sigma_rows), int(0.6 * sigma_rows)
    borderline = rng.integers(max(lo, 2), max(hi, 3), size=_NUM_BORDERLINE)
    sizes[_NUM_BUSY : _NUM_BUSY + _NUM_BORDERLINE] = borderline
    borderline_rows = int(borderline.sum())

    mid_rows = max(int(0.06 * rows), 12 * _NUM_MID)
    busy_rows = rows - rare_rows - borderline_rows - mid_rows

    floor = max(2, int(np.ceil(_BUSY_FLOOR_SHARE * rows)))
    if busy_rows < _NUM_BUSY * floor:
        raise ValueError(
            f"TAXI needs more rows: busy band requires {_NUM_BUSY * floor}, "
            f"has {busy_rows}"
        )
    sizes[:_NUM_BUSY] = sizes_from_weights(
        zipf_weights(_NUM_BUSY, alpha=0.85), busy_rows, rng, min_rows=floor
    )
    # Boundary stragglers sit at the very bottom of the busy band; the
    # freed rows go to the largest location so totals stay exact.
    freed = 0
    for loc in _HOUR_STRAGGLERS + _MONTH_STRAGGLERS:
        pinned = floor + int(rng.integers(0, floor // 8 + 1))
        freed += int(sizes[loc]) - pinned
        sizes[loc] = pinned
    sizes[0] += freed

    # Outskirts: tens-to-hundreds of rows, mostly below sigma.
    start = _NUM_BUSY + _NUM_BORDERLINE
    sizes[start : start + _NUM_MID] = sizes_from_weights(
        zipf_weights(_NUM_MID, alpha=0.4), mid_rows, rng, min_rows=11
    )

    sizes[0] += rows - int(sizes.sum())
    return sizes


def build_taxi(rows: int = DEFAULT_ROWS, seed: int = 7) -> Dataset:
    """Build the synthetic TAXI dataset (deterministic given seed)."""
    min_rows = 350_000  # enough for all four selectivity bands at their floors
    if rows < min_rows:
        raise ValueError(f"TAXI needs at least {min_rows} rows, got {rows}")
    rng = np.random.default_rng(seed)
    sizes = _location_sizes(rows, rng)

    uniform_hours = np.full(NUM_HOURS, 1.0 / NUM_HOURS)
    uniform_months = np.full(NUM_MONTHS, 1.0 / NUM_MONTHS)

    hours = np.zeros((NUM_LOCATIONS, NUM_HOURS))
    for loc, distance in zip(_FLAT_HOUR_CLUSTER, _HOUR_CLUSTER_DISTANCES):
        hours[loc] = at_distance(uniform_hours, distance, rng, jitter=50_000.0)
    for loc in _HOUR_STRAGGLERS:
        peak = _one_of(_RUSH_HOURS, rng)
        hours[loc] = at_distance(
            uniform_hours, _HOUR_STRAGGLER_DISTANCE, rng, peak=peak, jitter=20_000.0
        )

    months = np.zeros((NUM_LOCATIONS, NUM_MONTHS))
    for loc, distance in zip(_FLAT_MONTH_CLUSTER, _MONTH_CLUSTER_DISTANCES):
        months[loc] = at_distance(uniform_months, distance, rng, jitter=50_000.0)
    for loc in _MONTH_STRAGGLERS:
        peak = int(rng.integers(0, NUM_MONTHS))
        months[loc] = at_distance(
            uniform_months, _MONTH_STRAGGLER_DISTANCE, rng, peak=peak, jitter=20_000.0
        )

    # The crowd: heavily peaked shapes far from uniform.  kind 0 = business
    # rush hours, kind 1 = nightlife (the 3-5 am bump), kind 2 = residential.
    kinds = rng.integers(0, 3, size=NUM_LOCATIONS)
    crowd_hour_distance = rng.uniform(1.45, 1.7, size=NUM_LOCATIONS)
    crowd_month_distance = rng.uniform(1.2, 1.4, size=NUM_LOCATIONS)
    crowd_peak_hours = (_RUSH_HOURS, _NIGHT_HOURS, _RESIDENTIAL_HOURS)
    # Step ``loc`` fills only row ``loc``, so the rows planted above are the
    # only ones with mass at every step.
    hour_planted = hours.any(axis=1)
    month_planted = months.any(axis=1)
    for loc in range(NUM_LOCATIONS):
        if not hour_planted[loc]:
            peak = _one_of(crowd_peak_hours[kinds[loc]], rng)
            hours[loc] = at_distance(
                uniform_hours, float(crowd_hour_distance[loc]), rng, peak=peak,
                jitter=5_000.0,
            )
        if not month_planted[loc]:
            months[loc] = at_distance(
                uniform_months, float(crowd_month_distance[loc]), rng,
                peak=int(rng.integers(0, NUM_MONTHS)), jitter=5_000.0,
            )

    z = candidate_column(sizes)
    columns = {
        "location": z,
        "hour_of_day": conditional_column(sizes, hours, rng),
        "month_of_year": conditional_column(sizes, months, rng),
        "day_of_week": independent_column(
            rows, np.array([1.0, 1.0, 1.0, 1.05, 1.2, 1.35, 1.1]), rng
        ),
        "passenger_count": independent_column(
            rows, np.array([0.72, 0.14, 0.05, 0.03, 0.04, 0.02]), rng
        ),
        "trip_minutes": independent_column(
            rows, np.exp(-0.3 * np.arange(NUM_TRIP_BINS)), rng
        ),
        "payment_type": independent_column(rows, np.array([0.55, 0.4, 0.03, 0.02]), rng),
    }
    columns = assemble(columns, rng)

    schema = Schema(
        (
            CategoricalAttribute(
                "location", tuple(f"L{i:04d}" for i in range(NUM_LOCATIONS))
            ),
            CategoricalAttribute("hour_of_day", tuple(f"{h:02d}h" for h in range(NUM_HOURS))),
            CategoricalAttribute(
                "month_of_year",
                ("jan", "feb", "mar", "apr", "may", "jun",
                 "jul", "aug", "sep", "oct", "nov", "dec"),
            ),
            CategoricalAttribute(
                "day_of_week", ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
            ),
            CategoricalAttribute(
                "passenger_count", tuple(f"p{i + 1}" for i in range(NUM_PASSENGERS))
            ),
            CategoricalAttribute(
                "trip_minutes", tuple(f"trip_bin{i}" for i in range(NUM_TRIP_BINS))
            ),
            CategoricalAttribute("payment_type", ("card", "cash", "dispute", "other")),
        )
    )
    table = ColumnTable(schema, columns)
    return Dataset(
        name="taxi",
        table=table,
        metadata={
            "q1_cluster": _FLAT_HOUR_CLUSTER,
            "q1_stragglers": _HOUR_STRAGGLERS,
            "q2_cluster": _FLAT_MONTH_CLUSTER,
            "q2_stragglers": _MONTH_STRAGGLERS,
            "busy_band": _NUM_BUSY,
            "ultra_rare_tail": NUM_LOCATIONS - _NUM_BUSY - _NUM_MID,
        },
    )
