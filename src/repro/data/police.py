"""Synthetic POLICE dataset (paper Table 2/3 regimes).

Ten attributes mirroring the paper's extraction from the Washington state
road-stop records: County (39), RoadID (210), DriverGender (2),
OfficerGender (2), DriverRace (5), OfficerRace (5), Violation (2110),
StopOutcome (6), SearchConducted (2), ContrabandFound (2).

Query regimes (Table 3; see flights.py for the margin/selectivity design
reasoning):

- **q1** — Z=RoadID, X=ContrabandFound (binary): most roads find contraband
  rarely (p ≈ 0.03–0.10, far from uniform); a planted cluster of busy roads
  sits near p = 0.5 plus two low-selectivity stragglers at p = 0.25 that
  drive the sampling tail.  Frequent top-k.
- **q2** — Z=RoadID, X=OfficerRace (5 groups): the crowd is dominated by a
  majority race; a planted cluster patrols with a near-uniform mix.  No
  stragglers: the paper's easiest query (largest speedups).
- **q3** — Z=Violation (2110 values, Zipf tail below σ), X=DriverGender:
  the crowd skews heavily male; a planted cluster of frequent violations
  sits near 0.5, plus two low-selectivity stragglers.  High-cardinality Z —
  the SyncMatch cache-pathology regime, and stage-1 pruning matters.
"""

from __future__ import annotations

import numpy as np

from ..storage.schema import CategoricalAttribute, Schema
from ..storage.table import ColumnTable
from .generator import (
    assemble,
    at_distance,
    candidate_column,
    conditional_column,
    independent_column,
    sizes_from_weights,
    zipf_weights,
)
from .registry import Dataset

__all__ = ["build_police", "NUM_ROADS", "NUM_VIOLATIONS"]

NUM_COUNTIES = 39
NUM_ROADS = 210
NUM_VIOLATIONS = 2110
NUM_RACES = 5
NUM_OUTCOMES = 6

DEFAULT_ROWS = 6_000_000

_Q1_CLUSTER = (0, 2, 4, 6, 8, 10, 12, 14, 16, 18)
_Q1_GAPS = (0.002, 0.006, 0.010, 0.014, 0.018, 0.024, 0.030, 0.036, 0.042, 0.048)
_Q1_STRAGGLERS = (150, 151)
_Q1_STRAGGLER_P = 0.25  # distance 0.5 from uniform

_Q2_CLUSTER = (1, 3, 5, 7, 9, 11, 13, 15, 17, 19)
_Q2_DISTANCES = (0.02, 0.04, 0.06, 0.08, 0.10, 0.11, 0.12, 0.13, 0.14, 0.15)

_Q3_CLUSTER = (0, 1, 2, 3, 4)
_Q3_GAPS = (0.005, 0.012, 0.020, 0.032, 0.048)
_Q3_STRAGGLERS = (30, 31)
_Q3_STRAGGLER_P = 0.25

#: Selectivity floor for pinned stragglers: 1.5x the paper's default sigma.
_STRAGGLER_SHARE = 0.0012


def _binary(p: float) -> np.ndarray:
    """A two-group histogram distribution (p, 1-p)."""
    return np.array([p, 1.0 - p])


def _road_sizes(rows: int, rng: np.random.Generator) -> np.ndarray:
    floor = max(2, int(np.ceil(0.002 * rows)))
    sizes = sizes_from_weights(
        zipf_weights(NUM_ROADS, alpha=0.8), rows, rng, min_rows=floor
    )
    pinned = max(2, int(np.ceil(_STRAGGLER_SHARE * rows)))
    for road in _Q1_STRAGGLERS:
        sizes[road] = pinned
    sizes[0] += rows - int(sizes.sum())
    return sizes


def _violation_sizes(rows: int, rng: np.random.Generator) -> np.ndarray:
    sizes = sizes_from_weights(
        zipf_weights(NUM_VIOLATIONS, alpha=1.05), rows, rng, min_rows=1
    )
    pinned = max(2, int(np.ceil(_STRAGGLER_SHARE * rows)))
    for violation in _Q3_STRAGGLERS:
        sizes[violation] = pinned
    sizes[0] += rows - int(sizes.sum())
    return sizes


def build_police(rows: int = DEFAULT_ROWS, seed: int = 7) -> Dataset:
    """Build the synthetic POLICE dataset (deterministic given seed)."""
    if rows < 20 * NUM_VIOLATIONS:
        raise ValueError(f"POLICE needs at least {20 * NUM_VIOLATIONS} rows, got {rows}")
    rng = np.random.default_rng(seed)

    road_sizes = _road_sizes(rows, rng)
    violation_sizes = _violation_sizes(rows, rng)

    # --- q1 geometry: ContrabandFound per road. -----------------------------
    contraband = np.zeros((NUM_ROADS, 2))
    for road, gap in zip(_Q1_CLUSTER, _Q1_GAPS):
        contraband[road] = _binary(0.5 - gap)
    for road in _Q1_STRAGGLERS:
        contraband[road] = _binary(_Q1_STRAGGLER_P)
    for road in range(NUM_ROADS):
        if contraband[road].sum() > 0:
            continue
        contraband[road] = _binary(float(rng.uniform(0.03, 0.10)))

    # --- q2 geometry: OfficerRace per road. -----------------------------------
    uniform_race = np.full(NUM_RACES, 1.0 / NUM_RACES)
    officer_race = np.zeros((NUM_ROADS, NUM_RACES))
    for road, distance in zip(_Q2_CLUSTER, _Q2_DISTANCES):
        officer_race[road] = at_distance(uniform_race, distance, rng, jitter=50_000.0)
    for road in range(NUM_ROADS):
        if officer_race[road].sum() > 0:
            continue
        officer_race[road] = at_distance(
            uniform_race, float(rng.uniform(0.95, 1.15)), rng, peak=0, jitter=5_000.0
        )

    # --- q3 geometry: DriverGender per violation. -------------------------------
    gender = np.zeros((NUM_VIOLATIONS, 2))
    for violation, gap in zip(_Q3_CLUSTER, _Q3_GAPS):
        gender[violation] = _binary(0.5 - gap)
    for violation in _Q3_STRAGGLERS:
        gender[violation] = _binary(_Q3_STRAGGLER_P)
    crowd_p = rng.uniform(0.93, 0.98, size=NUM_VIOLATIONS)
    for violation in range(NUM_VIOLATIONS):
        if gender[violation].sum() > 0:
            continue
        gender[violation] = _binary(1.0 - float(crowd_p[violation]))

    # --- Columns ------------------------------------------------------------------
    # Road-conditioned columns are generated road-major; violation and its
    # gender column are generated violation-major and aligned with each
    # other.  Zipping the two orders row-by-row is an arbitrary-but-fixed
    # join (the paper's queries never correlate road with violation), and
    # the final shared permutation in :func:`assemble` preserves every
    # within-row pairing.
    road = candidate_column(road_sizes)
    violation = candidate_column(violation_sizes)
    driver_gender = conditional_column(violation_sizes, gender, rng)

    columns = {
        "road": road,
        "county": independent_column(rows, zipf_weights(NUM_COUNTIES, 0.7), rng),
        "contraband_found": conditional_column(road_sizes, contraband, rng),
        "officer_race": conditional_column(road_sizes, officer_race, rng),
        "violation": violation,
        "driver_gender": driver_gender,
        "officer_gender": independent_column(rows, np.array([0.82, 0.18]), rng),
        "driver_race": independent_column(
            rows, np.array([0.6, 0.15, 0.12, 0.08, 0.05]), rng
        ),
        "stop_outcome": independent_column(
            rows, np.array([0.5, 0.25, 0.12, 0.07, 0.04, 0.02]), rng
        ),
        "search_conducted": independent_column(rows, np.array([0.06, 0.94]), rng),
    }
    columns = assemble(columns, rng)

    schema = Schema(
        (
            CategoricalAttribute("road", tuple(f"R{i:03d}" for i in range(NUM_ROADS))),
            CategoricalAttribute(
                "county", tuple(f"county{i:02d}" for i in range(NUM_COUNTIES))
            ),
            CategoricalAttribute("contraband_found", ("found", "not_found")),
            CategoricalAttribute(
                "officer_race", tuple(f"race{i}" for i in range(NUM_RACES))
            ),
            CategoricalAttribute(
                "violation", tuple(f"V{i:04d}" for i in range(NUM_VIOLATIONS))
            ),
            CategoricalAttribute("driver_gender", ("female", "male")),
            CategoricalAttribute("officer_gender", ("male", "female")),
            CategoricalAttribute(
                "driver_race", tuple(f"drace{i}" for i in range(NUM_RACES))
            ),
            CategoricalAttribute(
                "stop_outcome",
                ("citation", "warning", "verbal", "arrest", "felony", "other"),
            ),
            CategoricalAttribute("search_conducted", ("yes", "no")),
        )
    )
    table = ColumnTable(schema, columns)
    return Dataset(
        name="police",
        table=table,
        metadata={
            "q1_cluster": _Q1_CLUSTER,
            "q1_stragglers": _Q1_STRAGGLERS,
            "q2_cluster": _Q2_CLUSTER,
            "q3_cluster": _Q3_CLUSTER,
            "q3_stragglers": _Q3_STRAGGLERS,
        },
    )
