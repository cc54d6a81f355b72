"""Synthetic FLIGHTS dataset (paper Table 2/3 regimes).

Schema mirrors the paper's seven attributes: Origin (347), Dest (351),
DepHour (24 bins of a continuous attribute — Appendix A.1.4), DayOfWeek (7),
DayOfMonth (31), DepDelay and ArrDelay (12 bins each).

Geometry is planted per query with :func:`~repro.data.generator.at_distance`
(exact L1 placement), because HistSim's sampling effort is governed by two
quantities DESIGN.md discusses: each candidate's *margin* to the stage-2
split point (sets its Eq. 1 budget) and its *selectivity* (sets how much
scan distance delivers those samples, and its per-block bitmap presence):

- **q1 (frequent top-k)** — origin 0 is Chicago ORD, the largest hub; nine
  other hubs sit 0.04–0.22 away in departure-hour shape.  Two
  low-selectivity "straggler" airports at distance ~0.9 drive the tail of
  sampling — the phase where AnyActive block-skipping pays.
- **q2 (rare top-k)** — a small airport is Appleton ATW; its regional
  profile is shared only by other small airports (the whole matching
  cluster is low-selectivity).
- **q3 (explicit target)** — five airports are Monday-heavy on DayOfWeek
  (the paper's ``[0.25, 0.125 × 6]`` target), the crowd is weekend-peaked.
- **q4 (wide support, |V_X| = 351)** — hubs fly everywhere (close to the
  global destination mix); feeders concentrate on a few hubs.  At laptop
  scale this query is sample-floor dominated (see EXPERIMENTS.md).
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
    jittered,
    mixture,
    sizes_from_weights,
    zipf_weights,
)
from .registry import Dataset

__all__ = ["build_flights", "NUM_ORIGINS", "NUM_DESTS", "ORD", "ATW"]

NUM_ORIGINS = 347
NUM_DESTS = 351
NUM_HOURS = 24
NUM_DOW = 7
NUM_DOM = 31
NUM_DELAY_BINS = 12

#: Origin index playing Chicago O'Hare (the largest hub; q1's target).
ORD = 0
#: Origin index playing Appleton ATW (a small regional airport; q2's target).
ATW = 320

DEFAULT_ROWS = 6_000_000

#: Hub shares: top-10 airports carry ~50% of departures (q1/q4 cluster).
_HUB_SHARES = (0.08, 0.07, 0.06, 0.055, 0.05, 0.045, 0.04, 0.037, 0.034, 0.031)
_HUBS = tuple(range(len(_HUB_SHARES)))

_Q1_CLUSTER = _HUBS
_Q1_DISTANCES = (0.0, 0.04, 0.07, 0.10, 0.13, 0.15, 0.17, 0.19, 0.21, 0.22)
#: Low-selectivity airports at mid distance from the hub profile: the
#: sampling tail of q1.
_Q1_STRAGGLERS = (340, 341)
_Q1_STRAGGLER_DISTANCE = 0.9

_Q2_CLUSTER = (320, 321, 322, 323, 324, 325, 326, 327, 328, 329)
_Q2_DISTANCES = (0.0, 0.05, 0.09, 0.13, 0.16, 0.19, 0.22, 0.25, 0.30, 0.35)
#: ATW and two companions are the deepest (lowest-selectivity) matches.
_Q2_DEEP = (320, 321, 322)
_Q2_DEEP_SHARE = 0.0015
_Q2_SHALLOW_SHARE = 0.0025

_Q3_CLUSTER = (10, 11, 12, 13, 14)
_Q3_DISTANCES = (0.02, 0.05, 0.08, 0.10, 0.12)
_Q3_STRAGGLERS = (342, 343)
_Q3_STRAGGLER_DISTANCE = 0.7

#: Late departure hours: the peaks of q1's stragglers and of the crowd.
_LATE_HOURS = (13, 14, 15, 20, 21, 22, 23)

_Q4_DISTANCES = (0.05, 0.08, 0.11, 0.14, 0.17, 0.20, 0.22, 0.25, 0.28, 0.30)

#: Selectivity floor for ordinary airports: 1.5x the paper's default sigma.
_REST_FLOOR_SHARE = 0.0012


def _hour_profile_hub() -> np.ndarray:
    """Bimodal hub profile: morning (7-9) and evening (16-18) banks."""
    base = np.ones(NUM_HOURS) * 0.35
    for hour, weight in ((6, 3), (7, 6), (8, 6), (9, 4), (16, 4), (17, 6), (18, 6), (19, 3)):
        base[hour] += weight
    return base / base.sum()


def _hour_profile_regional() -> np.ndarray:
    """Regional feeder profile, nearly disjoint from the hub banks."""
    base = np.ones(NUM_HOURS) * 0.08
    for hour, weight in ((5, 6), (6, 5), (11, 5), (12, 6), (13, 3), (21, 2)):
        base[hour] += weight
    return base / base.sum()


def _dow_monday_heavy() -> np.ndarray:
    """The q3 explicit target: 25% Monday, 12.5% every other day."""
    return np.array([0.25] + [0.125] * 6)


def _origin_sizes(rows: int, rng: np.random.Generator) -> np.ndarray:
    """Hub-heavy size profile with engineered small bands."""
    shares = np.zeros(NUM_ORIGINS, dtype=np.float64)
    shares[list(_HUBS)] = _HUB_SHARES
    for origin in _Q2_CLUSTER:
        shares[origin] = _Q2_DEEP_SHARE if origin in _Q2_DEEP else _Q2_SHALLOW_SHARE
    for origin in _Q1_STRAGGLERS + _Q3_STRAGGLERS:
        shares[origin] = _REST_FLOOR_SHARE
    rest = np.asarray([i for i in range(NUM_ORIGINS) if shares[i] == 0])
    rest_share = 1.0 - shares.sum()
    rest_weights = zipf_weights(rest.size, alpha=0.8) * (
        rest_share - _REST_FLOOR_SHARE * rest.size
    )
    shares[rest] = _REST_FLOOR_SHARE + rest_weights
    sizes = sizes_from_weights(shares, rows, rng, min_rows=2)
    return sizes


def build_flights(rows: int = DEFAULT_ROWS, seed: int = 7) -> Dataset:
    """Build the synthetic FLIGHTS dataset (deterministic given seed)."""
    if rows < 50 * NUM_ORIGINS:
        raise ValueError(f"FLIGHTS needs at least {50 * NUM_ORIGINS} rows, got {rows}")
    rng = np.random.default_rng(seed)
    sizes = _origin_sizes(rows, rng)

    hub = _hour_profile_hub()
    regional = _hour_profile_regional()

    # --- DepHour: q1 and q2 geometry ---------------------------------------
    hours = np.zeros((NUM_ORIGINS, NUM_HOURS))
    # Alternate concentrated (1-peak) and spread (5-peak) displacement so L1
    # and L2 rankings genuinely disagree near the boundary (Table 5 regime).
    for rank, (origin, distance) in enumerate(zip(_Q1_CLUSTER, _Q1_DISTANCES)):
        hours[origin] = at_distance(
            hub, distance, rng, jitter=50_000.0, peaks=1 if rank % 2 else 5
        )
    for rank, (origin, distance) in enumerate(zip(_Q2_CLUSTER, _Q2_DISTANCES)):
        hours[origin] = at_distance(
            regional, distance, rng, jitter=50_000.0, peaks=1 if rank % 2 else 5
        )
    for origin in _Q1_STRAGGLERS:
        peak = _one_of(_LATE_HOURS, rng)
        hours[origin] = at_distance(hub, _Q1_STRAGGLER_DISTANCE, rng, peak=peak, jitter=20_000.0)
    for origin in range(NUM_ORIGINS):
        if hours[origin].sum() > 0:
            continue
        # The crowd: far from both cluster bases (late/midday peaks).
        peak = _one_of(_LATE_HOURS, rng)
        hours[origin] = at_distance(
            hub, float(rng.uniform(1.2, 1.45)), rng, peak=peak, jitter=5_000.0
        )

    # --- DayOfWeek: q3 geometry ---------------------------------------------
    monday_heavy = _dow_monday_heavy()
    dows = np.zeros((NUM_ORIGINS, NUM_DOW))
    for rank, (origin, distance) in enumerate(zip(_Q3_CLUSTER, _Q3_DISTANCES)):
        dows[origin] = at_distance(
            monday_heavy, distance, rng, jitter=50_000.0, peaks=1 if rank % 2 else 3
        )
    for origin in _Q3_STRAGGLERS:
        peak = int(rng.integers(4, 7))
        dows[origin] = at_distance(
            monday_heavy, _Q3_STRAGGLER_DISTANCE, rng, peak=peak, jitter=20_000.0
        )
    for origin in range(NUM_ORIGINS):
        if dows[origin].sum() > 0:
            continue
        peak = int(rng.integers(5, 7))  # weekend-peaked crowd
        dows[origin] = at_distance(
            monday_heavy, float(rng.uniform(1.1, 1.3)), rng, peak=peak, jitter=5_000.0
        )

    # --- Dest: q4 geometry (wide support) ------------------------------------
    dest_attraction = zipf_weights(NUM_DESTS, alpha=0.7)
    wide = mixture([dest_attraction, np.full(NUM_DESTS, 1.0 / NUM_DESTS)], [0.5, 0.5])
    dests = np.zeros((NUM_ORIGINS, NUM_DESTS))
    for rank, (origin, distance) in enumerate(zip(_HUBS, _Q4_DISTANCES)):
        dests[origin] = at_distance(
            wide, distance, rng, jitter=50_000.0, peaks=1 if rank % 2 else 12
        )
    for origin in range(NUM_ORIGINS):
        if dests[origin].sum() > 0:
            continue
        # Feeder airports: most mass on one hub destination.
        peak = int(rng.integers(0, 24))
        dests[origin] = at_distance(
            wide, float(rng.uniform(1.4, 1.6)), rng, peak=peak, jitter=5_000.0
        )

    # --- Assemble -------------------------------------------------------------
    z = candidate_column(sizes)
    columns = {
        "origin": z,
        "dest": conditional_column(sizes, dests, rng),
        "dep_hour": conditional_column(sizes, hours, rng),
        "day_of_week": conditional_column(sizes, dows, rng),
        "day_of_month": independent_column(rows, np.ones(NUM_DOM), rng),
        "dep_delay": independent_column(
            rows, np.exp(-0.45 * np.arange(NUM_DELAY_BINS)), rng
        ),
        "arr_delay": independent_column(
            rows, np.exp(-0.4 * np.arange(NUM_DELAY_BINS)), rng
        ),
    }
    columns = assemble(columns, rng)

    schema = Schema(
        (
            CategoricalAttribute("origin", tuple(f"APT{i:03d}" for i in range(NUM_ORIGINS))),
            CategoricalAttribute("dest", tuple(f"DST{i:03d}" for i in range(NUM_DESTS))),
            CategoricalAttribute("dep_hour", tuple(f"{h:02d}h" for h in range(NUM_HOURS))),
            CategoricalAttribute(
                "day_of_week", ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
            ),
            CategoricalAttribute("day_of_month", tuple(f"d{i + 1:02d}" for i in range(NUM_DOM))),
            CategoricalAttribute(
                "dep_delay", tuple(f"delay_bin{i}" for i in range(NUM_DELAY_BINS))
            ),
            CategoricalAttribute(
                "arr_delay", tuple(f"arr_bin{i}" for i in range(NUM_DELAY_BINS))
            ),
        )
    )
    table = ColumnTable(schema, columns)
    return Dataset(
        name="flights",
        table=table,
        metadata={
            "ord": ORD,
            "atw": ATW,
            "q1_cluster": _Q1_CLUSTER,
            "q2_cluster": _Q2_CLUSTER,
            "q3_cluster": _Q3_CLUSTER,
            "q1_stragglers": _Q1_STRAGGLERS,
            "q3_stragglers": _Q3_STRAGGLERS,
            "hubs": _HUBS,
        },
    )
