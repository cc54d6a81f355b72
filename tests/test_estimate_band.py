"""How far the remaining-row estimate is from the rows a run goes on to read.

``HistSimStepper.estimated_remaining_rows()`` feeds the ``cost`` policy,
``edf-f`` feasibility shedding and the calibration ratio.  Right after
stage 1 it prices only the first stage-2 round plus stage 3's top-up, while
runs go on for more rounds, so it under-predicts.  These tests state, for
each Table-3 query, the band of ``actual / estimate`` over eight run seeds,
where ``actual`` is every row the run reads after stage 1.  They
characterize today's estimator: an estimator that changes the numbers
restates the bands.

Two scales:

- ``integration`` is ``test_workload_integration.py``'s rows and config.
  There every run reads the whole table after stage 1.  On flights-q4 and
  police-q3 the estimate reaches its cap, the rows not yet read, and is
  exact (1.00).
- ``1M`` is the end-to-end benchmark's rows (TAXI at 400k) and the paper
  benches' config.  The estimate never over-predicts: 1.54-8.38 over all
  queries, median 3.43.
"""

import numpy as np
import pytest

from repro.core import HistSim, HistSimConfig, HistSimStepper
from repro.data import QUERY_NAMES, prepare_workload
from repro.storage.cost_model import DEFAULT_COST_MODEL
from repro.system.clock import SimulatedClock
from repro.system.fastmatch import make_engine
from repro.system.stats_engine import StatsEngine

SEEDS = range(8)

SCALES = {
    "integration": (
        {"flights": 120_000, "taxi": 400_000, "police": 150_000},
        dict(epsilon=0.2, delta=0.05, sigma=0.0008, stage1_samples=20_000),
    ),
    "1M": (
        {"flights": 1_000_000, "taxi": 400_000, "police": 1_000_000},
        dict(epsilon=0.1, delta=0.01, sigma=0.0008, stage1_samples=50_000),
    ),
}

#: (lowest, highest) ``actual / estimate`` over ``SEEDS``, rounded outward.
BANDS = {
    "integration": {
        "flights-q1": (1.14, 1.15),
        "flights-q2": (1.07, 1.08),
        "flights-q3": (1.18, 1.19),
        "flights-q4": (1.00, 1.00),
        "taxi-q1": (1.69, 1.76),
        "taxi-q2": (1.72, 1.78),
        "police-q1": (2.44, 2.46),
        "police-q2": (2.40, 2.41),
        "police-q3": (1.00, 1.00),
    },
    "1M": {
        "flights-q1": (3.39, 4.16),
        "flights-q2": (4.51, 4.68),
        "flights-q3": (3.90, 4.20),
        "flights-q4": (1.67, 1.68),
        "taxi-q1": (1.54, 1.56),
        "taxi-q2": (1.64, 1.67),
        "police-q1": (3.08, 8.38),
        "police-q2": (3.14, 3.60),
        "police-q3": (7.76, 8.00),
    },
}


def read_after_stage1(prepared, config, seed):
    """The estimate right after stage 1, and the rows read from then on."""
    clock = SimulatedClock()
    engine = make_engine(
        prepared, "fastmatch", config, DEFAULT_COST_MODEL, clock,
        np.random.default_rng(seed),
    )
    algorithm = HistSim(
        engine, prepared.target, config,
        stats_cost=StatsEngine(DEFAULT_COST_MODEL, clock),
    )
    stepper = HistSimStepper(algorithm=algorithm)
    assert stepper.step().stage == "stage1"
    estimate = stepper.estimated_remaining_rows()
    actual = 0
    while not stepper.done:
        actual += stepper.step().fresh_rows
    return actual, estimate


def ratios(scale, query_name):
    rows, options = SCALES[scale]
    prepared = prepare_workload(query_name, rows=rows[query_name.split("-")[0]], seed=7)
    config = HistSimConfig(k=prepared.query.k, **options)
    pairs = [read_after_stage1(prepared, config, seed) for seed in SEEDS]
    return np.array([actual / estimate for actual, estimate in pairs])


@pytest.mark.parametrize("query_name", QUERY_NAMES)
@pytest.mark.parametrize("scale", sorted(SCALES))
def test_estimate_after_stage1_is_in_its_band(scale, query_name):
    got = ratios(scale, query_name)
    low, high = BANDS[scale][query_name]
    assert low <= got.min() and got.max() <= high, (got.min(), got.max())
    if scale == "1M":
        assert got.min() > 1.0  # under-predicts on every run
