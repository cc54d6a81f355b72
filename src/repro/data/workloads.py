"""The nine evaluation queries of paper Table 3.

| Query      | Z (|V_Z|)        | X (|V_X|)             | k  | target                     |
|------------|------------------|-----------------------|----|----------------------------|
| flights-q1 | origin (347)     | dep_hour (24)         | 10 | Chicago ORD                |
| flights-q2 | origin (347)     | dep_hour (24)         | 10 | Appleton ATW               |
| flights-q3 | origin (347)     | day_of_week (7)       | 5  | [.25, .125 × 6]            |
| flights-q4 | origin (347)     | dest (351)            | 10 | closest to uniform         |
| taxi-q1    | location (7641)  | hour_of_day (24)      | 10 | closest to uniform         |
| taxi-q2    | location (7641)  | month_of_year (12)    | 10 | closest to uniform         |
| police-q1  | road (210)       | contraband_found (2)  | 10 | closest to uniform         |
| police-q2  | road (210)       | officer_race (5)      | 10 | closest to uniform         |
| police-q3  | violation (2110) | driver_gender (2)     | 5  | closest to uniform         |
"""

from __future__ import annotations

from ..bitmap import BlockBitmapIndex, build_bitmap_index
from ..core.target import TargetSpec
from ..query.spec import HistogramQuery
from ..storage.blocks import BlockLayout
from ..storage.shuffle import ShuffledTable
from ..system.fastmatch import DEFAULT_BLOCK_SIZE, PreparedQuery
from .flights import ATW, ORD
from .registry import Dataset, load_dataset

__all__ = ["WORKLOAD_QUERIES", "workload_query", "prepare_workload", "QUERY_NAMES"]


def _uniform_target() -> TargetSpec:
    return TargetSpec(kind="closest_to_uniform")


#: query name -> (dataset name, HistogramQuery)
WORKLOAD_QUERIES: dict[str, tuple[str, HistogramQuery]] = {
    "flights-q1": (
        "flights",
        HistogramQuery(
            "origin", "dep_hour",
            target=TargetSpec(kind="candidate", candidate=ORD),
            k=10, name="flights-q1",
        ),
    ),
    "flights-q2": (
        "flights",
        HistogramQuery(
            "origin", "dep_hour",
            target=TargetSpec(kind="candidate", candidate=ATW),
            k=10, name="flights-q2",
        ),
    ),
    "flights-q3": (
        "flights",
        HistogramQuery(
            "origin", "day_of_week",
            target=TargetSpec(kind="explicit", vector=(0.25,) + (0.125,) * 6),
            k=5, name="flights-q3",
        ),
    ),
    "flights-q4": (
        "flights",
        HistogramQuery("origin", "dest", target=_uniform_target(), k=10, name="flights-q4"),
    ),
    "taxi-q1": (
        "taxi",
        HistogramQuery(
            "location", "hour_of_day", target=_uniform_target(), k=10, name="taxi-q1"
        ),
    ),
    "taxi-q2": (
        "taxi",
        HistogramQuery(
            "location", "month_of_year", target=_uniform_target(), k=10, name="taxi-q2"
        ),
    ),
    "police-q1": (
        "police",
        HistogramQuery(
            "road", "contraband_found", target=_uniform_target(), k=10, name="police-q1"
        ),
    ),
    "police-q2": (
        "police",
        HistogramQuery(
            "road", "officer_race", target=_uniform_target(), k=10, name="police-q2"
        ),
    ),
    "police-q3": (
        "police",
        HistogramQuery(
            "violation", "driver_gender", target=_uniform_target(), k=5, name="police-q3"
        ),
    ),
}

QUERY_NAMES = tuple(WORKLOAD_QUERIES)

_PREPARED_CACHE: dict[tuple, PreparedQuery] = {}
#: (dataset, rows, seed, block_size, candidate attribute) -> bitmap index.
_INDEX_CACHE: dict[tuple, BlockBitmapIndex] = {}


def workload_query(name: str) -> tuple[str, HistogramQuery]:
    """Look up (dataset name, query) for a Table 3 query name."""
    if name not in WORKLOAD_QUERIES:
        raise ValueError(f"unknown query {name!r}; available: {QUERY_NAMES}")
    return WORKLOAD_QUERIES[name]


def prepare_workload(
    name: str,
    rows: int | None = None,
    seed: int = 7,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> PreparedQuery:
    """Build (and cache) the PreparedQuery for one Table 3 query.

    Preparation (dataset build, shuffle layout, bitmap index, exact ground
    truth, target resolution) is deterministic given ``seed`` and shared
    across approaches so comparisons run on identical substrates.  Queries
    over one candidate attribute of one dataset share its bitmap index.
    """
    key = (name, rows, seed, block_size)
    if key not in _PREPARED_CACHE:
        dataset_name, query = workload_query(name)
        dataset: Dataset = load_dataset(dataset_name, rows=rows, seed=seed)
        # The dataset is shuffled by construction (generator.assemble), so
        # preparation reuses its row order as the layout; PreparedQuery.prepare
        # would shuffle again, which is wasted work at millions of rows.
        shuffled = ShuffledTable(
            dataset.table, BlockLayout(dataset.table.num_rows, block_size)
        )
        index_key = (dataset_name, rows, seed, block_size, query.candidate_attribute)
        if index_key not in _INDEX_CACHE:
            _INDEX_CACHE[index_key] = build_bitmap_index(
                shuffled, query.candidate_attribute
            )
        _PREPARED_CACHE[key] = PreparedQuery._on_layout(
            shuffled, query, index=_INDEX_CACHE[index_key]
        )
    return _PREPARED_CACHE[key]
