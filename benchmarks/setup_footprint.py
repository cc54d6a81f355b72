"""Set-up footprint: wall time and peak RSS of building the evaluation datasets.

Builds the named datasets one after another in this (fresh) interpreter at
``--rows`` rows each, seed 7, keeping every table alive, and with each one
the bitmap indexes of its Table-3 candidate attributes (FLIGHTS' origin,
TAXI's location, POLICE's road and violation) over the generated table in
32-row blocks — the generators emit rows in random order, so no shuffle is
needed.  It prints each build's seconds, each dataset's index seconds and MiB
(``index_s``, ``index_mib``) and the process's ``ru_maxrss`` afterwards.  With
``--max-rss-mib`` it exits 1 when the peak is above the bound — the CI
guard that set-up stays near the size of the tables it makes, so the scale
curve can build all three datasets in one process.

Usage::

    PYTHONPATH=src python benchmarks/setup_footprint.py --rows 6000000 --max-rss-mib 512
    PYTHONPATH=src python benchmarks/setup_footprint.py --datasets police --rows 10000000 --json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from repro.bitmap import BlockBitmapIndex
from repro.data import WORKLOAD_QUERIES, build_flights, build_police, build_taxi

BUILDERS = {"flights": build_flights, "taxi": build_taxi, "police": build_police}

#: Rows a block, as the end-to-end benchmark and the paper benches lay out.
BLOCK_SIZE = 32

#: Each dataset's Table-3 candidate attributes, the ones a workload indexes.
INDEXED = {
    name: sorted({query.candidate_attribute for dataset, query in WORKLOAD_QUERIES.values()
                  if dataset == name})
    for name in BUILDERS
}


def peak_rss_mib() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--datasets", default="flights,taxi,police")
    parser.add_argument("--rows", type=int, default=6_000_000)
    parser.add_argument("--max-rss-mib", type=float, default=None)
    parser.add_argument("--json", action="store_true", help="one JSON line")
    args = parser.parse_args(argv)

    names = args.datasets.split(",")
    unknown = sorted(set(names) - set(BUILDERS))
    if unknown:
        parser.error(f"unknown datasets {unknown}; choose from {sorted(BUILDERS)}")
    import_rss = peak_rss_mib()
    build_s: dict[str, float] = {}
    index_s: dict[str, float] = {}
    index_mib: dict[str, float] = {}
    tables, indexes = [], []
    for name in names:
        start = time.perf_counter()
        table = BUILDERS[name](rows=args.rows, seed=7).table
        build_s[name] = round(time.perf_counter() - start, 3)
        start = time.perf_counter()
        built = [
            BlockBitmapIndex.build(
                table.column(attribute), table.cardinality(attribute), BLOCK_SIZE
            )
            for attribute in INDEXED[name]
        ]
        index_s[name] = round(time.perf_counter() - start, 3)
        index_mib[name] = round(sum(index.nbytes for index in built) / 2**20, 2)
        tables.append(table)
        indexes += built
    record = {
        "rows": args.rows,
        "build_s": build_s,
        "index_s": index_s,
        "index_mib": index_mib,
        "import_rss_mib": round(import_rss, 1),
        "ru_maxrss_mib": round(peak_rss_mib(), 1),
        "tables_mib": round(sum(t.nbytes for t in tables) / 2**20, 1),
    }
    if args.json:
        print(json.dumps(record))
    else:
        for name, seconds in build_s.items():
            print(
                f"{name:8s} {args.rows:>11,} rows  {seconds:7.2f} s  index "
                f"{index_s[name]:6.2f} s {index_mib[name]:8.2f} MiB ({', '.join(INDEXED[name])})"
            )
        print(
            f"tables {record['tables_mib']} MiB, indexes {sum(index_mib.values()):.2f} MiB, "
            f"ru_maxrss {record['ru_maxrss_mib']} MiB "
            f"(after import {record['import_rss_mib']} MiB)"
        )
    if args.max_rss_mib is not None and record["ru_maxrss_mib"] > args.max_rss_mib:
        print(
            f"set-up peaked at {record['ru_maxrss_mib']} MiB, "
            f"above the {args.max_rss_mib:g} MiB bound",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
