"""Set-up footprint: wall time and peak RSS of building the evaluation datasets.

Builds the named datasets one after another in this (fresh) interpreter at
``--rows`` rows each, seed 7, keeping every table alive, and prints each
build's seconds and the process's ``ru_maxrss`` afterwards.  With
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

from repro.data import build_flights, build_police, build_taxi

BUILDERS = {"flights": build_flights, "taxi": build_taxi, "police": build_police}


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
    tables = []
    for name in names:
        start = time.perf_counter()
        tables.append(BUILDERS[name](rows=args.rows, seed=7).table)
        build_s[name] = round(time.perf_counter() - start, 3)
    record = {
        "rows": args.rows,
        "build_s": build_s,
        "import_rss_mib": round(import_rss, 1),
        "ru_maxrss_mib": round(peak_rss_mib(), 1),
        "tables_mib": round(sum(t.nbytes for t in tables) / 2**20, 1),
    }
    if args.json:
        print(json.dumps(record))
    else:
        for name, seconds in build_s.items():
            print(f"{name:8s} {args.rows:>11,} rows  {seconds:7.2f} s")
        print(
            f"tables {record['tables_mib']} MiB, ru_maxrss {record['ru_maxrss_mib']} MiB "
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
