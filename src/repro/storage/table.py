"""Column-oriented table (paper Section 4.3: "FastMatch uses a column-oriented
storage engine, as is common for analytics tasks").

Columns are dictionary/bin-encoded integer NumPy arrays, one per schema
attribute, each stored at :func:`storage_dtype` of its cardinality.  The
table is immutable after construction except for :meth:`permuted`, which
returns a row-shuffled copy (the preprocessing step of Section 4.2,
Challenge 1).
"""

from __future__ import annotations

import numpy as np

from .schema import Schema

__all__ = ["ColumnTable", "storage_dtype"]


def storage_dtype(cardinality: int) -> np.dtype:
    """The narrowest dtype that holds codes ``0 .. cardinality - 1``: the
    width a :class:`ColumnTable` stores a column of that cardinality at."""
    return np.min_scalar_type(max(cardinality - 1, 0))


class ColumnTable:
    """An encoded, column-oriented, in-memory relation.

    The table takes ownership of its columns.  A column that already has
    its storage dtype is stored as given, not copied, and frozen
    (``writeable=False``), so a write through the caller's reference to
    it raises rather than changing the table.
    """

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray]) -> None:
        if set(columns) != set(schema.names):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema {sorted(schema.names)}"
            )
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        self._value_counts: dict[str, np.ndarray] = {}
        for name, col in columns.items():
            arr = np.asarray(col)
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"column {name!r} must be integer-encoded")
            cardinality = schema.cardinality(name)
            if arr.size and (arr.min() < 0 or arr.max() >= cardinality):
                raise ValueError(
                    f"column {name!r} has codes outside [0, {cardinality})"
                )
            # Store at the narrowest width that holds the code range; callers
            # widen at arithmetic sites.  Matters at millions of rows across
            # 7-10 attributes (Table 2 scale).
            stored = arr.astype(storage_dtype(cardinality), copy=False)
            stored.setflags(write=False)
            self._columns[name] = stored

    @property
    def num_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> np.ndarray:
        """The encoded column for an attribute (read-only view)."""
        if name not in self._columns:
            raise KeyError(f"no column named {name!r}")
        return self._columns[name].view()

    def cardinality(self, name: str) -> int:
        return self.schema.cardinality(name)

    @property
    def nbytes(self) -> int:
        """Total bytes across all encoded columns (cache accounting)."""
        return sum(col.nbytes for col in self._columns.values())

    def permuted(self, rng: np.random.Generator) -> "ColumnTable":
        """Row-shuffled copy — the paper's preprocessing for locality-friendly
        sampling (a sequential scan of the shuffled table is a uniform
        without-replacement sample)."""
        order = rng.permutation(self.num_rows)
        return ColumnTable(
            self.schema, {name: col[order] for name, col in self._columns.items()}
        )

    def take(self, rows: np.ndarray) -> "ColumnTable":
        """Sub-table of the given row indices (in the given order)."""
        rows = np.asarray(rows)
        return ColumnTable(
            self.schema, {name: col[rows] for name, col in self._columns.items()}
        )

    def value_counts(self, name: str) -> np.ndarray:
        """Per-code row counts of one column (read-only).

        Counted on first use and kept: the table is immutable, and every
        sampling engine over it needs its candidate column's totals.
        """
        counts = self._value_counts.get(name)
        if counts is None:
            counts = np.bincount(self.column(name), minlength=self.cardinality(name))
            counts.flags.writeable = False
            # setdefault: two threads racing here still share one array.
            counts = self._value_counts.setdefault(name, counts)
        return counts
