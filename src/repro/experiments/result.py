"""Tabular results of a parameter sweep.

A :class:`SweepResult` is a small, dependency-free data frame with a
fixed column order and three interchangeable backing stores:

* a **column store** — one array or list per column
  (:meth:`from_series`; shard merges feed this directly, with float
  columns that may be memory-mapped views into ``.repro-shard``
  artifacts).  ``filter`` operates straight on the columns, without
  building a row tuple or dict;
* a **packed store** — one value tuple per row (the runner's
  array-native assembly and the row cache feed this directly), with the
  row *dicts* of the legacy API materialized lazily on first access;
* a **row-dict store** — the original ordered list of flat dictionaries
  (:meth:`from_rows`, and what ``group_by`` hands back).

Either way the export (CSV/JSON) and reshaping (filter/group-by/pivot)
helpers behave identically.  All three stores write CSV through one
renderer: :meth:`iter_csv` cuts the table into windows of rows,
transposes each window to columns and renders a column at a time, so a
merged million-row table goes to disk with resident memory bounded by
one window.  Floats are exported with ``repr`` (numpy scalars first
become Python scalars), so a CSV written by a parallel run is
byte-identical to one written by a serial run of the same sweep.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np


#: Rows per rendering window of the CSV writer.  The window bounds the
#: writer's resident memory: it holds one window of cell strings and
#: the window's text at a time, whatever the table size.
_CSV_WINDOW_ROWS = 1024

#: Cell types whose equal values always render to the same text, so a
#: window renders each distinct value once.
_MEMO_TYPES = frozenset({str, int, bool, type(None)})


class _CsvRenderer:
    """Column-at-a-time CSV rendering of row windows.

    Every cell renders exactly as a per-row :func:`csv.writer` would
    write it, after two normalizations: numpy scalars become Python
    scalars (``.item()``), and floats are written with ``repr``.  Float
    columns call ``repr`` once per distinct bit pattern, so ``-0.0``,
    ``0.0`` and every NaN payload keep their own text.  Other cells go
    through a one-cell :func:`csv.writer`, so quoting stays exactly the
    csv module's; a column of ``str``/``int``/``bool``/``None`` cells
    renders each distinct value once.
    """

    def __init__(self) -> None:
        self._buffer = io.StringIO()
        self._writer = csv.writer(self._buffer, lineterminator="\n")

    def line(self, cells: Sequence[Any]) -> str:
        """One row through the csv writer (the header)."""
        self._writer.writerow(cells)
        text = self._buffer.getvalue()
        self._buffer.seek(0)
        self._buffer.truncate(0)
        return text

    def _cell(self, value: Any) -> str:
        """One non-float cell as written inside a multi-field row."""
        return self.line((value, ""))[:-2]

    @staticmethod
    def _floats(values: np.ndarray) -> list[str]:
        unique, inverse = np.unique(
            values.astype(np.float64, copy=False).view(np.int64), return_inverse=True
        )
        texts = list(map(repr, unique.view(np.float64).tolist()))
        return list(map(texts.__getitem__, inverse.tolist()))

    def _objects(self, cells: Sequence[Any]) -> list[str]:
        kinds = set(map(type, cells))
        if any(issubclass(kind, np.generic) for kind in kinds):
            cells = [cell.item() if isinstance(cell, np.generic) else cell for cell in cells]
            kinds = set(map(type, cells))
        if kinds == {float}:
            return self._floats(np.array(cells, dtype=np.float64))
        if kinds <= _MEMO_TYPES and not {bool, int} <= kinds:
            # No two cells of these types compare equal unless their
            # text is the same (only True == 1 and False == 0 could).
            texts = {cell: self._cell(cell) for cell in set(cells)}
            return list(map(texts.__getitem__, cells))
        return [repr(cell) if isinstance(cell, float) else self._cell(cell) for cell in cells]

    def window(self, columns: Sequence[Sequence[Any]]) -> str:
        """CSV text of one window, given as one sequence per column."""
        rendered = [
            self._floats(column)
            if isinstance(column, np.ndarray)
            and column.dtype.kind == "f"
            and column.dtype.itemsize <= 8
            else self._objects(
                column.tolist() if isinstance(column, np.ndarray) else column
            )
            for column in columns
        ]
        lines = list(map(",".join, zip(*rendered)))
        if len(columns) == 1:
            # The csv module quotes a record that is one empty field.
            lines = [line or '""' for line in lines]
        return "\n".join(lines) + "\n"


class SweepResult:
    """An ordered table of sweep rows (one row per point x policy)."""

    def __init__(
        self,
        columns: Sequence[str],
        rows: "Sequence[dict[str, Any]] | None" = None,
        *,
        values: "Sequence[tuple[Any, ...]] | None" = None,
        series: "Mapping[str, Any] | None" = None,
    ):
        if sum(store is not None for store in (rows, values, series)) > 1:
            raise TypeError("pass at most one of rows, values or series")
        self.columns: tuple[str, ...] = tuple(columns)
        self._values_list: list[tuple[Any, ...]] | None = (
            list(values) if values is not None else None
        )
        self._series: dict[str, Any] | None = (
            {name: series[name] for name in self.columns}
            if series is not None
            else None
        )
        self._rows: list[dict[str, Any]] | None = (
            list(rows) if rows is not None else None
        )
        if self._values_list is None and self._rows is None and self._series is None:
            self._rows = []

    @property
    def _values(self) -> "list[tuple[Any, ...]] | None":
        """The packed store, materializing the column store on demand.

        Column-store tables convert lazily: the first packed access
        turns the columns into plain-scalar row tuples (``tolist`` for
        arrays, so ``np.float64`` never leaks into the cells) and drops
        the column store.  Row-dict-backed tables return ``None``, as
        before.
        """
        if self._values_list is None and self._series is not None:
            ordered = [
                column.tolist() if isinstance(column, np.ndarray) else column
                for column in self._series.values()
            ]
            self._values_list = list(zip(*ordered)) if ordered else []
            self._series = None
        return self._values_list

    @_values.setter
    def _values(self, values: "list[tuple[Any, ...]] | None") -> None:
        self._values_list = values
        if values is not None:
            self._series = None

    # -- constructors --------------------------------------------------- #
    @classmethod
    def from_rows(cls, rows: Sequence[dict[str, Any]]) -> "SweepResult":
        """Build a result from row dicts (columns from the first row)."""
        rows = list(rows)
        columns: tuple[str, ...] = tuple(rows[0].keys()) if rows else ()
        return cls(columns=columns, rows=rows)

    @classmethod
    def from_packed(
        cls, columns: Sequence[str], values: Sequence[Sequence[Any]]
    ) -> "SweepResult":
        """Build a result from packed (columns, value-tuples) rows."""
        return cls(columns=columns, values=[tuple(row) for row in values])

    @classmethod
    def from_columns(cls, columns: "Mapping[str, Any]") -> "SweepResult":
        """Build a result from column arrays (one array/list per column).

        NumPy arrays are converted with ``tolist`` so every cell is a
        plain Python scalar (the JSON export cannot encode numpy
        scalars).
        """
        names = tuple(columns)
        series = [
            column.tolist() if isinstance(column, np.ndarray) else list(column)
            for column in columns.values()
        ]
        if series and len({len(s) for s in series}) > 1:
            raise ValueError("all columns must have the same length")
        values = list(zip(*series)) if series else []
        return cls(columns=names, values=values)

    @classmethod
    def from_series(cls, columns: Sequence[str], series: "Mapping[str, Any]") -> "SweepResult":
        """Build a column-store result (one array or list per column).

        Unlike :meth:`from_columns`, the columns are kept **as given**
        — float columns may be ndarrays (including memory-mapped views
        into shard artifacts) and are only converted to plain scalars
        when a consumer actually asks for rows.  Exports and filters
        run directly over the columns.
        """
        columns = tuple(columns)
        lengths = {len(series[name]) for name in columns}
        if len(lengths) > 1:
            raise ValueError("all columns must have the same length")
        return cls(columns=columns, series=series)

    # -- row access ----------------------------------------------------- #
    @property
    def rows(self) -> list[dict[str, Any]]:
        """The row dicts, materialized from the packed store on demand.

        Once materialized (or when the table was built from dicts), the
        dict list is the source of truth — mutations are visible to
        every helper and export.
        """
        if self._rows is None:
            columns = self.columns
            self._rows = [dict(zip(columns, row)) for row in self._values]
            self._values = None
        return self._rows

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        if self._series is not None:
            return len(next(iter(self._series.values()))) if self._series else 0
        return len(self._values_list)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        if self.columns != other.columns:
            return False
        if self._values is not None and other._values is not None:
            # Both packed with identical column order: compare the value
            # tuples directly, keeping both packed stores intact.
            return self._values == other._values
        return self.rows == other.rows

    def __repr__(self) -> str:
        return (
            f"SweepResult({len(self)} rows x {len(self.columns)} columns)"
        )

    def _check_columns(self, *names: str) -> None:
        """Fail fast on misspelled column names (empty tables check nothing)."""
        if not self.columns:
            return
        unknown = [name for name in names if name not in self.columns]
        if unknown:
            raise KeyError(f"unknown column(s) {unknown}; have {list(self.columns)}")

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order (no dict materialization)."""
        self._check_columns(name)
        if self._rows is not None:
            return [row[name] for row in self._rows]
        if self._series is not None:
            column = self._series[name]
            return column.tolist() if isinstance(column, np.ndarray) else list(column)
        index = self.columns.index(name)
        return [row[index] for row in self._values_list]

    # ------------------------------------------------------------------ #
    def filter(self, **equals: Any) -> "SweepResult":
        """Rows whose columns equal the given values (AND semantics).

        On a column-store table the filter runs column-wise (vectorized
        comparison for array columns) and the kept rows stay columnar —
        no row dict is materialized, and array columns are only sliced,
        keeping memory-mapped inputs out of core.
        """
        self._check_columns(*equals)
        if self._series is not None and self._rows is None:
            count = len(self)
            keep = np.ones(count, dtype=bool)
            for name, value in equals.items():
                column = self._series[name]
                if isinstance(column, np.ndarray):
                    keep &= column == value
                else:
                    keep &= np.fromiter(
                        (cell == value for cell in column),
                        dtype=bool,
                        count=count,
                    )
            indices = np.flatnonzero(keep)
            kept_series = {
                name: column[indices]
                if isinstance(column, np.ndarray)
                else [column[i] for i in indices]
                for name, column in self._series.items()
            }
            return SweepResult(columns=self.columns, series=kept_series)
        kept = [
            row
            for row in self.rows
            if all(row.get(column) == value for column, value in equals.items())
        ]
        return SweepResult(columns=self.columns, rows=kept)

    def group_by(self, *columns: str) -> dict[tuple[Any, ...], "SweepResult"]:
        """Partition the rows by the values of one or more columns."""
        self._check_columns(*columns)
        groups: dict[tuple[Any, ...], SweepResult] = {}
        for row in self.rows:
            key = tuple(row.get(column) for column in columns)
            groups.setdefault(
                key, SweepResult(columns=self.columns, rows=[])
            ).rows.append(row)
        return groups

    def pivot(
        self, index: str | Sequence[str], value: str
    ) -> dict[Any, Any]:
        """Map (index-column values) -> value-column entries.

        ``index`` may be one column name or a sequence (keys become
        tuples).  Raises if two rows map the same key to different
        values — pre-:meth:`filter` the table down to one row per key.
        """
        index_columns = (index,) if isinstance(index, str) else tuple(index)
        self._check_columns(*index_columns, value)
        table: dict[Any, Any] = {}
        for row in self.rows:
            key = tuple(row.get(column) for column in index_columns)
            if len(index_columns) == 1:
                key = key[0]
            entry = row.get(value)
            if key in table and table[key] != entry:
                raise ValueError(
                    f"pivot key {key!r} is ambiguous: {table[key]!r} vs {entry!r}; "
                    "filter the result (e.g. by policy) before pivoting"
                )
            table[key] = entry
        return table

    # ------------------------------------------------------------------ #
    def _column_windows(self, size: int) -> Iterator[list[Sequence[Any]]]:
        """The table in windows of ``size`` rows, one sequence per column.

        Array columns of the column store are only sliced, so
        memory-mapped shard columns are paged in one window at a time;
        packed rows are transposed with ``zip``.
        """
        count = len(self)
        names = self.columns
        if self._rows is not None:
            rows = self._rows
            for start in range(0, count, size):
                window = rows[start : start + size]
                yield [[row.get(name) for row in window] for name in names]
        elif self._series is not None:
            ordered = [self._series[name] for name in names]
            for start in range(0, count, size):
                yield [column[start : start + size] for column in ordered]
        else:
            values = self._values_list
            for start in range(0, count, size):
                yield list(zip(*values[start : start + size]))

    def iter_csv(self) -> Iterator[str]:
        """Yield the CSV text in chunks: the header, then row windows.

        The first chunk is the header line; each later chunk holds the
        lines of up to ``_CSV_WINDOW_ROWS`` rows (trailing newline
        included).  Every store renders through the same column-wise
        renderer (:class:`_CsvRenderer`), without building a row dict,
        so resident memory stays bounded by one window.
        """
        renderer = _CsvRenderer()
        yield renderer.line(self.columns)
        if not self.columns:
            yield "\n" * len(self)
            return
        for columns in self._column_windows(_CSV_WINDOW_ROWS):
            yield renderer.window(columns)

    def write_csv(self, path: str | Path) -> int:
        """Write the table to ``path`` one window at a time; returns rows.

        Unlike :meth:`to_csv`, the full CSV text is never materialized —
        use this for very large grids.  The bytes written are identical
        to what :meth:`to_csv` produces.
        """
        with Path(path).open("w", newline="") as handle:
            handle.writelines(self.iter_csv())
        return len(self)

    def to_csv(self, path: str | Path | None = None) -> str:
        """Render as CSV (and write it to ``path`` when given)."""
        text = "".join(self.iter_csv())
        if path is not None:
            # newline="" matches write_csv: the rendered "\n" line
            # endings reach the file untranslated on every platform.
            Path(path).write_text(text, newline="")
        return text

    def to_json(self, path: str | Path | None = None) -> str:
        """Render as JSON (and write it to ``path`` when given)."""
        text = json.dumps(
            {"columns": list(self.columns), "rows": self.rows}, indent=2, sort_keys=False
        )
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        return cls(columns=tuple(payload["columns"]), rows=list(payload["rows"]))

    @classmethod
    def merge_shards(cls, paths: "Sequence[str | Path]") -> "SweepResult":
        """Reassemble ``.repro-shard`` artifacts into one packed result.

        The inverse of a sharded sweep
        (:class:`~repro.experiments.sharding.ShardRunner`): given the
        artifacts of every shard of one plan — in any order, duplicates
        deduplicated — returns a table byte-identical (packed store and
        CSV bytes) to the monolithic
        :meth:`~repro.experiments.runner.SweepRunner.run` of the same
        spec.  Missing, duplicated-but-different and foreign shards
        raise :class:`~repro.experiments.sharding.ShardError`.  The
        merge is columnar end to end: no row dict is materialized.
        """
        from repro.experiments.sharding import merge_shard_paths

        return merge_shard_paths(paths).result()


__all__ = ["SweepResult"]
