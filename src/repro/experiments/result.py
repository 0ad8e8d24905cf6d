"""Tabular results of a parameter sweep.

A :class:`SweepResult` is a small, dependency-free data frame with a
fixed column order, held as **one column store**: an ordered
``{column: ndarray | list}`` plus an explicit row count (so a table
without columns keeps its length).  The runner transposes its packed
per-point rows into it once, and a shard merge hands over its columns
as they are, so float columns may stay memory-mapped views into
``.repro-shard`` artifacts.  ``filter`` compares array columns
vectorized, and ``filter``/``group_by`` cut rows with one row-index
take that only fancy-indexes arrays.

Row dicts are read-only views: :attr:`~SweepResult.rows`, iteration,
indexing, :meth:`~SweepResult.pivot` and :meth:`~SweepResult.to_json`
build fresh dicts of plain Python scalars from the columns, so editing
one never changes the table.

CSV goes through one renderer: :meth:`~SweepResult.iter_csv` slices
the columns into windows of rows and renders a column at a time, so a
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
        self, columns: "Mapping[str, Any] | None" = None, length: int | None = None
    ):
        self._store: dict[str, Any] = {
            name: column if isinstance(column, (np.ndarray, list)) else list(column)
            for name, column in (columns or {}).items()
        }
        self.columns: tuple[str, ...] = tuple(self._store)
        lengths = {len(column) for column in self._store.values()}
        if length is None:
            length = min(lengths, default=0)
        if lengths - {length}:
            raise ValueError(
                f"all columns must have {length} row(s); got lengths {sorted(lengths)}"
            )
        self._length = length

    # -- constructors --------------------------------------------------- #
    @classmethod
    def from_columns(cls, columns: "Mapping[str, Any]") -> "SweepResult":
        """Build a result from one array or list per column, in order.

        Arrays are kept **as given** (including memory-mapped views into
        shard artifacts); cells become plain Python scalars only when a
        consumer asks for rows or a column.
        """
        return cls(columns)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[dict[str, Any]],
        columns: Sequence[str] | None = None,
    ) -> "SweepResult":
        """Build a result from row dicts.

        ``columns`` defaults to the first row's keys.  Every row must
        carry exactly those keys: a missing or extra key raises
        :class:`ValueError` naming the row, instead of a blank or
        dropped cell.
        """
        rows = list(rows)
        if columns is None:
            columns = tuple(rows[0]) if rows else ()
        expected = set(columns)
        for position, row in enumerate(rows):
            if not isinstance(row, dict) or row.keys() != expected:
                raise ValueError(
                    f"row {position} is not a dict of exactly the columns "
                    f"{list(columns)}: {row!r}"
                )
        return cls({name: [row[name] for row in rows] for name in columns}, len(rows))

    # -- row access ----------------------------------------------------- #
    @property
    def rows(self) -> list[dict[str, Any]]:
        """Fresh row dicts of plain scalars (editing one leaves the table as is)."""
        return list(self)

    def __len__(self) -> int:
        return self._length

    def _tuples(self, names: Sequence[str]) -> Iterator[tuple[Any, ...]]:
        """One tuple of the ``names`` cells per row (all ``None`` in a
        table without columns, which accepts any name)."""
        if not self.columns or not names:
            return iter([(None,) * len(names)] * len(self))
        return zip(*map(self.column, names))

    def __iter__(self) -> Iterator[dict[str, Any]]:
        names = self.columns
        return (dict(zip(names, cells)) for cells in self._tuples(names))

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self._take([range(len(self))[index]]).rows[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepResult):
            return NotImplemented
        return (
            self.columns == other.columns
            and len(self) == len(other)
            and all(self.column(name) == other.column(name) for name in self.columns)
        )

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
        """All values of one column, in row order, as a fresh list."""
        self._check_columns(name)
        column = self._store[name]
        return column.tolist() if isinstance(column, np.ndarray) else list(column)

    # ------------------------------------------------------------------ #
    def _take(self, positions: Sequence[int]) -> "SweepResult":
        """The rows at ``positions``, in that order, as a new table.

        Array columns are fancy-indexed (a memory-mapped column reads
        only the kept rows); list columns gather the kept cells.
        """
        positions = np.asarray(positions, dtype=np.intp)
        picks = positions.tolist()
        return SweepResult(
            {
                name: column[positions]
                if isinstance(column, np.ndarray)
                else list(map(column.__getitem__, picks))
                for name, column in self._store.items()
            },
            len(picks),
        )

    def filter(self, **equals: Any) -> "SweepResult":
        """Rows whose columns equal the given values (AND semantics).

        Array columns compare vectorized; no row dict is built.
        """
        self._check_columns(*equals)
        count = len(self)
        keep = np.ones(count, dtype=bool)
        for name, value in equals.items():
            column = self._store.get(name, [None] * count)
            if isinstance(column, np.ndarray):
                keep &= column == value
            else:
                keep &= np.fromiter(
                    (cell == value for cell in column), dtype=bool, count=count
                )
        return self._take(np.flatnonzero(keep))

    def group_by(self, *columns: str) -> dict[tuple[Any, ...], "SweepResult"]:
        """Partition the rows by the values of one or more columns."""
        self._check_columns(*columns)
        groups: dict[tuple[Any, ...], list[int]] = {}
        for position, key in enumerate(self._tuples(columns)):
            groups.setdefault(key, []).append(position)
        return {key: self._take(positions) for key, positions in groups.items()}

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
        for *key, entry in self._tuples((*index_columns, value)):
            key = key[0] if len(index_columns) == 1 else tuple(key)
            if key in table and table[key] != entry:
                raise ValueError(
                    f"pivot key {key!r} is ambiguous: {table[key]!r} vs {entry!r}; "
                    "filter the result (e.g. by policy) before pivoting"
                )
            table[key] = entry
        return table

    # ------------------------------------------------------------------ #
    def _column_windows(self, size: int) -> Iterator[list[Sequence[Any]]]:
        """The table in windows of ``size`` rows, one slice per column.

        Array columns are only sliced, so memory-mapped shard columns
        are paged in one window at a time.
        """
        ordered = list(self._store.values())
        for start in range(0, len(self), size):
            yield [column[start : start + size] for column in ordered]

    def iter_csv(self) -> Iterator[str]:
        """Yield the CSV text in chunks: the header, then row windows.

        The first chunk is the header line; each later chunk holds the
        lines of up to ``_CSV_WINDOW_ROWS`` rows (trailing newline
        included).  The columns render through :class:`_CsvRenderer`,
        without building a row dict, so resident memory stays bounded
        by one window.
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
        """Inverse of :meth:`to_json` (rows must carry exactly the columns)."""
        payload = json.loads(text)
        return cls.from_rows(payload["rows"], columns=payload["columns"])

    @classmethod
    def merge_shards(cls, paths: "Sequence[str | Path]") -> "SweepResult":
        """Reassemble ``.repro-shard`` artifacts into one result.

        The inverse of a sharded sweep
        (:class:`~repro.experiments.sharding.ShardRunner`): given the
        artifacts of every shard of one plan — in any order, duplicates
        deduplicated — returns a table equal (cell for cell, and in CSV
        bytes) to the monolithic
        :meth:`~repro.experiments.runner.SweepRunner.run` of the same
        spec.  Missing, duplicated-but-different and foreign shards
        raise :class:`~repro.experiments.sharding.ShardError`.  The
        merge is columnar end to end: no row dict is materialized.
        """
        from repro.experiments.sharding import merge_shard_paths

        return merge_shard_paths(paths).result()


__all__ = ["SweepResult"]
