"""The column-wise CSV renderer against a per-row ``csv.writer`` oracle.

``SweepResult.iter_csv`` renders windows of rows a column at a time.
Its contract is the per-row writer it replaced, after normalizing numpy
scalars to Python scalars: every cell through :func:`csv.writer`, floats
as ``repr``.  The tables drawn here hold the cells that stress that
contract (signed zeros, NaN, infinities, subnormals, large floats, ints,
bools, ``None``, strings that need quoting), built from every
constructor input shape (row dicts, list columns, ndarray columns), at
sizes on both sides of the rendering window.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import SweepResult
from repro.experiments.result import _CSV_WINDOW_ROWS

WINDOW = _CSV_WINDOW_ROWS
ROW_COUNTS = (0, 1, 2, 5, WINDOW - 1, WINDOW, WINDOW + 1)

SPECIAL_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1, -2.5e-8)
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
texts = st.text(alphabet=st.sampled_from('ab ,"\n\r\t\'é;'), max_size=6)
objects = st.one_of(
    floats,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    texts,
    floats.map(np.float64),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)

#: Column kinds: (cell strategy, dtype of the ndarray-columns input or
#: None for a plain list).  Numpy-typed kinds hold numpy scalars in the
#: row-dict and list-column inputs and an array in the ndarray input.
KINDS = {
    "float": (floats, np.float64),
    "float64-scalars": (floats.map(np.float64), np.float64),
    "float32-scalars": (
        st.one_of(st.sampled_from(SPECIAL_FLOATS[:7]), st.floats(width=32)).map(np.float32),
        np.float32,
    ),
    "int64-scalars": (st.integers(-(2**40), 2**40).map(np.int64), np.int64),
    "bool-scalars": (st.booleans().map(np.bool_), np.bool_),
    "text": (texts, None),
    "objects": (objects, None),
}


def _plain(value):
    if isinstance(value, np.generic):
        value = value.item()
    return repr(value) if isinstance(value, float) else value


def _oracle_csv(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_plain(value) for value in row])
    return buffer.getvalue()


@st.composite
def tables(draw, row_counts=st.sampled_from(ROW_COUNTS)):
    """(columns, rows, dtypes): a table whose cells repeat a drawn pool."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    count = draw(row_counts)
    columns = [f"c{index}" for index in range(len(kinds))]
    columns[0] = draw(st.sampled_from(["c0", "a,b", 'q"uote', "line\nbreak", ""]))
    pools = [
        draw(st.lists(KINDS[kind][0], min_size=1, max_size=7)) for kind in kinds
    ]
    steps = [draw(st.integers(1, 5)) for _ in kinds]
    rows = [
        tuple(pool[(row * step) % len(pool)] for pool, step in zip(pools, steps))
        for row in range(count)
    ]
    return columns, rows, [KINDS[kind][1] for kind in kinds]


def _from_each_input(columns, rows, dtypes):
    """The table built from each constructor input shape."""
    lists = {name: [row[index] for row in rows] for index, name in enumerate(columns)}
    arrays = {
        name: cells if dtype is None else np.array(cells, dtype=dtype)
        for (name, cells), dtype in zip(lists.items(), dtypes)
    }
    return {
        "row dicts": SweepResult.from_rows(
            [dict(zip(columns, row)) for row in rows], columns=columns
        ),
        "list columns": SweepResult.from_columns(lists),
        "ndarray columns": SweepResult.from_columns(arrays),
    }


@settings(max_examples=60, deadline=None)
@given(table=tables())
def test_every_store_renders_the_oracle_bytes(table):
    columns, rows, dtypes = table
    expected = _oracle_csv(columns, rows)
    for shape, result in _from_each_input(columns, rows, dtypes).items():
        chunks = list(result.iter_csv())
        assert chunks[0] == _oracle_csv(columns, []), shape
        assert "".join(chunks) == expected, shape
        assert result.to_csv() == expected, shape


@settings(max_examples=20, deadline=None)
@given(table=tables(row_counts=st.integers(0, 4)))
def test_write_csv_writes_the_oracle_bytes(table, tmp_path_factory):
    columns, rows, dtypes = table
    expected = _oracle_csv(columns, rows).encode("utf-8")
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    for shape, result in _from_each_input(columns, rows, dtypes).items():
        assert result.write_csv(path) == len(rows), shape
        assert path.read_bytes() == expected, shape


@pytest.mark.parametrize("count", ROW_COUNTS)
def test_chunks_are_header_then_windows(count):
    result = SweepResult.from_columns(
        {"x": [float(i) for i in range(count)], "y": ["s"] * count}
    )
    chunks = list(result.iter_csv())
    assert chunks[0] == "x,y\n"
    assert [chunk.count("\n") for chunk in chunks[1:]] == [
        min(WINDOW, count - start) for start in range(0, count, WINDOW)
    ]


def test_signed_zeros_and_nans_keep_their_text_in_one_column():
    cells = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 0.0, -0.0]
    rows = [(cell,) for cell in cells]
    for shape, result in _from_each_input(["x"], rows, [np.float64]).items():
        assert result.to_csv() == _oracle_csv(["x"], rows), shape


def test_single_empty_field_records_are_quoted_like_csv():
    result = SweepResult.from_rows([{"a": None}, {"a": ""}, {"a": 1.5}])
    assert result.to_csv() == _oracle_csv(("a",), [(None,), ("",), (1.5,)])
    assert result.to_csv() == 'a\n""\n""\n1.5\n'


def test_tables_without_columns_write_one_empty_line_per_row():
    result = SweepResult.from_rows([{}, {}])
    assert result.to_csv() == "\n\n\n"


class TestNumpyScalarCells:
    """Numpy scalars in row dicts and list columns (regression).

    Numpy 2's ``repr(np.float64(0.1))`` is ``'np.float64(0.1)'``; the
    cells must render like the same values in a column-store array.
    """

    def test_float64_scalar_in_row_dicts(self):
        assert SweepResult.from_rows([{"a": np.float64(0.1)}]).to_csv() == "a\n0.1\n"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_])
    def test_all_stores_agree_with_from_columns(self, dtype):
        values = np.array([0.1, -0.0, 3.0], dtype=dtype)
        expected = SweepResult.from_columns({"a": values}).to_csv()
        rows = [{"a": value} for value in values]
        assert SweepResult.from_rows(rows).to_csv() == expected
        assert SweepResult.from_columns({"a": list(values)}).to_csv() == expected
