"""The numeric CSV reader against Python's per-cell ``float``.

``read_numeric_csv`` streams every data row through one ``np.loadtxt``
pass. Its cells must have the bits ``float`` gives them, its dialect must
accept what a ``csv.reader`` loop accepted (quoted cells, blank and
whitespace-only lines, any line ending), its peak memory must be about the
parsed array, and each error must name the path, and for a row error the
1-based line.
"""

from __future__ import annotations

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conicswarm.csvio import read_numeric_csv
from conicswarm.experiments import load_gmm_data, load_regression
from conicswarm.swarm import ParticleSwarm
from helpers import same_bits

FORMATS = {"repr": repr, "17g": "%.17g".__mod__, "6g": "%.6g".__mod__}


def write(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@given(table=st.integers(1, 5).flatmap(lambda width: st.lists(
           st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=width, max_size=width), min_size=1, max_size=20)),
       fmt=st.sampled_from(sorted(FORMATS)))
@example(table=[[5e-324, -0.0, 0.0, 2.2250738585072014e-308, 1.7976931348623157e308]],
         fmt="repr")
@example(table=[[-5e-324, 1e-310], [0.1, -1e22]], fmt="17g")
@settings(max_examples=200, deadline=None)
def test_cells_have_the_bits_of_float(tmp_path_factory, table, fmt):
    cells = [[FORMATS[fmt](v) for v in row] for row in table]
    header = ",".join(f"c{i}" for i in range(len(cells[0])))
    text = header + "\n" + "".join(",".join(row) + "\n" for row in cells)
    path = write(tmp_path_factory.getbasetemp(), text, "property.csv")
    got_header, rows = read_numeric_csv(path)
    assert got_header == header.split(",")
    assert same_bits(rows, [[float(c) for c in row] for row in cells])


@pytest.mark.parametrize("text", [
    pytest.param("a,b\r\n1,2\r\n3,4\r\n", id="crlf"),
    pytest.param("a,b\r1,2\r3,4", id="cr"),
    pytest.param('"a","b"\n"1",2\n3,"4"\n', id="quoted"),
    pytest.param("a,b\n\n1,2\n   \n\t\n3 , 4\n\n", id="blank_and_whitespace_lines"),
])
def test_dialect(tmp_path, text):
    header, rows = read_numeric_csv(write(tmp_path, text))
    assert header == ["a", "b"]
    assert same_bits(rows, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("text, shape", [
    ("a,b\n1,2\n", (1, 2)),
    ("a\n1\n2\n", (2, 1)),
    ("a,b,c\n", (0, 3)),
    ("a,b,c", (0, 3)),
    ("a,b,c\n\n   \n\t\r\n\r \n", (0, 3)),
])
def test_shapes(tmp_path, text, shape):
    # a table with no data rows is empty, with no "input contained no data"
    # warning from the parser
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_numeric_csv(write(tmp_path, text))[1].shape == shape


def test_peak_memory_is_about_the_array(tmp_path):
    # the rows stream from the file into the parser: no copy of the text and
    # no list of lines (the whole text plus one string per line was 3x)
    rows = np.random.Generator(np.random.Philox(0)).standard_normal((50_000, 9))
    path = tmp_path / "wide.csv"
    np.savetxt(path, rows, fmt="%.6g", delimiter=",", comments="",
               header=",".join(f"c{i}" for i in range(9)))
    tracemalloc.start()
    try:
        got = read_numeric_csv(path)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == rows.shape
    assert peak <= 1.5 * got.nbytes, peak / got.nbytes


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("a,b\n1,2\n\n3\n", "4: expected 2 fields, got 1"),
    ("a,b\n1,2\n3,4,5\n", "3: expected 2 fields, got 3"),
    ("a,b,c\n1,2\n3,4\n", "2: expected 3 fields, got 2"),
    ("a,b,c\r\n1,2\r\n3,4\r\n", "2: expected 3 fields, got 2"),
    ("a,b,c\r\r1,2\r  \r3,4", "3: expected 3 fields, got 2"),
    ("a,b\n1,2\n3,oops\n", "3: non-numeric cell (could not convert string to float: 'oops')"),
    ("a,b\n\n\n1,\n", "4: non-numeric cell (could not convert string to float: '')"),
])
def test_errors_name_the_path_and_line(tmp_path, text, message):
    path = write(tmp_path, text)
    sep = ": " if message == "empty file" else ":"
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{sep}{message}") + "$"):
        read_numeric_csv(path)


def test_cells_float_alone_accepts_name_the_path(tmp_path):
    # digit-group underscores pass float() but not the vectorized parse
    path = write(tmp_path, "a,b\n1,2\n1_000,2\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: could not convert")):
        read_numeric_csv(path)


def test_header_mismatch_names_the_path(tmp_path):
    path = write(tmp_path, "a,b\n0.0,1.0\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: expected header")):
        read_numeric_csv(path, expected_header=["x0", "x1"])
    assert read_numeric_csv(write(tmp_path, " x0 ,x1\n0,1\n"), ["x0", "x1"])[0] == [" x0 ", "x1"]


@pytest.mark.parametrize("load", [lambda p: load_gmm_data(p, tau=0.3),
                                  lambda p: load_regression(p, np.random.default_rng(0))],
                         ids=["gmm", "regression"])
def test_data_sets_need_a_row(tmp_path, load):
    path = write(tmp_path, "x0,x1\n\n  \n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: no data rows") + "$"):
        load(path)


def test_swarm_files(tmp_path):
    empty = write(tmp_path, "weight,sign,x0,x1\n", "empty.csv")
    swarm = ParticleSwarm.from_csv(empty)
    assert len(swarm) == 0 and swarm.dim == 2
    back = ParticleSwarm.from_csv(write(tmp_path, "weight,sign\n0.5,1\n0.25,-1\n", "dimless.csv"))
    assert back.dim == 0 and same_bits(back.weights, [0.5, 0.25])
    assert same_bits(back.signs, [1.0, -1.0]) and back.positions.shape == (2, 0)
    two = ParticleSwarm.from_csv(
        write(tmp_path, "weight,sign,x0,x1\n0.5,1,0.1,0.2\n0.25,-1,0.3,0.4\n", "two.csv"))
    assert all(a.flags.c_contiguous for a in (two.weights, two.signs, two.positions))
    ragged = write(tmp_path, "weight,sign,x0\n0.5,1,0.0\n0.5,1\n", "ragged.csv")
    with pytest.raises(ValueError, match=re.escape(f"{ragged}:3: expected 3 fields, got 2")):
        ParticleSwarm.from_csv(ragged)
    with pytest.raises(ValueError, match="unexpected swarm CSV header"):
        ParticleSwarm.from_csv(write(tmp_path, "x0,x1\n0.5,1\n", "data.csv"))
