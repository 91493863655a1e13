"""floatfmt renders numpy columns as CSV rows whose cells are exactly `repr`."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from barylab import cli, floatfmt


def repr_rows(columns):
    """The CSV rows as `repr` of each cell's Python value writes them."""
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in zip(*(col.tolist() for col in columns)))


def assert_repr(values):
    col = np.asarray(values, dtype=np.float64)
    assert floatfmt.csv_rows([col]) == repr_rows([col])


derandomized = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@derandomized
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(patterns):
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_random_bit_patterns_in_bulk():
    rng = np.random.default_rng(2025)
    assert_repr(rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64))
    assert_repr(rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64).view(np.float64))  # subnormal
    assert_repr(rng.uniform(0.0, 1e-3, 20_000))  # the bcg scan's range


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def test_edge_values():
    nan_payloads = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                    0xFFF0000000000DEF, 0x7FFFFFFFFFFFFFFF]
    values = [0.0, -0.0, math.inf, -math.inf, 5e-324, 2.225073858507201e-308,
              2.0 ** -1022, 9007199254740993.0, 2.0 ** -25]
    values += list(np.array(nan_payloads, dtype=np.uint64).view(np.float64))
    for x in (1e-4, 1e-5, 1e15, 1e16, 1e22, 1e23):
        values += neighbours(x)
    values += [x for k in range(-1074, 1024) for x in neighbours(2.0 ** k)]
    # integral values with 9 to 15 trailing zeros, e.g. 3e15
    values += [d * 10.0 ** z for z in range(9, 16) for d in (1, 3, 7, 12, 999999)]
    values += [-x for x in values]
    assert_repr(values)


def test_int_cells():
    ints = np.array([0, -1, 7, -42, 10 ** 18, -10 ** 18, 2 ** 63 - 1, -2 ** 63, 1000],
                    dtype=np.int64)
    assert floatfmt.csv_rows([ints]) == "".join(f"{v}\n" for v in ints.tolist())


def test_runs_of_mixed_columns():
    """Float and int columns in any order, each run rendered in one pass,
    with "," between cells and "\\n" after the last."""
    rng = np.random.default_rng(5)
    n = 500
    columns = [rng.standard_normal(n), np.arange(n) - 250, rng.uniform(0, 1e-3, n),
               rng.standard_normal(n) * 1e20, rng.integers(-10 ** 12, 10 ** 12, n),
               rng.uniform(size=n)]
    assert floatfmt.csv_rows(columns) == repr_rows(columns)


def test_csv_with_quoted_string_column(tmp_path):
    """A column of strings takes _fmt's path, quoted per RFC 4180, beside
    float columns rendered the same as repr."""
    floats = np.array([0.1, -2.5e-7, 1e16])
    labels = ["plain", "a,b", 'say "hi"']
    path = cli._write_csv(str(tmp_path), "t.csv", {"k": 1}, ["x", "label"], [floats, labels])
    body = open(path, encoding="utf-8").read().split("\n", 2)[2]
    assert body == '0.1,plain\n-2.5e-07,"a,b"\n1e+16,"say ""hi"""\n'


def test_blocks_join_to_one_table(tmp_path):
    """A table longer than a block reads the same as repr row by row."""
    rng = np.random.default_rng(9)
    n = 3 * cli.CSV_BLOCK_CELLS // 2 + 7
    columns = [np.arange(n), rng.uniform(size=n)]
    path = cli._write_csv(str(tmp_path), "t.csv", {}, ["i", "u"], columns)
    lines = open(path, encoding="utf-8").read().split("\n", 2)
    assert lines[1] == "i,u" and lines[2] == repr_rows(columns)
