import tracemalloc

import numpy as np
import pytest

from weakdrive import runner
from weakdrive.basis import pair_arrays
from weakdrive.perturbation import PerturbState
from weakdrive.reporting import CHUNK_ROWS, ColumnRows, csv_text, fmt_value, write_csv


def _per_cell_csv(header, rows):
    """Reference writer: one fmt_value call per cell, joined per line."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_value(x) for x in row))
    return "\n".join(lines) + "\n"


FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 2.2250738585072014e-308, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"), 0.1, -1.0 / 3.0, 1.2345678901234567,
    9.8765432109876543e-12, 12345678901234567.0, 1e17, 1e16, 123.0,
]
# %g prints through a double, so integers are exact up to 2**53 in magnitude
INTS = [0, 1, -1, 7, 10**15, 2**53 - 1, 2**53, -(2**53)]


def test_csv_text_matches_per_cell_reference_on_floats():
    rows = [FLOATS[k : k + 3] for k in range(0, len(FLOATS), 3)]
    assert csv_text(["a", "b", "c"], rows) == _per_cell_csv(["a", "b", "c"], rows)
    rows64 = [[np.float64(x) for x in row] for row in rows]
    assert csv_text(["a", "b", "c"], rows64) == _per_cell_csv(["a", "b", "c"], rows)


def test_csv_text_matches_per_cell_reference_on_integers():
    rows = [(x, np.int64(x), float(k)) for k, x in enumerate(INTS)]
    assert csv_text(["mu", "nu", "re"], rows) == _per_cell_csv(["mu", "nu", "re"], rows)


def test_csv_text_rounds_integers_beyond_double_precision():
    # a header of names makes float columns, which print through a double
    assert csv_text(["mu"], [[2**53 + 1]]) == "mu\n9007199254740992\n"
    assert csv_text(["mu"], [[10**17 - 1]]) == "mu\n1e+17\n"


LABELS = np.dtype([("mu", np.int64), ("nu", np.uint32), ("re", np.float64)])


def test_csv_text_integer_columns_match_float_path_and_stay_exact():
    rows = [(x, np.int64(abs(x) % 2**32), float(k)) for k, x in enumerate(INTS)]
    assert csv_text(LABELS, rows) == csv_text(["mu", "nu", "re"], rows)
    assert csv_text(LABELS, iter(rows)) == _per_cell_csv(["mu", "nu", "re"], rows)
    exact = csv_text(LABELS, [[2**53 + 1, 10**9, 0.5]])
    assert exact == "mu,nu,re\n9007199254740993,1000000000,0.5\n"


@pytest.mark.parametrize("cell", [1.0, np.float64(2.5), None, "3"])
def test_csv_text_rejects_non_integers_in_integer_columns(cell):
    # %d alone would write 1.0 and 2.5 as 1 and 2
    with pytest.raises(TypeError):
        csv_text(LABELS, [(0, 0, 0.5), (cell, 0, 0.5)])


@pytest.mark.parametrize("kind", [np.complex128, np.bool_, object])
def test_csv_text_rejects_columns_that_are_not_numbers(kind):
    with pytest.raises(TypeError):
        csv_text(np.dtype([("mu", np.int64), ("x", kind)]), [])


def test_csv_text_random_rows_match_reference():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    rows = [[int(k), *row] for k, row in enumerate(values.tolist())]
    header = ["mu", "a", "b", "c", "d"]
    assert csv_text(header, rows) == _per_cell_csv(header, rows)


def test_csv_text_empty_table():
    assert csv_text(["eta", "N_pt"], []) == _per_cell_csv(["eta", "N_pt"], []) == "eta,N_pt\n"


def test_csv_text_rejects_none_cells():
    with pytest.raises(TypeError):
        csv_text(["eta", "N_pt"], [[0.1, None]])


def _label_columns(count):
    rng = np.random.default_rng(count)
    labels = np.arange(count)
    return labels, labels // 3, rng.standard_normal(count), rng.standard_normal(count)


@pytest.mark.parametrize("count", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, 3 * CHUNK_ROWS,
                                   3 * CHUNK_ROWS + 1])
def test_write_csv_streams_the_bytes_of_csv_text(tmp_path, count):
    header = np.dtype([("mu", np.int64), ("nu", np.int64), ("re", np.float64),
                       ("im", np.float64)])
    columns = _label_columns(count)
    rows = list(zip(*(c.tolist() for c in columns)))
    path = tmp_path / "t.csv"
    write_csv(str(path), header, iter(rows))
    text = csv_text(header, rows)
    assert path.read_text() == text == _per_cell_csv(header.names, rows)
    view = ColumnRows(*columns)
    assert len(view) == count
    assert list(view) == list(view) == rows
    write_csv(str(path), header, view)
    assert path.read_text() == text


def test_write_csv_rejects_a_float_label_in_a_later_chunk(tmp_path):
    header = np.dtype([("mu", np.int64), ("re", np.float64)])
    rows = [(k, 0.5) for k in range(2 * CHUNK_ROWS + 10)]
    rows[CHUNK_ROWS + 3] = (1.0, 0.5)
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError):
        write_csv(str(path), header, rows)
    with pytest.raises(TypeError):
        csv_text(header, rows)
    # the header and the whole chunks before the bad one are on disk
    assert path.read_text() == csv_text(header, rows[:CHUNK_ROWS])


def test_v_table_is_built_and_written_in_bounded_memory(tmp_path):
    # 12,720 pairs of 160 atoms: held as a list of row tuples and one joined
    # string, the table took 2.0 + 2.0 MB of traced memory
    n = 160
    rng = np.random.default_rng(0)
    m = n * (n - 1) // 2
    state = PerturbState(u=rng.standard_normal(n) + 0j,
                         v=rng.standard_normal(m) + 1j * rng.standard_normal(m),
                         w=np.ones(n, dtype=complex), delta=0.3, eta=0.05,
                         atoms=tuple(range(n)))
    pair_arrays(n)  # cached by the pair solve before any table is built
    tracemalloc.start()
    try:
        header, rows = runner._amplitude_tables(state)["v"]
        write_csv(str(tmp_path / "v.csv"), header, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6e6
    assert len((tmp_path / "v.csv").read_text().splitlines()) == 1 + m
