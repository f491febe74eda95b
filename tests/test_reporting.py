import numpy as np
import pytest

from weakdrive.reporting import csv_text, fmt_value


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
