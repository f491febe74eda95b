import tracemalloc

import numpy as np
import pytest

from weakdrive import runner
from weakdrive.basis import pair_arrays
from weakdrive.perturbation import PerturbState
from weakdrive.reporting import CHUNK_ROWS, fmt_value, write_csv


def _per_cell_csv(columns):
    """Reference writer: one fmt_value call per numpy scalar, joined per line."""
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join(fmt_value(x) for x in row))
    return "\n".join(lines) + "\n"


def _csv(tmp_path, columns):
    path = tmp_path / "t.csv"
    write_csv(str(path), columns)
    return path.read_text()


FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 2.2250738585072014e-308, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"), 0.1, -1.0 / 3.0, 1.2345678901234567,
    9.8765432109876543e-12, 12345678901234567.0, 1e17, 1e16, 123.0,
]
# a float64 column prints through a double, so integers in it are exact up
# to 2**53 in magnitude
INTS = [0, 1, -1, 7, 10**15, 2**53 - 1, 2**53, -(2**53)]


def test_csv_text_matches_per_cell_reference_on_floats(tmp_path):
    values = np.array(FLOATS)
    columns = {"a": values[0::3], "b": values[1::3], "c": values[2::3]}
    assert _csv(tmp_path, columns) == _per_cell_csv(columns)


def test_csv_text_matches_per_cell_reference_on_integers(tmp_path):
    columns = {"mu": np.array(INTS), "nu": np.array(INTS, dtype=np.int64),
               "re": np.arange(len(INTS), dtype=float)}
    assert _csv(tmp_path, columns) == _per_cell_csv(columns)


def test_csv_text_rounds_integers_beyond_double_precision(tmp_path):
    # a float64 column prints through a double
    assert _csv(tmp_path, {"mu": np.array([2.0**53 + 1])}) == "mu\n9007199254740992\n"
    assert _csv(tmp_path, {"mu": np.array([10.0**17 - 1])}) == "mu\n1e+17\n"


def test_csv_text_integer_columns_match_float_path_and_stay_exact(tmp_path):
    mu = np.array(INTS, dtype=np.int64)
    nu = (np.abs(mu) % 2**32).astype(np.uint32)
    re = np.arange(len(INTS), dtype=float)
    text = _csv(tmp_path, {"mu": mu, "nu": nu, "re": re})
    assert text == _csv(tmp_path, {"mu": mu.astype(float), "nu": nu.astype(float), "re": re})
    assert text == _per_cell_csv({"mu": mu, "nu": nu, "re": re})
    exact = _csv(tmp_path, {"mu": np.array([2**53 + 1]), "nu": np.array([2**64 - 1], np.uint64),
                            "re": np.array([0.5])})
    assert exact == "mu,nu,re\n9007199254740993,18446744073709551615,0.5\n"


@pytest.mark.parametrize("kind", [np.complex128, np.bool_, object, np.float32])
def test_csv_text_rejects_columns_that_are_not_numbers(tmp_path, kind):
    # a float32 would print the digits of its widened double
    with pytest.raises(TypeError):
        write_csv(str(tmp_path / "t.csv"), {"mu": np.arange(2), "x": np.zeros(2, dtype=kind)})
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("shapes", [[(3,), (2,)], [(2, 2), (2, 2)], [()], []])
def test_write_csv_rejects_columns_of_unequal_length_or_rank(tmp_path, shapes):
    columns = {f"c{k}": np.zeros(shape) for k, shape in enumerate(shapes)}
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), columns)
    assert not (tmp_path / "t.csv").exists()


def test_csv_text_random_rows_match_reference(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((4, 50)) * 10.0 ** rng.integers(-300, 300, (4, 50))
    columns = {"mu": np.arange(50), **dict(zip("abcd", values))}
    assert _csv(tmp_path, columns) == _per_cell_csv(columns)


def test_csv_text_empty_table(tmp_path):
    columns = {"eta": np.zeros(0), "N_pt": np.zeros(0)}
    assert _csv(tmp_path, columns) == _per_cell_csv(columns) == "eta,N_pt\n"


def test_csv_text_rejects_none_cells(tmp_path):
    # a None among floats makes an object column, which is refused whole
    with pytest.raises(TypeError):
        write_csv(str(tmp_path / "t.csv"), {"eta": np.array([0.1, None])})


@pytest.mark.parametrize("count", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, 3 * CHUNK_ROWS,
                                   3 * CHUNK_ROWS + 1])
def test_write_csv_streams_the_bytes_of_csv_text(tmp_path, count):
    # strided real and imaginary views, as the amplitude tables pass them
    rng = np.random.default_rng(count)
    labels = np.arange(count)
    value = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    columns = {"mu": labels, "nu": labels // 3, "re": value.real, "im": value.imag}
    text = _csv(tmp_path, columns)
    assert text == _per_cell_csv(columns)
    assert len(text.splitlines()) == 1 + count


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
        write_csv(str(tmp_path / "v.csv"), runner._amplitude_tables(state)["v"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6e6
    assert len((tmp_path / "v.csv").read_text().splitlines()) == 1 + m


@pytest.mark.parametrize("value", [None, "0.5", 1j, [1.0]])
def test_fmt_value_refuses_a_non_number(value):
    # a None once printed as an empty value
    with pytest.raises(TypeError, match="expected a number"):
        fmt_value(value)
