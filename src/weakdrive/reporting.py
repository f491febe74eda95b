"""Result serialisation: canonical hashes, JSON reports, CSV tables.

CSV values carry 17 significant digits so reruns can be compared
bit-for-bit across platforms. Table cells are numbers only, and a row is
written with one %-format. Each column's kind comes from its data type,
never from the values: a table header is a list of names, each a float64
column, or a structured numpy dtype naming each column with its dtype. A
float column prints as format(x, ".17g") (an integer in it goes through a
double, exact up to 2**53), an integer column (atom labels) with %d, exact
at any size. A float in an integer column raises TypeError instead of
being truncated, and so does a None cell; neither is ever written.
report.json is written by json.dumps as is: report values must already be
JSON types (float, int, str, bool, None, lists and dicts of them), and
anything else, such as an array or a complex number, raises TypeError.

Tables are formatted and written CHUNK_ROWS rows at a time, each chunk
with the same one %-format and integer-column check, so writing a table
holds one chunk's rows and text, never the whole table as one string.
Rows may be any re-iterable of row sequences; ColumnRows presents numpy
columns that way without building a list of rows.

config_hash is the SHA-256 of the canonical JSON of a config (sorted keys,
no spaces). It takes sha256 from the interpreter's built-in module (_sha2
on CPython 3.12+, _sha256 on 3.10-3.11), because hashlib loads OpenSSL's
libcrypto (3.3 MB resident) into the process to hash one short string;
hashlib.sha256 is used only where neither module exists, as on a FIPS
build. The digest is the same either way.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

FLOAT_FMT = ".17g"
CHUNK_ROWS = 512


def fmt_value(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), FLOAT_FMT)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return str(x)


def config_hash(data) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2))
        fh.write("\n")


class ColumnRows:
    """Rows of equal-length numpy columns, re-iterable: each pass converts
    CHUNK_ROWS rows at a time with .tolist() and yields them as tuples."""

    def __init__(self, *columns: np.ndarray):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[tuple]:
        for lo in range(0, len(self), CHUNK_ROWS):
            yield from zip(*(c[lo : lo + CHUNK_ROWS].tolist() for c in self.columns))


def _csv_chunks(header, rows: Iterable[Sequence]) -> Iterator[str]:
    """The header line, then the text of each run of CHUNK_ROWS rows; header
    is column names, or a structured dtype whose fields give each column's
    name and data type."""
    if not isinstance(header, np.dtype):
        header = np.dtype([(name, np.float64) for name in header])
    kinds = [header[name].kind for name in header.names]
    if not set(kinds) <= set("iuf"):
        raise TypeError(f"CSV columns hold integers or floats, not {header}")
    fmt = ",".join("%" + FLOAT_FMT if kind == "f" else "%d" for kind in kinds) + "\n"
    ints = [k for k, kind in enumerate(kinds) if kind != "f"]
    yield ",".join(header.names) + "\n"
    rows = iter(rows)
    while chunk := list(map(tuple, islice(rows, CHUNK_ROWS))):
        for k in ints:  # %d would truncate a float; operator.index raises
            deque(map(operator.index, map(operator.itemgetter(k), chunk)), maxlen=0)
        yield "".join(map(fmt.__mod__, chunk))


def csv_text(header, rows: Iterable[Sequence]) -> str:
    """CSV text of rows under header (see _csv_chunks)."""
    return "".join(_csv_chunks(header, rows))


def write_csv(path: str, header, rows: Iterable[Sequence]) -> None:
    """Write csv_text(header, rows) to path one chunk at a time. A cell
    that fails the check raises TypeError with the file holding the header
    and every whole chunk before the one that held that cell."""
    with open(path, "w") as fh:
        fh.writelines(_csv_chunks(header, rows))
