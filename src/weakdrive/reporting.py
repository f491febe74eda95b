"""Result serialisation: canonical hashes, JSON reports, CSV tables.

CSV values carry 17 significant digits so reruns can be compared
bit-for-bit across platforms. A table is a mapping from header name to a
1-D numpy array, and each column's format follows from its data type: an
integer column (atom labels) prints with %d, exact at any size, and a
float64 column as format(x, ".17g"). A column of any other type is
refused, so a cell is always a number of its column's kind.
report.json is written by json.dumps as is: report values must already be
JSON types (float, int, str, bool, None, lists and dicts of them), and
anything else, such as an array or a complex number, raises TypeError.

Tables are formatted and written CHUNK_ROWS rows at a time, each chunk
with one %-format, so writing a table holds one chunk's rows and text
besides the columns, never the whole table as one string.

config_hash is the SHA-256 of the canonical JSON of a config (sorted keys,
no spaces). It takes sha256 from the interpreter's built-in module (_sha2
on CPython 3.12+, _sha256 on 3.10-3.11), because hashlib loads OpenSSL's
libcrypto (3.3 MB resident) into the process to hash one short string;
hashlib.sha256 is used only where neither module exists, as on a FIPS
build. The digest is the same either way.
"""

from __future__ import annotations

import json

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
    """A number as it is written to CSV; anything else raises TypeError."""
    if isinstance(x, (float, np.floating)):
        return format(float(x), FLOAT_FMT)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    raise TypeError(f"expected a number, not {type(x).__name__}")


def config_hash(data) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2))
        fh.write("\n")


def _column_format(column: np.ndarray) -> str:
    if column.dtype.kind in "iu":
        return "%d"
    if column.dtype == np.float64:
        return "%" + FLOAT_FMT
    raise TypeError(f"CSV columns hold integers or float64, not {column.dtype}")


def write_csv(path: str, columns: dict) -> None:
    """Write columns, a mapping from header name to a 1-D numpy array, to
    path as CSV, CHUNK_ROWS rows at a time. A column of another data type
    raises TypeError, and columns of unequal length raise ValueError, both
    before path is opened."""
    arrays = list(columns.values())
    fmt = ",".join(map(_column_format, arrays)) + "\n"
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
        raise ValueError(f"CSV columns are 1-D and of one length, not {[a.shape for a in arrays]}")
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, len(arrays[0]), CHUNK_ROWS):
            chunk = zip(*(a[lo : lo + CHUNK_ROWS].tolist() for a in arrays))
            fh.write("".join(map(fmt.__mod__, chunk)))
