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
"""

from __future__ import annotations

import hashlib
import json
import operator
from collections import deque
from typing import Iterable, Sequence

import numpy as np

FLOAT_FMT = ".17g"


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
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2))
        fh.write("\n")


def csv_text(header, rows: Iterable[Sequence]) -> str:
    """CSV text of rows under header: column names, or a structured dtype
    whose fields give each column's name and data type."""
    if not isinstance(header, np.dtype):
        header = np.dtype([(name, np.float64) for name in header])
    kinds = [header[name].kind for name in header.names]
    if not set(kinds) <= set("iuf"):
        raise TypeError(f"CSV columns hold integers or floats, not {header}")
    fmt = ",".join("%" + FLOAT_FMT if kind == "f" else "%d" for kind in kinds) + "\n"
    rows = list(map(tuple, rows))
    for k, kind in enumerate(kinds):
        if kind != "f":  # %d would truncate a float; operator.index raises
            deque(map(operator.index, map(operator.itemgetter(k), rows)), maxlen=0)
    return ",".join(header.names) + "\n" + "".join(map(fmt.__mod__, rows))


def write_csv(path: str, header, rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(header, rows))
