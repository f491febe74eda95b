"""Result serialisation: canonical hashes, JSON reports, CSV tables.

CSV values carry 17 significant digits so reruns can be compared
bit-for-bit across platforms. Table cells are numbers only, and a row is
written with one %-format: a float prints as format(x, ".17g"), an integer
of magnitude up to 2**53 (atom labels) as str(x), since %g goes through a
double. A None cell raises TypeError; it is never written as an empty
field. report.json is written by json.dumps as is: report values must
already be JSON types (float, int, str, bool, None, lists and dicts of
them), and anything else, such as an array or a complex number, raises
TypeError.
"""

from __future__ import annotations

import hashlib
import json
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


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    fmt = ",".join(["%" + FLOAT_FMT] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(fmt % tuple(row) for row in rows)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(header, rows))
