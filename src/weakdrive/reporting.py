"""Result serialisation: canonical hashes, JSON reports, CSV tables.

CSV values carry 17 significant digits so reruns can be compared
bit-for-bit across platforms. Table cells are numbers only, and a row is
written with one %-format: a float prints as format(x, ".17g"), an integer
of magnitude up to 2**53 (atom labels) as str(x), since %g goes through a
double. A None cell raises TypeError; it is never written as an empty
field.
"""

from __future__ import annotations

import hashlib
import json
import os
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


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, default=_json_default)


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))
        fh.write("\n")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    fmt = ",".join(["%" + FLOAT_FMT] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(fmt % tuple(row) for row in rows)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(header, rows))


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
