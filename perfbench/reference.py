"""Regenerate ``reference.json``: the ``sweep.csv`` and ``oracle.csv`` rows
of every sweep and oracle workload at the default seed.

    python3 perfbench/reference.py

Run it only when a change to the workloads or an intended change of
results makes the stored rows obsolete, and say so in the change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from checks import read_csv  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

import weakdrive.cli  # noqa: E402

TABLES = {"sweep": "sweep.csv", "oracle-compare": "oracle.csv"}


def main() -> int:
    out = {}
    workdir = os.path.join(ROOT, ".perfbench", "reference")
    try:
        for name, w in WORKLOADS.items():
            if w.task not in TABLES:
                continue
            os.makedirs(workdir, exist_ok=True)
            cfg = os.path.join(workdir, "config.json")
            with open(cfg, "w") as fh:
                json.dump(w.config(w.positions(DEFAULT_SEED)), fh)
            res = os.path.join(workdir, name)
            if weakdrive.cli.main([w.task, "--config", cfg, "--out", res]) != 0:
                return 1
            _, rows = read_csv(os.path.join(res, TABLES[w.task]))
            out[name] = {"seed": DEFAULT_SEED, "rows": rows.tolist()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
