"""Compare the CLI outputs of the working tree with those of a git revision.

src/ of REV is exported with git archive into a temporary directory. Then
each of these runs once on both trees, in a fresh interpreter with that
tree's src/ on PYTHONPATH:

- every benchmark workload and its -smoke variant at seeds 0 and 5, with
  the config that perfbench.workloads builds for that seed (imported
  read-only), as `weakdrive <task> --config CFG --out DIR`;
- the runs in EXTRA, which no workload makes (the bounds task, the lattice
  and random geometries, a sweep with the exact oracle, and three
  configuration errors, which write no output and exit 2), each with the
  config's seed set to 0 and to 5;
- `weakdrive validate --seed 0` and `--seed 5`, with --out.

Every report.json, CSV, stdout (without the `results written to` line),
stderr and exit code that differs between the trees is printed. A CSV or
a report.json that differs in numbers only (same header, rows and keys,
every differing cell or value a number on both sides) is printed as the
count of changed numbers and the largest relative difference
|a - b| / max(|a|, |b|) among them; for a CSV also the largest |a - b|
over the largest magnitude in its column, the normwise measure of a
solution vector such as v.csv's re and im. These judge a change in the
last digits. Otherwise a report.json is printed as the paths of the JSON
values that differ, and a CSV or a stream as a unified diff. The exit
status is 1 on any difference and 0 when every run matches byte for
byte.

Run from the repository root:

    python tools/compare_outputs.py HEAD~
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import BEAM, DELTA, DIPOLE, WORKLOADS  # noqa: E402

SEEDS = (0, 5)
_DRIVE = {"dipole": DIPOLE, "beam": {"direction": BEAM}, "delta": DELTA}
_NINE_ATOMS = {"geometry": {"mode": "explicit",
                             "positions": [[1.2 * i, 0.4 * (i % 2), 0.0] for i in range(9)]},
               "partition": {"A": [0, 1, 2, 3], "B": [4, 5, 6, 7, 8]}}
# name -> (task, config without its seed)
EXTRA = {
    "bounds-farfield": ("bounds", {"delta": DELTA, "farfield": {
        "k0_distance": 1e4, "theta": 1.2, "n_a": 50, "n_b": 50,
        "omega_over_gamma": 0.1, "mean_spacing": 2.0}}),
    # the x = 0 and x = 1 faces of a 2 x 2 x 2 lattice
    "solve-lattice": ("solve", {**_DRIVE, "eta": 0.05,
                                "geometry": {"mode": "lattice", "edge": 2, "spacing": 1.5},
                                "partition": {"A": [0, 1, 2, 3], "B": [4, 5, 6, 7]}}),
    "sweep-exact-random": ("sweep", {**_DRIVE, "exact": True,
                                     "geometry": {"mode": "random", "count": 6, "box": 3.0,
                                                  "min_distance": 0.5},
                                     "eta_sweep": {"min": 0.01, "max": 0.05, "points": 3},
                                     "partition": {"A": [0, 1, 2], "B": [3, 4, 5]}}),
    # configuration errors: each exits 2 and writes no output
    "oracle-nine-atoms": ("oracle-compare", {**_DRIVE, **_NINE_ATOMS, "eta_sweep": {
        "min": 0.01, "max": 0.05, "points": 3}}),
    "solve-mask-out-of-range": ("solve", {**_DRIVE, **_NINE_ATOMS, "eta": 0.05,
                                          "beam": {"direction": BEAM, "mask": [9]}}),
    "solve-overlapping-groups": ("solve", {**_DRIVE, **_NINE_ATOMS, "eta": 0.05,
                                           "partition": {"A": [0, 1, 2], "B": [2, 3]}}),
}
# difference lines printed per run
SHOWN = 40


def _export(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def _runs(configs: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every run; the configs are written once and
    shared by both trees."""
    runs = []
    for name in [*WORKLOADS, *EXTRA]:
        for seed in SEEDS:
            if name in WORKLOADS:
                workload = WORKLOADS[name]
                task, config = workload.task, workload.config(workload.positions(seed))
            else:
                task, config = EXTRA[name]
                config = {**config, "seed": seed}
            path = configs / f"{name}-{seed}.json"
            path.write_text(json.dumps(config))
            runs.append((f"{name} seed {seed}", [task, "--config", str(path)]))
    runs += [(f"validate seed {seed}", ["validate", "--seed", str(seed)]) for seed in SEEDS]
    return runs


def _run(src: Path, args: list[str], out: Path) -> dict:
    """Exit code, streams and output files of one CLI run on one tree."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "weakdrive.cli", *args, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    stdout = "".join(line for line in proc.stdout.splitlines(keepends=True)
                     if not line.startswith("results written to "))
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return {"exit code": f"{proc.returncode}\n", "stdout": stdout, "stderr": proc.stderr,
            "files": files}


def _json_diff(old, new, path="") -> list[tuple]:
    """(path, old, new) for each JSON value that differs; a key that one
    side lacks reads None there."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [k for k in new if k not in old]
        return [d for k in keys for d in _json_diff(old.get(k), new.get(k), f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, (a, b) in enumerate(zip(old, new)) for d in _json_diff(a, b, f"{path}[{i}]")]
    return [] if old == new and type(old) is type(new) else [(path or ".", old, new)]


def _leaf_count(value) -> int:
    if isinstance(value, dict):
        return sum(map(_leaf_count, value.values()))
    if isinstance(value, list):
        return sum(map(_leaf_count, value))
    return 1


def _csv_cells(old: str, new: str):
    """(old cell, new cell, largest magnitude in the old column) for each
    differing cell of two CSV texts with the same header and row count, or
    None where their shape differs."""
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b) or a[:1] != b[:1]:
        return None
    rows = [(x.split(","), y.split(",")) for x, y in zip(a[1:], b[1:]) if x != y]
    if any(len(xs) != len(ys) for xs, ys in rows):
        return None
    scale = [max((abs(v) for v in map(_as_number, column) if v is not None), default=0.0)
             for column in zip(*(line.split(",") for line in a[1:]))]
    return [(p, q, scale[k]) for xs, ys in rows for k, (p, q) in enumerate(zip(xs, ys)) if p != q]


def _as_number(value):
    """A JSON number or a CSV cell as a float; None for anything else."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _numbers_only(pairs, total: int, noun: str):
    """The count of differing pairs and their largest relative difference
    (and, for CSV cells, the largest difference over the largest magnitude
    of its column), or None when there are none or one of them is not two
    numbers."""
    if not pairs:
        return None
    largest = scaled = 0.0
    for a, b, scale in pairs:
        x, y = _as_number(a), _as_number(b)
        if x is None or y is None:
            return None
        diff = abs(x - y)
        if diff:
            finite = math.isfinite(diff)
            largest = max(largest, diff / max(abs(x), abs(y)) if finite else math.inf)
            if scale is not None:
                scaled = max(scaled, diff / scale if finite and scale else math.inf)
    text = (f"{len(pairs)} of {total} {noun} differ in numbers only; "
            f"largest relative difference {largest:.3e}")
    if pairs[0][2] is not None:
        text += f", {scaled:.3e} of its column's largest magnitude"
    return text


def _text_diff(old: str, new: str, label: str) -> list[str]:
    return [line.rstrip("\n") for line in difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        f"{label} (REV)", f"{label} (working tree)", n=0)]


def _differences(old: dict, new: dict) -> list[str]:
    found = []
    for key in ("exit code", "stdout", "stderr"):
        if old[key] != new[key]:
            found += _text_diff(old[key], new[key], key)
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a == b:
            continue
        if a is None or b is None:
            found.append(f"{name}: only in {'the working tree' if a is None else 'REV'}")
        elif name.endswith(".json"):
            old_json = json.loads(a)
            diffs = _json_diff(old_json, json.loads(b))
            summary = _numbers_only([(x, y, None) for _, x, y in diffs], _leaf_count(old_json),
                                    "values")
            found += ([f"{name}: {summary}"] if summary else
                      [f"{name} {path}: {x!r} -> {y!r}" for path, x, y in diffs]
                      or [f"{name}: bytes differ"])
        else:
            old_text, new_text = a.decode(), b.decode()
            cells = sum(line.count(",") + 1 for line in old_text.splitlines()[1:])
            summary = _numbers_only(_csv_cells(old_text, new_text), cells, "cells")
            found += [f"{name}: {summary}"] if summary else _text_diff(old_text, new_text, name)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"old": _export(args.rev, tmp), "new": ROOT / "src"}
        (tmp / "configs").mkdir()
        runs = _runs(tmp / "configs")
        for k, (name, cli_args) in enumerate(runs):
            result = {side: _run(src, cli_args, tmp / side / str(k)) for side, src in trees.items()}
            found = _differences(result["old"], result["new"])
            print(f"{name}: {'DIFFERS' if found else 'identical'}")
            for line in found[:SHOWN]:
                print(f"    {line}")
            if len(found) > SHOWN:
                print(f"    ... {len(found) - SHOWN} more lines")
            differing += bool(found)
    print(f"{differing} of {len(runs)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
