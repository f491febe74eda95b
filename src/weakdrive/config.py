"""Strict JSON run-configuration parsing.

Field names are part of the tool contract (documented in the README);
unknown fields are rejected with their dotted path, as are missing or
ill-typed ones and values that the built ensemble, drive or partition
refuses. parse_config hands each task these built objects. Exit codes
live in the CLI; task orchestration and each task's console lines in the
runner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import ConfigError, DuplicatePositionError, PartitionError
from .exact import N_CAP
from .geometry import (
    Drive,
    Ensemble,
    MaskedBeam,
    Partition,
    PlaneWave,
    explicit_ensemble,
    lattice_ensemble,
    random_ensemble,
)

TASKS = ("solve", "sweep", "bounds", "oracle-compare", "validate")


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(d: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    unknown = set(d) - required - set(optional)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}" if path else sorted(unknown)[0],
                          "unknown field")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{path}.{sorted(missing)[0]}" if path else sorted(missing)[0],
                          "required field missing")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):  # json reads NaN, Infinity and 1e400
        raise ConfigError(path, "must be a finite number")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _vector3(value, path: str) -> list[float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(path, "expected a 3-element array")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _index_list(value, path: str) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(path, "expected an array of atom indices")
    out = [_integer(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if any(v < 0 for v in out):
        raise ConfigError(path, "indices must be non-negative")
    return out


@dataclass(frozen=True)
class RunConfig:
    """A checked configuration: solve, sweep and oracle-compare get the built
    ensemble, drive (at eta or the first grid point) and partition."""

    task: str
    raw: dict
    seed: int
    delta: float = 0.0
    ensemble: Optional[Ensemble] = None
    drive: Optional[Drive] = None
    partition: Optional[Partition] = None
    eta_grid: Optional[np.ndarray] = None
    exact: bool = False
    dump_coupling: bool = False
    farfield: Optional[dict] = None


def _parse_geometry(data, path="geometry") -> dict:
    g = _expect_mapping(data, path)
    mode = g.get("mode")
    if mode == "explicit":
        _check_keys(g, path, {"mode", "positions"})
        pos = g["positions"]
        if not isinstance(pos, list) or not pos:
            raise ConfigError(f"{path}.positions", "expected a non-empty array")
        parsed = [_vector3(p, f"{path}.positions[{i}]") for i, p in enumerate(pos)]
        return {"mode": "explicit", "positions": parsed}
    if mode == "lattice":
        _check_keys(g, path, {"mode", "edge", "spacing"})
        edge = _integer(g["edge"], f"{path}.edge")
        spacing = _number(g["spacing"], f"{path}.spacing")
        if edge < 1:
            raise ConfigError(f"{path}.edge", "must be >= 1")
        if spacing <= 0:
            raise ConfigError(f"{path}.spacing", "must be positive")
        return {"mode": "lattice", "edge": edge, "spacing": spacing}
    if mode == "random":
        _check_keys(g, path, {"mode", "count", "box"}, {"min_distance"})
        count = _integer(g["count"], f"{path}.count")
        box = g["box"]
        if isinstance(box, list):
            box = _vector3(box, f"{path}.box")
        else:
            box = _number(box, f"{path}.box")
        md = _number(g.get("min_distance", 0.0), f"{path}.min_distance")
        if count < 1:
            raise ConfigError(f"{path}.count", "must be >= 1")
        if not md >= 0:
            raise ConfigError(f"{path}.min_distance", "must be non-negative")
        return {"mode": "random", "count": count, "box": box, "min_distance": md}
    raise ConfigError(f"{path}.mode", "must be one of explicit, lattice, random")


def _parse_eta_sweep(data, path="eta_sweep") -> np.ndarray:
    s = _expect_mapping(data, path)
    _check_keys(s, path, {"min", "max", "points"}, {"log"})
    lo = _number(s["min"], f"{path}.min")
    hi = _number(s["max"], f"{path}.max")
    points = _integer(s["points"], f"{path}.points")
    log = s.get("log", False)
    if not isinstance(log, bool):
        raise ConfigError(f"{path}.log", "expected a boolean")
    if points < 2:
        raise ConfigError(f"{path}.points", "need at least 2 points")
    if not lo < hi:
        raise ConfigError(f"{path}.min", "sweep bounds must satisfy min < max")
    if lo <= 0 and log:
        raise ConfigError(f"{path}.min", "log sweep needs min > 0")
    if lo < 0:
        raise ConfigError(f"{path}.min", "eta must be non-negative")
    grid = np.geomspace(lo, hi, points) if log else np.linspace(lo, hi, points)
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(f"{path}.points", "too many points for min..max: the grid "
                          "must be strictly increasing in floating point")
    grid.setflags(write=False)
    return grid


def _parse_partition(data, path="partition") -> tuple[list, list]:
    p = _expect_mapping(data, path)
    _check_keys(p, path, {"A", "B"})
    a = _index_list(p["A"], f"{path}.A")
    b = _index_list(p["B"], f"{path}.B")
    if not a:
        raise ConfigError(f"{path}.A", "group must be non-empty")
    if not b:
        raise ConfigError(f"{path}.B", "group must be non-empty")
    return a, b


def _parse_farfield(data, path="farfield") -> dict:
    f = _expect_mapping(data, path)
    required = {"k0_distance", "theta", "n_a", "n_b", "omega_over_gamma", "mean_spacing"}
    _check_keys(f, path, required)
    out = {
        "k0_distance": _number(f["k0_distance"], f"{path}.k0_distance"),
        "theta": _number(f["theta"], f"{path}.theta"),
        "n_a": _integer(f["n_a"], f"{path}.n_a"),
        "n_b": _integer(f["n_b"], f"{path}.n_b"),
        "omega_over_gamma": _number(f["omega_over_gamma"], f"{path}.omega_over_gamma"),
        "mean_spacing": _number(f["mean_spacing"], f"{path}.mean_spacing"),
    }
    if out["k0_distance"] <= 0:
        raise ConfigError(f"{path}.k0_distance", "must be positive")
    for key in ("n_a", "n_b"):
        if out[key] < 1:
            raise ConfigError(f"{path}.{key}", "group size must be >= 1")
    if out["mean_spacing"] <= 0:
        raise ConfigError(f"{path}.mean_spacing", "must be positive")
    if out["omega_over_gamma"] < 0:
        raise ConfigError(f"{path}.omega_over_gamma", "must be non-negative")
    return out


_TOP_FIELDS = {
    "geometry", "dipole", "beam", "delta", "eta", "eta_sweep",
    "partition", "seed", "exact", "dump_coupling", "farfield",
}

# the top-level fields each task requires; a task with none needs no --config
TASK_REQUIRED = {
    "solve": {"geometry", "dipole", "beam", "delta", "eta", "partition"},
    "sweep": {"geometry", "dipole", "beam", "delta", "eta_sweep", "partition"},
    "oracle-compare": {"geometry", "dipole", "beam", "delta", "eta_sweep", "partition"},
    "bounds": {"farfield"},
    "validate": set(),
}


def parse_config(data: Any, task: str) -> RunConfig:
    """Check a configuration for a task and build what the task runs on,
    raising every configuration error (ConfigError, with its dotted path)
    before any solve: those of the fields, then of the built ensemble, drive
    and partition, then an oracle-compare partition that leaves an atom out
    and exact columns on more than N_CAP atoms. bounds and validate check
    their optional geometry fields but build nothing from them."""
    if task not in TASKS:
        raise ConfigError("task", f"unknown task {task!r}")
    top = _expect_mapping(data, "config")
    _check_keys(top, "", TASK_REQUIRED[task], _TOP_FIELDS)
    if "eta" in top and "eta_sweep" in top:
        raise ConfigError("eta", "give either eta or eta_sweep, not both")

    seed = _integer(top.get("seed", 0), "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", "must be an unsigned 64-bit integer")
    delta = _number(top.get("delta", 0.0), "delta")

    geometry = _parse_geometry(top["geometry"]) if "geometry" in top else None
    dipole = None
    if "dipole" in top:
        dipole = _vector3(top["dipole"], "dipole")
        if abs(np.linalg.norm(dipole) - 1.0) > 1e-12:
            raise ConfigError("dipole", "must be a unit vector")

    direction = mask = None
    if "beam" in top:
        beam = _expect_mapping(top["beam"], "beam")
        _check_keys(beam, "beam", {"direction"}, {"mask"})
        direction = _vector3(beam["direction"], "beam.direction")
        if "mask" in beam:
            mask = _index_list(beam["mask"], "beam.mask")

    eta = _number(top["eta"], "eta") if "eta" in top else None
    if eta is not None and eta < 0:
        raise ConfigError("eta", "must be non-negative")
    grid = _parse_eta_sweep(top["eta_sweep"]) if "eta_sweep" in top else None
    groups = _parse_partition(top["partition"]) if "partition" in top else None
    farfield = _parse_farfield(top["farfield"]) if "farfield" in top else None

    exact = top.get("exact", False)
    if not isinstance(exact, bool):
        raise ConfigError("exact", "expected a boolean")
    dump = top.get("dump_coupling", False)
    if not isinstance(dump, bool):
        raise ConfigError("dump_coupling", "expected a boolean")

    ensemble = drive = partition = None
    if "geometry" in TASK_REQUIRED[task]:
        ensemble = _build_ensemble(geometry, dipole, seed)
        n = ensemble.n
        # a python float, so that the regime flags stay JSON booleans
        drive = _build_drive(delta, eta if grid is None else float(grid[0]), direction, mask, n)
        partition = _build_partition(groups, n)
        if task == "oracle-compare":
            if set(partition.atoms) != set(range(n)):
                raise ConfigError("partition", "oracle comparison needs A u B to cover all atoms")
            if n > N_CAP:
                raise ConfigError("geometry",
                                  f"oracle comparison needs {N_CAP} atoms or fewer, got {n}")
        if task == "sweep" and exact and n > N_CAP:
            raise ConfigError("exact", f"exact columns need {N_CAP} atoms or fewer")

    return RunConfig(
        task=task, raw=top, seed=seed, delta=delta, ensemble=ensemble, drive=drive,
        partition=partition, eta_grid=grid, exact=exact, dump_coupling=dump,
        farfield=farfield,
    )


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None


def _build_ensemble(g: dict, dipole: list, seed: int) -> Ensemble:
    try:
        if g["mode"] == "explicit":
            return explicit_ensemble(g["positions"], dipole)
        if g["mode"] == "lattice":
            return lattice_ensemble(g["edge"], g["spacing"], dipole)
        return random_ensemble(g["count"], g["box"], seed, dipole, min_distance=g["min_distance"])
    except DuplicatePositionError as exc:
        raise ConfigError("geometry.positions", str(exc)) from None
    except ValueError as exc:
        raise ConfigError("geometry", str(exc)) from None


def _build_drive(delta: float, eta: float, direction: list, mask, n: int) -> Drive:
    try:
        beam = PlaneWave(np.asarray(direction, dtype=float))
    except ValueError as exc:
        raise ConfigError("beam.direction", str(exc)) from None
    if mask is not None:
        bad = [i for i in mask if not 0 <= i < n]
        if bad:
            raise ConfigError("beam.mask", f"indices {bad} outside 0..{n - 1}")
        beam = MaskedBeam(beam=beam, illuminated=frozenset(range(n)) - frozenset(mask))
    return Drive(delta=delta, eta=eta, beam=beam)


def _build_partition(groups: tuple[list, list], n: int) -> Partition:
    try:
        partition = Partition(*groups)
        partition.check_range(n)
    except PartitionError as exc:
        raise ConfigError("partition", str(exc)) from None
    return partition
