"""Ensembles, drives, partitions, and regime flags.

Unit conventions used throughout the package:
  - lengths are dimensionless, stored as k0 * r (k0 = transition wavenumber),
  - rates are in units of the single-atom decay rate Gamma,
  - the drive strength is eta = Omega / (2 Gamma), the detuning is
    delta = (omega - omega0) / Gamma,
  - all laser phases are evaluated at t = 0; every reported spectrum is
    invariant under the global optical phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DuplicatePositionError, PartitionError

# eta window uses the fine-structure constant cubed as the lower scale
FINE_STRUCTURE = 7.3e-3
ETA_FLOOR = 10.0 * FINE_STRUCTURE**3
ETA_CEILING = 0.1
DILUTE_MIN_DISTANCE = 10.0
FARFIELD_FACTOR = 100.0
# draws per atom before random_ensemble gives up on min_distance
MAX_TRIES = 10000

VELOCITY_NOTE = (
    "static positions assumed: valid for atom speeds well below Gamma/k0 "
    "(temperature over mass number well below 1 K); motion is not modelled"
)


def _unit(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
        raise ValueError(f"{name} must be a unit vector (|{name}| = {norm!r})")
    return v


def check_count(value, name: str) -> int:
    """value as an int; ValueError unless it is an integer >= 1. numpy
    integers pass; bool and floats, even integral ones, do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Atom positions (k0 units) sharing one real dipole orientation."""

    positions: np.ndarray
    dipole: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (n, 3) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        d = _unit(self.dipole, "dipole")
        min_distance = np.inf
        if pos.shape[0] > 1:
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.linalg.norm(diff, axis=-1)
            iu = np.triu_indices(pos.shape[0], 1)
            k = np.argmin(dist[iu])
            min_distance = float(dist[iu][k])
            if min_distance <= 0.0:
                raise DuplicatePositionError(int(iu[0][k]), int(iu[1][k]))
        object.__setattr__(self, "positions", _frozen_array(pos))
        object.__setattr__(self, "dipole", _frozen_array(d))
        object.__setattr__(self, "_min_distance", min_distance)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def min_distance(self) -> float:
        """Smallest pairwise distance, found when the positions were checked
        for duplicates; inf for a single atom."""
        return self._min_distance


@dataclass(frozen=True, eq=False)
class PlaneWave:
    """Resonant plane wave along a unit direction (|K| = k0); the atoms
    listed in mask stay dark."""

    direction: np.ndarray
    mask: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(
            self, "direction", _frozen_array(_unit(self.direction, "direction"))
        )
        object.__setattr__(self, "mask", frozenset(int(i) for i in self.mask))

    def amplitudes(self, ens: Ensemble) -> np.ndarray:
        w = np.exp(1j * (ens.positions @ self.direction))
        bad = sorted(i for i in self.mask if not 0 <= i < ens.n)
        if bad:
            raise PartitionError(f"masked indices {bad} outside 0..{ens.n - 1}")
        w[sorted(self.mask)] = 0.0
        return w


@dataclass(frozen=True, eq=False)
class Drive:
    """Laser drive: detuning delta, strength eta = Omega/2Gamma, beam shape."""

    delta: float
    eta: float
    beam: PlaneWave

    def __post_init__(self):
        if not (np.isfinite(self.delta) and np.isfinite(self.eta)):
            raise ValueError("delta and eta must be finite")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")

    def w(self, ens: Ensemble) -> np.ndarray:
        """Per-atom drive amplitudes w_mu at t = 0; |w| is 1 or 0."""
        return self.beam.amplitudes(ens)


@dataclass(frozen=True)
class Partition:
    """Two disjoint, non-empty groups of atom indices."""

    group_a: tuple[int, ...]
    group_b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(int(i) for i in self.group_a))
        b = tuple(sorted(int(i) for i in self.group_b))
        if not a or not b:
            raise PartitionError("both groups must be non-empty")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise PartitionError("duplicate indices within a group")
        if set(a) & set(b):
            raise PartitionError(f"groups overlap: {sorted(set(a) & set(b))}")
        object.__setattr__(self, "group_a", a)
        object.__setattr__(self, "group_b", b)

    @property
    def atoms(self) -> tuple[int, ...]:
        return self.group_a + self.group_b

    def check_range(self, n: int) -> None:
        bad = [i for i in self.atoms if not 0 <= i < n]
        if bad:
            raise PartitionError(f"indices {bad} outside 0..{n - 1}")


@dataclass(frozen=True)
class RegimeReport:
    """Advisory validity flags; never raises, never alters results."""

    eta_window_ok: bool
    dilute_ok: bool
    farfield_ok: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "eta_window_ok": self.eta_window_ok,
            "dilute_ok": self.dilute_ok,
            "farfield_ok": self.farfield_ok,
            "velocity_note": VELOCITY_NOTE,
        }


# ----------------------------------------------------------------------
# geometry builders
# ----------------------------------------------------------------------

def lattice_ensemble(edge: int, spacing: float, dipole) -> Ensemble:
    """Cubic lattice with `edge` sites per axis, `spacing` in k0 units."""
    edge = check_count(edge, "edge count")
    if not (spacing > 0 and np.isfinite(spacing)):
        raise ValueError("spacing must be positive and finite")
    axes = np.arange(edge) * spacing
    grid = np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), axis=-1)
    return Ensemble(grid.reshape(-1, 3), dipole)


def random_ensemble(
    count: int,
    box,
    seed: int,
    dipole,
    min_distance: float = 0.0,
) -> Ensemble:
    """Uniform positions in [0, box]^3, reproducible for a given 64-bit seed.

    With min_distance > 0 each atom is redrawn until it clears every
    previously placed one; placement stays deterministic in the seed.
    """
    count = check_count(count, "count")
    box = np.broadcast_to(np.asarray(box, dtype=float), (3,))
    if not np.all((box > 0) & np.isfinite(box)):
        raise ValueError("box dimensions must be positive and finite")
    if not np.isfinite(min_distance):
        raise ValueError("min_distance must be finite")
    rng = np.random.default_rng(seed)
    if min_distance <= 0.0:
        pos = rng.uniform(0.0, 1.0, (count, 3)) * box
    else:
        pos = np.empty((count, 3))
        for k in range(count):
            for _ in range(MAX_TRIES):
                cand = rng.uniform(0.0, 1.0, 3) * box
                if np.all(np.linalg.norm(pos[:k] - cand, axis=1) >= min_distance):
                    pos[k] = cand
                    break
            else:
                raise ValueError(
                    f"could not place {count} atoms with min_distance={min_distance} "
                    f"in box {box.tolist()}"
                )
    return Ensemble(pos, dipole)


# ----------------------------------------------------------------------
# regime flags
# ----------------------------------------------------------------------

def _group_geometry(ens: Ensemble, part: Partition):
    pa = ens.positions[list(part.group_a)]
    pb = ens.positions[list(part.group_b)]
    centroid_distance = float(np.linalg.norm(pb.mean(axis=0) - pa.mean(axis=0)))

    def diameter(p):
        if len(p) < 2:
            return 0.0
        d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
        return float(d.max())

    return centroid_distance, max(diameter(pa), diameter(pb))


def regime_check(
    ens: Ensemble,
    drive: Drive,
    part: Optional[Partition] = None,
) -> RegimeReport:
    """Advisory flags for the weak-drive window, diluteness, and far field.

    farfield_ok compares the centroid distance D against 100 L^2 with L the
    larger group diameter (all in k0 units); it is None when no partition is
    given.
    """
    eta_ok = ETA_FLOOR <= drive.eta <= ETA_CEILING
    dilute_ok = ens.min_distance() >= DILUTE_MIN_DISTANCE
    ff: Optional[bool] = None
    if part is not None:
        part.check_range(ens.n)
        dist, diam = _group_geometry(ens, part)
        ff = dist >= FARFIELD_FACTOR * diam**2
    return RegimeReport(eta_window_ok=eta_ok, dilute_ok=dilute_ok, farfield_ok=ff)
