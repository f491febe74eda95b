"""Workload definitions and seeded input generation.

Every workload hands the program an ``explicit`` geometry: positions are
drawn uniformly in a cube from the benchmark seed, and a draw closer than
``MIN_DISTANCE`` to an earlier atom is rejected.  All workloads use
delta = 0.3, a dipole along z and a beam along y.

The GMRES workload is the exception to "a fresh draw per seed": restarted
GMRES needs anywhere from 465 to 1945 matrix-vector products on fresh
160-atom draws, so its time would measure the draw rather than the code.
It draws once from ``GEOMETRY_SEED`` and lets the benchmark seed rotate the
cloud about the dipole axis and relabel the atoms.  That keeps the coupling
spectrum, and with it the iteration count, while the drive phases, the
right-hand sides, the partition and every output change with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

MIN_DISTANCE = 0.5
DELTA = 0.3
DIPOLE = [0.0, 0.0, 1.0]
BEAM = [0.0, 1.0, 0.0]
DEFAULT_SEED = 0
GEOMETRY_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    n: int
    box: float
    group_a: tuple[int, ...]
    group_b: tuple[int, ...]
    masked: bool = False
    fixed_cloud: bool = False
    eta: Optional[float] = None
    sweep: Optional[dict] = None

    @property
    def pair_dim(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def pt_dim(self) -> int:
        m = len(self.group_a) + len(self.group_b)
        return 1 + m + m * (m - 1) // 2

    @property
    def points(self) -> int:
        return self.sweep["points"] if self.sweep else 1

    def positions(self, seed: int) -> np.ndarray:
        if not self.fixed_cloud:
            return _draw(self.n, self.box, seed)
        rng = np.random.default_rng([seed, self.n, 1])
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        centre = self.box / 2.0
        pos = (_draw(self.n, self.box, GEOMETRY_SEED) - centre) @ rot.T + centre
        return pos[rng.permutation(self.n)]

    def config(self, positions: np.ndarray) -> dict:
        groups = set(self.group_a) | set(self.group_b)
        beam = {"direction": BEAM}
        if self.masked:
            beam["mask"] = [i for i in range(self.n) if i not in groups]
        cfg = {
            "geometry": {"mode": "explicit", "positions": positions.tolist()},
            "dipole": DIPOLE,
            "beam": beam,
            "delta": DELTA,
            "partition": {"A": list(self.group_a), "B": list(self.group_b)},
        }
        if self.eta is not None:
            cfg["eta"] = self.eta
        else:
            cfg["eta_sweep"] = dict(self.sweep)
        return cfg


def _draw(n: int, box: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, n])
    placed = np.empty((0, 3))
    while len(placed) < n:
        cand = rng.uniform(0.0, box, 3)
        if np.all(np.linalg.norm(placed - cand, axis=1) >= MIN_DISTANCE):
            placed = np.vstack([placed, cand])
    return placed


def _solve(name, n, box, masked):
    return Workload(name, "solve", n, box, tuple(range(5)), tuple(range(5, 10)),
                    masked=masked, fixed_cloud=not masked, eta=0.05)


def _sweep(name, n, box, points):
    half = n // 2
    return Workload(name, "sweep", n, box, tuple(range(half)), tuple(range(half, n)),
                    sweep={"min": 0.01, "max": 0.2, "points": points, "log": False})


def _oracle(name, n, points):
    return Workload(name, "oracle-compare", n, 2.0, (0, 1), tuple(range(2, n)),
                    sweep={"min": 0.01, "max": 0.1, "points": points, "log": True})


WORKLOADS = {
    w.name: w
    for w in (
        _solve("solve-embedded-dense", 100, 20.0, masked=True),
        _solve("solve-embedded-gmres", 160, 20.0, masked=False),
        _sweep("sweep-halves", 40, 10.0, 50),
        _oracle("oracle-n5", 5, 4),
        # smoke variants: same code paths at about ten atoms and three
        # eta points, for the benchmark's own test
        _solve("solve-embedded-dense-smoke", 12, 6.0, masked=True),
        _solve("solve-embedded-gmres-smoke", 10, 6.0, masked=False),
        _sweep("sweep-halves-smoke", 10, 4.0, 3),
        _oracle("oracle-n5-smoke", 3, 3),
    )
}
