import math
from itertools import combinations

import numpy as np
import pytest

from weakdrive.errors import DuplicatePositionError, PartitionError
from weakdrive.geometry import (
    Drive,
    Ensemble,
    MaskedBeam,
    Partition,
    PlaneWave,
    explicit_ensemble,
    lattice_ensemble,
    random_ensemble,
    regime_check,
)

DIPOLE = np.array([0.0, 0.0, 1.0])
BEAM = PlaneWave(np.array([0.0, 1.0, 0.0]))


def test_lattice_corners():
    ens = lattice_ensemble(2, 1.0, DIPOLE)
    assert ens.n == 8
    assert ens.min_distance() == pytest.approx(1.0)
    corners = {tuple(p) for p in ens.positions}
    assert (0.0, 0.0, 0.0) in corners and (1.0, 1.0, 1.0) in corners


def test_duplicate_positions_rejected():
    with pytest.raises(DuplicatePositionError) as exc:
        explicit_ensemble([[0, 0, 0], [0, 0, 0]], DIPOLE)
    assert exc.value.indices == (0, 1)


def test_min_distance_is_the_pairwise_minimum():
    ens = random_ensemble(30, 10.0, 7, DIPOLE)
    direct = min(math.dist(p, q) for p, q in combinations(ens.positions.tolist(), 2))
    assert ens.min_distance() == pytest.approx(direct, rel=1e-15)
    assert explicit_ensemble([[1.0, 2.0, 3.0]], DIPOLE).min_distance() == math.inf


def test_random_deterministic():
    a = random_ensemble(10, 100.0, 42, DIPOLE)
    b = random_ensemble(10, 100.0, 42, DIPOLE)
    assert np.array_equal(a.positions, b.positions)
    c = random_ensemble(10, 100.0, 43, DIPOLE)
    assert not np.array_equal(a.positions, c.positions)


def test_random_min_distance():
    ens = random_ensemble(8, 50.0, 3, DIPOLE, min_distance=5.0)
    assert ens.min_distance() >= 5.0


def test_dipole_must_be_unit():
    with pytest.raises(ValueError):
        Ensemble(np.array([[0.0, 0.0, 0.0]]), np.array([0.0, 0.0, 2.0]))


def test_partition_invariants():
    with pytest.raises(PartitionError):
        Partition((0, 1), (1, 2))
    with pytest.raises(PartitionError):
        Partition((), (1,))
    part = Partition((2, 0), (1,))
    assert part.group_a == (0, 2)
    with pytest.raises(PartitionError):
        part.check_range(2)


def test_masked_beam_amplitudes():
    ens = explicit_ensemble([[0, 0, 0], [0, 2.0, 0], [1.0, 0, 0]], DIPOLE)
    beam = MaskedBeam(beam=BEAM, illuminated=frozenset({0, 1}))
    w = beam.amplitudes(ens)
    assert w[2] == 0.0
    assert abs(w[0]) == pytest.approx(1.0)
    assert w[1] == pytest.approx(np.exp(2.0j))


def test_drive_eta_nonnegative():
    with pytest.raises(ValueError):
        Drive(delta=0.0, eta=-0.1, beam=BEAM)


def test_regime_dilute_flag():
    ens = explicit_ensemble([[0, 0, 0], [0.5, 0, 0]], DIPOLE)
    drive = Drive(delta=0.0, eta=0.05, beam=BEAM)
    assert not regime_check(ens, drive).dilute_ok
    far = explicit_ensemble([[0, 0, 0], [12.0, 0, 0]], DIPOLE)
    assert regime_check(far, drive).dilute_ok


def test_regime_eta_window():
    ens = explicit_ensemble([[0, 0, 0], [15.0, 0, 0]], DIPOLE)
    assert regime_check(ens, Drive(delta=0, eta=0.1, beam=BEAM)).eta_window_ok
    assert not regime_check(ens, Drive(delta=0, eta=1e-12, beam=BEAM)).eta_window_ok
    assert not regime_check(ens, Drive(delta=0, eta=0.5, beam=BEAM)).eta_window_ok


def test_regime_farfield_flag():
    # two groups of diameter 10 at centroid distance 1e6 >= 100 * 10^2
    pos = [[0, 0, 0], [10.0, 0, 0], [1e6, 0, 0], [1e6 + 10.0, 0, 0]]
    ens = explicit_ensemble(pos, DIPOLE)
    drive = Drive(delta=0.0, eta=0.05, beam=BEAM)
    part = Partition((0, 1), (2, 3))
    assert regime_check(ens, drive, part).farfield_ok
    near = explicit_ensemble([[0, 0, 0], [10.0, 0, 0], [50.0, 0, 0], [60.0, 0, 0]], DIPOLE)
    assert not regime_check(near, drive, part).farfield_ok
