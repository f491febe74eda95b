import math
from itertools import combinations

import numpy as np
import pytest

from weakdrive.errors import DuplicatePositionError, PartitionError
from weakdrive.farfield import farfield_parameters, lmin_bound
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


def _scalar_random_positions(count, box, seed, min_distance):
    # the placement loop the vectorised random_ensemble replaced: one
    # uniform draw per candidate, compared with each placed atom in turn
    box = np.broadcast_to(np.asarray(box, dtype=float), (3,))
    rng = np.random.default_rng(seed)
    placed = []
    for _ in range(count):
        while True:
            cand = rng.uniform(0.0, 1.0, 3) * box
            if all(np.linalg.norm(cand - p) >= min_distance for p in placed):
                placed.append(cand)
                break
    return np.array(placed)


def test_random_min_distance_matches_scalar_loop():
    params = np.random.default_rng(11)
    for seed in range(60):
        count = int(params.integers(2, 62))
        min_distance = float(params.uniform(0.3, 1.0))
        # spheres of radius min_distance fill at most a sixth of the box, so
        # both loops place every atom, some after rejected draws
        box = max(float(params.uniform(2.0, 20.0)), 3.0 * min_distance * count ** (1 / 3))
        ens = random_ensemble(count, box, seed, DIPOLE, min_distance=min_distance)
        reference = _scalar_random_positions(count, box, seed, min_distance)
        assert np.array_equal(ens.positions, reference)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["delta", "eta"])
def test_drive_rejects_non_finite(field, bad):
    # a NaN eta used to pass, and negativity_report then failed in numpy's
    # eigensolver with an untyped LinAlgError
    values = {"delta": 0.0, "eta": 0.05, field: bad}
    with pytest.raises(ValueError, match="finite"):
        Drive(beam=BEAM, **values)


@pytest.mark.parametrize("build, match", [
    (lambda: PlaneWave(np.array([0.0, math.nan, 0.0])), "unit vector"),
    (lambda: explicit_ensemble([[0, 0, 0], [1, 0, 0]], [0.0, 0.0, math.nan]), "unit vector"),
    (lambda: explicit_ensemble([[0, 0, 0], [math.nan, 0, 0]], DIPOLE), "finite"),
    (lambda: explicit_ensemble([[0, 0, 0], [math.inf, 0, 0]], DIPOLE), "finite"),
    (lambda: explicit_ensemble([[0, 0, 0], [0, -math.inf, 0]], DIPOLE), "finite"),
    (lambda: random_ensemble(3, math.nan, 0, DIPOLE), "finite"),
    # a NaN min_distance used to spin through MAX_TRIES draws per atom
    (lambda: random_ensemble(3, 4.0, 0, DIPOLE, min_distance=math.nan), "finite"),
    (lambda: lattice_ensemble(2, math.nan, DIPOLE), "finite"),
    (lambda: farfield_parameters(math.nan, 1.0, 2, 2), "finite"),
    (lambda: lmin_bound(math.nan, 0.0, 1e4, 0.1, 1.0), "finite"),
], ids=["beam-direction", "dipole", "position-nan", "position-inf", "position-minus-inf",
        "random-box", "random-min-distance", "lattice-spacing", "farfield-distance",
        "lmin-spacing"])
def test_non_finite_inputs_rejected(build, match):
    # the others were accepted and gave NaN positions, a NaN x, a NaN
    # bound_omega or a NaN L_min
    with pytest.raises(ValueError, match=match):
        build()


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


@pytest.mark.parametrize("call, error, match", [
    (lambda: PlaneWave(np.array([1.0, 0.0])), ValueError, "3-vector"),
    (lambda: Ensemble(np.zeros((2, 2)), DIPOLE), ValueError, r"\(n, 3\)"),
    (lambda: MaskedBeam(BEAM, frozenset({5})).amplitudes(lattice_ensemble(1, 1.0, DIPOLE)),
     PartitionError, "outside"),
    (lambda: Partition((), (1,)), PartitionError, "non-empty"),
    (lambda: Partition((0, 0), (1,)), PartitionError, "duplicate"),
    (lambda: Partition((0, 1), (1, 2)), PartitionError, "overlap"),
    (lambda: lattice_ensemble(0, 1.0, DIPOLE), ValueError, "edge"),
    (lambda: lattice_ensemble(2, 0.0, DIPOLE), ValueError, "spacing"),
    (lambda: random_ensemble(0, 1.0, 0, DIPOLE), ValueError, "count"),
    (lambda: random_ensemble(2, 0.0, 0, DIPOLE), ValueError, "box"),
    (lambda: random_ensemble(2, 1.0, 0, DIPOLE, min_distance=5.0), ValueError,
     "could not place"),
], ids=["unit-shape", "positions-shape", "mask-range", "empty-group", "duplicate",
        "overlap", "lattice-edge", "lattice-spacing", "random-count", "random-box",
        "random-placement"])
def test_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call", [
    lambda: lattice_ensemble(2.5, 1.0, DIPOLE),
    lambda: lattice_ensemble(2.0, 1.0, DIPOLE),
    lambda: lattice_ensemble(True, 1.0, DIPOLE),
    lambda: random_ensemble(2.5, 1.0, 0, DIPOLE),
    lambda: random_ensemble(True, 1.0, 0, DIPOLE),
], ids=["lattice-fraction", "lattice-float", "lattice-bool", "random-fraction", "random-bool"])
def test_builder_sizes_must_be_integers(call):
    # np.arange(2.5) has three sites, and a float count reached numpy's
    # TypeError: every size must be an integer, as parse_config requires
    with pytest.raises(ValueError, match="must be an integer >= 1, got "):
        call()


def test_builder_sizes_take_numpy_integers():
    lattice = lattice_ensemble(np.int64(2), 1.0, DIPOLE)
    assert np.array_equal(lattice.positions, lattice_ensemble(2, 1.0, DIPOLE).positions)
    cloud = random_ensemble(np.int32(3), 4.0, 1, DIPOLE)
    assert np.array_equal(cloud.positions, random_ensemble(3, 4.0, 1, DIPOLE).positions)
