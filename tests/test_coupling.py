import numpy as np
import pytest

from weakdrive.coupling import coupling_matrix, pair_values
from weakdrive.errors import CoincidentAtomsError
from weakdrive.geometry import Ensemble, random_ensemble

DIPOLE = np.array([0.0, 0.0, 1.0])


def test_transverse_unit_separation():
    # at r = 1, c = 0 the bracket collapses to (i + 1) - i = 1
    z = pair_values([1.0, 0.0, 0.0], DIPOLE)
    assert z == pytest.approx(0.75 * np.exp(1j), abs=1e-15)


@pytest.mark.parametrize("r", [0.4, 1.7, 6.3])
def test_magic_angle_closed_form(r):
    # c^2 = 1/3 kills the (i + r) term entirely
    direction = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    d = np.array([0.0, 0.0, 1.0])
    z = pair_values(r * direction, d)
    assert z == pytest.approx(-0.5j * np.exp(1j * r) / r, rel=1e-13)


def test_far_field_limit():
    # transverse leading term is -3i/4 e^{ir}/r; the remainder of the exact
    # expression is (3/4)(1/r + i/r^2), under 0.76/r once r >= 100
    for r in (1e3, 1e4):
        z = pair_values([r, 0.0, 0.0], DIPOLE)
        assert abs(z * r / np.exp(1j * r) + 0.75j) <= 0.76 / r


def test_single_atom_matrix():
    ens = Ensemble([[0.0, 0.0, 0.0]], DIPOLE)
    assert np.array_equal(coupling_matrix(ens), np.array([[0.5 + 0j]]))


def test_coupling_matrix_is_a_read_only_array():
    z = coupling_matrix(random_ensemble(4, 10.0, 2, DIPOLE, min_distance=0.5))
    assert type(z) is np.ndarray and z.dtype == complex and z.shape == (4, 4)
    assert not z.flags.writeable


def test_symmetry_exact():
    ens = random_ensemble(12, 20.0, 5, DIPOLE, min_distance=0.5)
    z = coupling_matrix(ens)
    assert np.array_equal(z, z.T)
    assert np.all(np.diag(z) == 0.5)


def test_gamma_positive_semidefinite_many_geometries():
    for seed in range(50):
        ens = random_ensemble(6, 15.0, seed, DIPOLE, min_distance=0.3)
        gamma = coupling_matrix(ens).real
        assert np.linalg.eigvalsh(gamma).min() >= -1e-10


def test_inversion_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        sep = rng.normal(size=3)
        assert pair_values(sep, DIPOLE) == pair_values(-sep, DIPOLE)


def test_far_field_envelope():
    # |z| <= 3 / (2 r) once r >= 10, any dipole angle
    rng = np.random.default_rng(9)
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(10.0, 500.0)
        assert abs(pair_values(r * direction, DIPOLE)) <= 1.5 / r


def test_zero_separation_rejected():
    with pytest.raises(CoincidentAtomsError):
        pair_values([0.0, 0.0, 0.0], DIPOLE)

