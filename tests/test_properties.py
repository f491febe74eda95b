"""Hypothesis checks of algebraic invariants that hold for any input."""

import numpy as np
from hypothesis import given, settings, strategies as st

from weakdrive.coupling import coupling_matrix, pair_values
from weakdrive.exact import Liouvillian, steady_state_exact
from weakdrive.farfield import FarFieldConfig, quartic_spectrum
from weakdrive.geometry import Drive, Ensemble, Partition, PlaneWave, random_ensemble
from weakdrive.negativity import lambda2_spectrum, negativity_model, negativity_report
from weakdrive.perturbation import steady_state
from weakdrive.runner import _exact_negativity

FINITE = dict(allow_nan=False, allow_infinity=False)
COORD = st.floats(min_value=-50.0, max_value=50.0, **FINITE)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _unit(vec):
    v = np.asarray(vec, dtype=float)
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.array([0.0, 0.0, 1.0])


@SETTINGS
@given(
    st.tuples(COORD, COORD, COORD).filter(lambda s: np.linalg.norm(s) > 1e-3),
    st.tuples(COORD, COORD, COORD).filter(lambda s: np.linalg.norm(s) > 1e-3),
)
def test_pair_values_inversion_symmetry(sep, dip):
    d = _unit(dip)
    s = np.asarray(sep)
    assert pair_values(s, d) == pair_values(-s, d)


@SETTINGS
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_embedding_spectrum_pairs(n_a, n_b, seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n_a, n_b)) + 1j * rng.normal(size=(n_a, n_b))
    vals, _ = lambda2_spectrum(V)
    assert abs(vals.sum()) <= 1e-10 * max(1.0, np.abs(vals).max())
    assert np.max(np.abs(np.sort(vals) + np.sort(vals)[::-1])) <= 1e-10 * max(
        1.0, np.abs(vals).max()
    )
    sv = np.sort(np.linalg.svd(V, compute_uv=False))[::-1]
    assert np.allclose(np.sort(vals)[::-1][: len(sv)], sv, atol=1e-10 * max(1.0, sv.max()))


@SETTINGS
@given(
    st.floats(min_value=0.0, max_value=0.99, **FINITE),
    st.floats(min_value=0.0, max_value=0.99, **FINITE),
    st.floats(min_value=0.0, max_value=6.28, **FINITE),
    st.floats(min_value=0.0, max_value=6.28, **FINITE),
    st.floats(min_value=-1.0, max_value=1.0, **FINITE),
)
def test_quartic_roots_pair_up(ra, rb, pa, pb, delta):
    cfg = FarFieldConfig(
        1e5, 1.0, 7, 9, delta=delta,
        s_a=ra * np.exp(1j * pa), s_b=rb * np.exp(1j * pb),
    )
    roots = quartic_spectrum(cfg)
    assert np.max(np.abs(roots + roots[::-1])) <= 1e-12 * max(1.0, np.abs(roots).max())
    # roots are real solutions of the biquadratic: check directly
    y = cfg.y
    b = y * (1 + (cfg.s_a * np.conj(cfg.s_b)).real)
    c = y**2 * (1 - abs(cfg.s_a) ** 2) * (1 - abs(cfg.s_b) ** 2)
    for lam in roots:
        poly = lam**4 - 2 * b * lam**2 + c
        assert abs(poly) <= 1e-8 * max(y**2, 1e-30)


@SETTINGS
@given(
    st.lists(st.floats(min_value=-2.0, max_value=2.0, **FINITE), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_model_curve_nonnegative_and_vanishing(l2s, seed):
    rng = np.random.default_rng(seed)
    l4s = rng.uniform(0.5, 20.0, size=len(l2s))
    grid = np.geomspace(1e-6, 1.0, 25)
    curve = negativity_model(l2s, l4s, grid)
    assert np.all(curve.values >= 0.0)
    assert curve.n_max >= 0.0
    # second-order dominance at vanishing drive
    expected_small = sum(-l2 for l2 in l2s if l2 < 0) * grid[0] ** 2
    assert curve.values[0] <= expected_small * 1.0000001


# magnitudes kept where eta^2 lambda2 and eta^4 lambda4 stay normal floats
# on the grid; some lambda2 and lambda4 exactly 0
LAMBDA2 = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0, **FINITE),
                    st.floats(min_value=-1.0, max_value=-1e-6, **FINITE))
LAMBDA4 = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0, **FINITE))
GRID_STEP = st.floats(min_value=1e-3, max_value=0.5, **FINITE)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(LAMBDA2, LAMBDA4), min_size=1, max_size=4),
       GRID_STEP, st.lists(GRID_STEP, min_size=1, max_size=30))
def test_grid_threshold_agrees_with_model(modes, start, steps):
    l2, l4 = (np.array(c) for c in zip(*modes))
    grid = start + np.cumsum([0.0] + steps)
    curve = negativity_model(l2, l4, grid)
    thr, est = curve.eta_threshold, curve.eta_sweep_estimate
    if thr is None:
        assert est is None
        return
    if grid[0] < thr * (1 - 1e-9) and thr * (1 + 1e-9) < grid[-1]:
        assert est is not None
    if est is not None:
        # the cell that holds the estimate holds the threshold, up to rounding
        k = min(max(int(np.searchsorted(grid, est)) - 1, 0), len(grid) - 2)
        assert grid[k] <= est * (1 + 1e-15) and est <= grid[k + 1] * (1 + 1e-15)
        assert grid[k] * (1 - 1e-12) <= thr <= grid[k + 1] * (1 + 1e-12)


# ----------------------------------------------------------------------
# invariance of the amplitude route and the exact oracle
# ----------------------------------------------------------------------

INVARIANCE = settings(max_examples=25, deadline=None, derandomize=True)
ETA = 0.05
AMPLITUDE_RTOL = 1e-13
ORACLE_TOL = 1e-10


def _random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _scene(seed, n):
    """A dense n-atom cloud with a random dipole, beam and detuning."""
    rng = np.random.default_rng(seed)
    ens = random_ensemble(n, 3.0, seed, [0.0, 0.0, 1.0], min_distance=0.6)
    return ens.positions, _random_unit(rng), _random_unit(rng), rng.uniform(-1.0, 1.0), rng


def _amplitude_invariants(positions, dipole, beam, delta, part):
    ens = Ensemble(positions, dipole)
    drive = Drive(delta=delta, eta=ETA, beam=PlaneWave(beam))
    rep = negativity_report(steady_state(coupling_matrix(ens), drive, ens), part)
    return {"lambda2": rep.lambda2, "lambda4": rep.lambda4, "N_pt": rep.negativity_pt,
            "negativity2": rep.negativity2, "eta_threshold": rep.curve.eta_threshold}


def _assert_unchanged(base, moved, rtol):
    for key, value in base.items():
        if value is None or moved[key] is None:
            assert value is moved[key] is None, key
            continue
        x, y = np.asarray(value, dtype=float), np.asarray(moved[key], dtype=float)
        scale = np.max(np.abs(x), initial=0.0)
        assert np.max(np.abs(x - y), initial=0.0) <= rtol * scale, key


def _relabelled(rng, positions, part):
    """The same atoms in a random order: new label k is old atom perm[k]."""
    perm = rng.permutation(len(positions))
    new = np.argsort(perm)
    return positions[perm], Partition([new[a] for a in part.group_a],
                                      [new[b] for b in part.group_b])


@INVARIANCE
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=4, max_value=8),
       st.integers(min_value=1, max_value=4))
def test_amplitude_route_invariant_under_relabelling_rotation_and_translation(seed, n, m):
    # m atoms per group, the rest a lit host; equal groups keep V square, so
    # no zero mode leaves lambda4 to the choice of a degenerate basis
    m = min(m, n // 2)
    positions, dipole, beam, delta, rng = _scene(seed, n)
    order = rng.permutation(n)
    part = Partition(order[:m], order[m : 2 * m])
    base = _amplitude_invariants(positions, dipole, beam, delta, part)

    relabelled, moved_part = _relabelled(rng, positions, part)
    _assert_unchanged(base, _amplitude_invariants(relabelled, dipole, beam, delta, moved_part),
                      AMPLITUDE_RTOL)
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    R *= np.sign(np.linalg.det(R))  # proper rotation
    _assert_unchanged(base, _amplitude_invariants(positions @ R.T, R @ dipole, R @ beam, delta,
                                                  part), AMPLITUDE_RTOL)
    shift = rng.uniform(-5.0, 5.0, 3)
    _assert_unchanged(base, _amplitude_invariants(positions + shift, dipole, beam, delta, part),
                      AMPLITUDE_RTOL)


def _oracle(positions, dipole, beam, delta):
    ens = Ensemble(positions, dipole)
    w = PlaneWave(beam).amplitudes(ens)
    return Liouvillian(coupling_matrix(ens), delta, w)


@INVARIANCE
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=3, max_value=6))
def test_oracle_invariant_under_relabelling_rotation_translation_and_parity(seed, n):
    positions, dipole, beam, delta, rng = _scene(seed, n)
    order = rng.permutation(n)
    a = rng.integers(1, n - 1)
    part = Partition(order[:a], order[a : a + rng.integers(1, n - a + 1)])
    liouv = _oracle(positions, dipole, beam, delta)
    n_exact = _exact_negativity(liouv, part, ETA)

    relabelled, moved_part = _relabelled(rng, positions, part)
    moved = _exact_negativity(_oracle(relabelled, dipole, beam, delta), moved_part, ETA)
    assert abs(moved - n_exact) <= ORACLE_TOL * n_exact
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    R *= np.sign(np.linalg.det(R))  # proper rotation
    rotated = _exact_negativity(_oracle(positions @ R.T, R @ dipole, R @ beam, delta), part, ETA)
    assert abs(rotated - n_exact) <= ORACLE_TOL * n_exact
    shift = rng.uniform(-5.0, 5.0, 3)
    shifted = _exact_negativity(_oracle(positions + shift, dipole, beam, delta), part, ETA)
    assert abs(shifted - n_exact) <= ORACLE_TOL * n_exact

    # Pi = (x)sigma_z flips the sign of every drive term: rho(-eta) = Pi rho(eta) Pi
    parity = (-1.0) ** np.array([bin(k).count("1") for k in range(2**n)])
    rho = steady_state_exact(liouv, ETA)
    flipped = steady_state_exact(liouv, -ETA)
    assert np.max(np.abs(flipped - parity[:, None] * rho * parity[None, :])) <= ORACLE_TOL
    assert abs(_exact_negativity(liouv, part, -ETA) - n_exact) <= ORACLE_TOL * n_exact
