import numpy as np
import pytest

from weakdrive.coupling import coupling_matrix
from weakdrive.errors import IlluminatedAtomError, ThresholdNotApplicableError
from weakdrive.farfield import (
    bound_omega,
    build_V_farfield,
    FarFieldConfig,
    farfield_config,
    lmin_bound,
    nmax_analytic,
    quartic_spectrum,
    v_dark,
    v_dilute,
)
from weakdrive.geometry import Drive, Ensemble, Partition, PlaneWave
from weakdrive.negativity import lambda2_spectrum, negativity_model
from weakdrive.perturbation import solve_u, solve_v

DIPOLE = np.array([0.0, 0.0, 1.0])
KHAT = np.array([0.0, 1.0, 0.0])


def _min_distance(pos):
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return d[np.triu_indices(len(pos), 1)].min()


def _sample_dilute(seed, n=10, box=400.0, min_dist=50.0):
    rng = np.random.default_rng(seed)
    while True:
        pos = rng.uniform(0.0, box, (n, 3))
        if _min_distance(pos) >= min_dist:
            return pos


def _solve_pair_table(pos, delta, w):
    ens = Ensemble(pos, DIPOLE)
    coupling = coupling_matrix(ens)
    u = solve_u(coupling, delta, w)
    v = solve_v(coupling, delta, u)
    return coupling, u, v


def test_v_dilute_limits():
    assert v_dilute(0.1 + 0.2j, 0.0, 0.0, 0.3) == 0.0
    # two-atom closed form -2z/(1/2+z)^2 approaches -8z with an O(z^2) gap
    for z in (1e-3, 1e-4):
        closed = -2.0 * z / (0.5 + z) ** 2
        approx = v_dilute(z, 1.0, 1.0, 0.0)
        assert approx == pytest.approx(-8.0 * z)
        assert abs(closed - approx) <= 40.0 * z**2


def test_v_dilute_against_solver_scaling():
    delta = 0.2
    pos = _sample_dilute(20)
    errs = []
    for scale in (1.0, 10.0):
        p = pos * scale
        w = np.exp(1j * (p @ KHAT))
        z, u, v = _solve_pair_table(p, delta, w)
        I, J = np.triu_indices(len(p), 1)
        vd = np.array([v_dilute(z[i, j], w[i], w[j], delta) for i, j in zip(I, J)])
        err = np.max(np.abs(v - vd)) / np.max(np.abs(v))
        errs.append(err)
        if scale == 1.0:
            assert err <= 5.0 / _min_distance(p)
    assert errs[0] / errs[1] >= 8.0


def test_v_dark_zero_and_single_scatterer():
    pos = np.array([[0, 0, 0], [60.0, 0, 0], [0, 70.0, 0]])
    ens = Ensemble(pos, DIPOLE)
    coupling = coupling_matrix(ens)
    w = np.zeros(3, dtype=complex)
    assert v_dark(coupling, w, 0.0, 1, 2) == 0.0
    # one illuminated scatterer at delta = 0: 8 z_mu0 z_nu0 w0^2
    w[0] = np.exp(0.7j)
    expected = 8.0 * coupling[1, 0] * coupling[2, 0] * w[0] ** 2
    assert v_dark(coupling, w, 0.0, 1, 2) == pytest.approx(expected)
    with pytest.raises(IlluminatedAtomError):
        v_dark(coupling, w, 0.0, 0, 1)


def test_v_dark_against_solver_scaling():
    delta = 0.2
    rng = np.random.default_rng(5)
    while True:
        pos = rng.uniform(0.0, 300.0, (3, 3))
        if _min_distance(pos) >= 50.0:
            break
    errs = []
    for scale in (1.0, 10.0):
        p = pos * scale
        w = np.exp(1j * (p @ KHAT))
        w[1] = 0.0
        w[2] = 0.0
        coupling, u, v = _solve_pair_table(p, delta, w)
        # pair (1, 2) is the dark pair, index 2 in lexicographic order
        approx = v_dark(coupling, w, delta, 1, 2)
        errs.append(abs(v[2] - approx) / abs(v[2]))
    assert errs[0] / errs[1] >= 8.0


def test_farfield_V_rank_two_and_dipole_axis():
    cfg = FarFieldConfig(1e6, 1.1, 6, 6, delta=0.25)
    rng = np.random.default_rng(2)
    pa = rng.uniform(0, 30, (6, 3))
    pb = rng.uniform(0, 30, (6, 3)) + np.array([1e6, 0, 0])
    V = build_V_farfield(cfg, pa, pb, KHAT)
    sv = np.linalg.svd(V, compute_uv=False)
    assert sv[2] <= 1e-12 * sv[0]
    # dipole along the group axis kills the coupling
    cfg0 = FarFieldConfig(1e6, 0.0, 6, 6)
    V0 = build_V_farfield(cfg0, pa, pb, KHAT)
    assert np.max(np.abs(V0)) == 0.0


def test_build_V_farfield_is_a_read_only_array():
    rng = np.random.default_rng(8)
    cfg = FarFieldConfig(1e6, 1.1, 2, 3, delta=0.1)
    V = build_V_farfield(cfg, rng.uniform(0, 30, (2, 3)), rng.uniform(0, 30, (3, 3)), KHAT)
    assert type(V) is np.ndarray and V.dtype == complex and V.shape == (2, 3)
    assert not V.flags.writeable


def test_farfield_V_matches_dilute_route():
    # far-field spectrum against the v_dilute-built operator at D = 1e4 L
    rng = np.random.default_rng(6)
    L = 20.0
    npg = 5
    pa = rng.uniform(0, L, (npg, 3))
    pb = rng.uniform(0, L, (npg, 3)) + np.array([1e4 * L, 0.0, 0.0])
    dipole = DIPOLE
    delta = 0.1
    ens = Ensemble(np.vstack([pa, pb]), dipole)
    drive = Drive(delta=delta, eta=0.01, beam=PlaneWave(KHAT))
    part = Partition(tuple(range(npg)), tuple(range(npg, 2 * npg)))
    cfg = farfield_config(ens, part, drive)
    V_ff = build_V_farfield(cfg, pa, pb, KHAT)
    w = drive.w(ens)
    z = coupling_matrix(ens)
    Vd = np.array(
        [
            [v_dilute(z[a, npg + b], w[a], w[npg + b], delta) for b in range(npg)]
            for a in range(npg)
        ]
    )
    s_ff = np.sort(np.linalg.svd(V_ff, compute_uv=False))
    s_d = np.sort(np.linalg.svd(Vd, compute_uv=False))
    assert np.max(np.abs(s_ff - s_d)) <= 0.01 * s_d.max()


def test_quartic_simple_cases():
    cfg = FarFieldConfig(1e5, 1.0, 8, 8, s_a=0.0, s_b=0.0)
    roots = quartic_spectrum(cfg)
    ry = np.sqrt(cfg.y)
    assert np.allclose(roots, [-ry, -ry, ry, ry], atol=1e-12 * ry)
    # one group fully in phase: two roots collapse to zero
    s_b = 0.3 * np.exp(0.4j)
    cfg1 = FarFieldConfig(1e5, 1.0, 8, 8, s_a=np.exp(0.9j), s_b=s_b)
    roots1 = quartic_spectrum(cfg1)
    big = np.sqrt(2.0 * cfg1.y * (1.0 + (np.exp(0.9j) * np.conj(s_b)).real))
    assert np.allclose(np.abs(roots1)[[1, 2]], 0.0, atol=1e-10 * big)
    assert roots1[-1] == pytest.approx(big, rel=1e-12)


def test_quartic_matches_dense_eigenvalues():
    rng = np.random.default_rng(77)
    for npg in (5, 20):
        pa = rng.uniform(0, 40, (npg, 3))
        pb = rng.uniform(0, 40, (npg, 3)) + np.array([1e6, 0, 0])
        khat = rng.normal(size=3)
        khat /= np.linalg.norm(khat)
        s_a = complex(np.mean(np.exp(2j * (pa @ khat))))
        s_b = complex(np.mean(np.exp(2j * (pb @ khat))))
        cfg = FarFieldConfig(1e6, 0.9, npg, npg, delta=0.3, s_a=s_a, s_b=s_b)
        V = build_V_farfield(cfg, pa, pb, khat)
        dense = np.sort(lambda2_spectrum(V)[0])
        four = np.sort(np.concatenate([dense[:2], dense[-2:]]))
        assert np.max(np.abs(quartic_spectrum(cfg) - four)) <= 1e-10


def test_bound_omega_values():
    cfg = FarFieldConfig(1e6, np.pi / 2, 100, 100, delta=0.0)
    assert cfg.d0 == pytest.approx(100.0)
    assert bound_omega(cfg) == pytest.approx(np.sqrt(3) / 2 * 1e-2, rel=1e-12)
    unit = FarFieldConfig(1.0, np.pi / 2, 1, 1, delta=0.0)
    assert bound_omega(unit) == pytest.approx(np.sqrt(3) / 2, rel=1e-12)
    doubled = FarFieldConfig(2e6, np.pi / 2, 100, 100, delta=0.0)
    assert bound_omega(cfg) / bound_omega(doubled) == pytest.approx(np.sqrt(2), rel=1e-12)


def test_nmax_values_and_identity():
    cfg = FarFieldConfig(1e6, np.pi / 2, 100, 100, delta=0.0)
    n_max, eta_max = nmax_analytic(cfg)
    assert n_max == pytest.approx(2.8125e-9, rel=1e-12)
    for delta in (0.0, 0.5):
        c = FarFieldConfig(2e5, 1.2, 40, 60, delta=delta)
        nm, em = nmax_analytic(c)
        assert nm == pytest.approx(32.0 * (1 + 4 * delta**2) ** -2 * em**4, rel=1e-12)


def test_nmax_matches_model_extremum():
    # degenerate far-field modes fed through the generic drive model
    for delta in (0.0, 0.5):
        cfg = FarFieldConfig(5e5, np.pi / 2, 30, 30, delta=delta)
        lam2 = -np.sqrt(cfg.y)
        lam4 = (0.25 + delta**2) ** -2
        curve = negativity_model([lam2, lam2], [lam4, lam4], np.geomspace(1e-5, 1e-1, 40))
        n_an, eta_an = nmax_analytic(cfg)
        assert curve.n_max == pytest.approx(n_an, rel=0.02)
        assert curve.eta_max == pytest.approx(eta_an, rel=0.02)
        # threshold cross-check: the exact crossing sits at twice the
        # leading-order per-mode estimate once expressed as an amplitude
        assert 2.0 * curve.eta_zero[0] == pytest.approx(bound_omega(cfg), rel=0.01)


def test_lmin_reference_numbers():
    # k0^-1 = 0.1 um, d = 1 um, D = 1 m -> k0 D = 1e7
    L, n = lmin_bound(1.0, 0.0, 1e7, 0.1, np.pi / 2)
    assert 48.0 <= L <= 54.0
    assert n == pytest.approx((L / 1.0) ** 3)
    L_cm, n_cm = lmin_bound(1.0, 0.0, 1e5, 0.1, np.pi / 2)
    assert 10.0 <= L_cm <= 12.0
    tiny, _ = lmin_bound(1.0, 0.0, 1e7, 1e-9, np.pi / 2)
    assert tiny < 1e-3
    with pytest.raises(ThresholdNotApplicableError):
        lmin_bound(1.0, 0.0, 1e7, 0.1, 0.0)


@pytest.mark.parametrize("theta", [0.7, 1.0, 1.2, 1.5])
def test_lmin_depends_on_theta_through_abs_sin(theta):
    # sin(-theta) < 0 and theta outside [0, pi] are the same dipole axis up
    # to sign: the bound must not raise a negative sine to a fractional power
    ref = lmin_bound(2.0, 0.3, 1e4, 0.1, theta)
    for angle in (-theta, np.pi - theta, theta + np.pi, -np.pi - theta):
        got = lmin_bound(2.0, 0.3, 1e4, 0.1, angle)
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_random_phase_sums_are_small():
    # uniform clouds spanning many wavelengths rarely stay in phase
    hits = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 50.0, (100, 3))
        s = abs(np.mean(np.exp(2j * (pos @ KHAT))))
        if s <= 0.2:
            hits += 1
    assert hits >= 95


# A = {0, 1} and B = {2, 3} share the centroid (1, 0, 0)
_CONCENTRIC = Ensemble([[0, 0, 0], [2, 0, 0], [1, 1, 0], [1, -1, 0]], DIPOLE)


@pytest.mark.parametrize("call, error, match", [
    (lambda: FarFieldConfig(0.0, 1.0, 2, 2), ValueError, "distance"),
    (lambda: FarFieldConfig(10.0, 1.0, 2, 2, s_a=1.5), ValueError, "modulus"),
    (lambda: farfield_config(_CONCENTRIC, Partition((0, 1), (2, 3)),
                             Drive(delta=0.0, eta=0.05, beam=PlaneWave(KHAT))),
     ValueError, "centroids coincide"),
    (lambda: quartic_spectrum(FarFieldConfig(10.0, 0.0, 2, 2)), ValueError, "weight y"),
    (lambda: lmin_bound(0.0, 0.0, 1e3, 0.1, 1.0), ValueError, "must be positive"),
    (lambda: lmin_bound(1.0, 0.0, 0.0, 0.1, 1.0), ValueError, "must be positive"),
    (lambda: lmin_bound(1.0, 0.0, 1e3, -0.1, 1.0), ValueError, "non-negative"),
    (lambda: bound_omega(FarFieldConfig(1e3, 0.0, 2, 2)),
     ThresholdNotApplicableError, "D0 vanishes"),
    (lambda: lmin_bound(1.0, 0.0, 1e3, 0.1, 0.0), ThresholdNotApplicableError, "sin"),
], ids=["distance", "phase-sum", "centroids", "quartic-y", "lmin-spacing", "lmin-distance",
        "lmin-omega", "bound-omega-d0", "lmin-sin-theta"])
def test_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("n_a, n_b", [(2.7, 3), (3, 2.0), (0, 3), (3, -3), (True, 3)],
                         ids=["fraction", "float", "zero", "negative", "bool"])
def test_group_sizes_must_be_positive_integers(n_a, n_b):
    # 2.7 used to be truncated to 2, and -3 gave d0 = nan
    with pytest.raises(ValueError, match="must be an integer >= 1, got "):
        FarFieldConfig(1e4, 1.0, n_a, n_b)


def test_config_keeps_a_read_only_copy_of_e():
    e = np.array([0.0, 1.0, 0.0])
    cfg = FarFieldConfig(distance=1e4, theta=1.0, e=e, n_a=np.int64(2), n_b=3,
                         delta=0.0, s_a=0.0, s_b=0.0)
    assert e.flags.writeable and not cfg.e.flags.writeable
    e[0] = 5.0
    assert np.array_equal(cfg.e, [0.0, 1.0, 0.0])
    assert type(cfg.n_a) is int and cfg.d0 == pytest.approx(6**0.5 * np.sin(1.0) ** 2)


@pytest.mark.parametrize("e", [(0, 0, 0), (1.0, 0.0, 0.0, 0.0), (0.6, 0.6, 0.0), (np.nan, 0, 0)],
                         ids=["zero", "4-vector", "not-unit", "nan"])
def test_config_e_must_be_a_unit_3_vector(e):
    # build_V_farfield used to take any e and build wrong phases silently
    with pytest.raises(ValueError, match="e must be a "):
        FarFieldConfig(1e4, 1.0, 3, 3, e=e)


def test_config_from_an_ensemble_refuses_masked_group_atoms():
    # the closed forms assume every atom of A u B is lit: a masked one used
    # to count in n_a and s_a, which moved the solver's lambda2 extremes
    # (+-2.39e-4 to +-2.23e-4 on the two groups alone) but not
    # quartic_spectrum (+-5.09e-4)
    rng = np.random.default_rng(0)
    pos = np.vstack([rng.uniform(0, 3, (4, 3)), rng.uniform(0, 3, (4, 3)) + [2e4, 0, 0],
                     [[1e4, 0, 0]]])
    ens = Ensemble(pos, DIPOLE)
    part = Partition((0, 1, 2, 3), (4, 5, 6, 7))
    for mask, named in (([1], r"\[1\]"), ([8, 5, 1], r"\[1, 5\]")):
        drive = Drive(delta=0.3, eta=0.01, beam=PlaneWave(KHAT, mask=mask))
        with pytest.raises(ValueError, match=rf"masked atoms {named} in A u B"):
            farfield_config(ens, part, drive)
    # a masked host atom outside the groups is allowed and changes nothing
    lit = farfield_config(ens, part, Drive(delta=0.3, eta=0.01, beam=PlaneWave(KHAT)))
    dark_host = farfield_config(ens, part, Drive(delta=0.3, eta=0.01,
                                                 beam=PlaneWave(KHAT, mask=[8])))
    for name in ("distance", "theta", "n_a", "n_b", "delta", "s_a", "s_b", "e"):
        assert np.array_equal(getattr(dark_host, name), getattr(lit, name))
