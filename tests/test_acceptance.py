"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values at the criterion's tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import time

import numpy as np
import pytest

from weakdrive.basis import pair_arrays
from weakdrive.checks import run_checks
from weakdrive.coupling import coupling_matrix
from weakdrive.exact import (
    build_liouvillian,
    dilute_product_state,
    negativity_exact,
    propagate_truncated,
    steady_state_exact,
)
from weakdrive.farfield import (
    bound_omega,
    build_V_farfield,
    farfield_config,
    farfield_parameters,
    lmin_bound,
    nmax_analytic,
    quartic_spectrum,
    v_dark,
    v_dilute,
)
from weakdrive.geometry import Drive, Partition, PlaneWave, explicit_ensemble
from weakdrive.negativity import (
    build_pt_matrix,
    build_V,
    lambda2_spectrum,
    lambda4_dilute,
    negativity_model,
    pt_negativity,
)
from weakdrive.perturbation import PerturbState, solve_u, solve_v, steady_state

DIPOLE = np.array([0.0, 0.0, 1.0])
YHAT = np.array([0.0, 1.0, 0.0])
ZHAT = np.array([0.0, 0.0, 1.0])


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _min_distance(pos):
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return d[np.triu_indices(len(pos), 1)].min()


# ----------------------------------------------------------------------
# 1. macroscopic bound numbers
# ----------------------------------------------------------------------

def test_criterion_1_macroscopic_bounds():
    t0 = time.time()
    # k0^-1 = 0.1 um, spacing 1 um, D = 1 m -> k0 D = 1e7
    L_m, n_m = lmin_bound(1.0, 0.0, 1e7, 0.1, np.pi / 2)
    L_cm, n_cm = lmin_bound(1.0, 0.0, 1e5, 0.1, np.pi / 2)
    elapsed = time.time() - t0
    ok = (
        48.0 <= L_m <= 54.0
        and 1.2e5 <= n_m <= 1.45e5
        and 10.0 <= L_cm <= 12.0
        and 1.2e3 <= n_cm <= 1.45e3
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"L(1 m) = {L_m:.2f} um (48..54), n = {n_m:.3g} (~1.3e5); "
        f"L(1 cm) = {L_cm:.2f} um (10..12), n = {n_cm:.3g} (~1.3e3); "
        f"runtime {elapsed:.2f} s < 1 s",
    )


# ----------------------------------------------------------------------
# 2. oracle equivalence scaling
# ----------------------------------------------------------------------

def _sample_cluster(rng, n):
    while True:
        pos = rng.uniform(0.0, 3.0, (n, 3))
        d = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
        dd = d[np.triu_indices(n, 1)]
        if dd.min() >= 0.5 and dd.max() <= 5.0:
            return pos


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst = (np.inf, -np.inf)
    for n, n_a in ((2, 1), (3, 1)):
        part = Partition(tuple(range(n_a)), tuple(range(n_a, n)))
        for _ in range(5):
            ens = explicit_ensemble(_sample_cluster(rng, n), DIPOLE)
            coupling = coupling_matrix(ens)
            for delta in (0.0, 0.5):
                drive = Drive(delta=delta, eta=0.04, beam=PlaneWave(YHAT))
                state = steady_state(coupling, drive, ens)
                errors = []
                liouv = build_liouvillian(coupling, delta, state.w)
                for eta in (0.04, 0.02, 0.01):
                    rho = steady_state_exact(liouv, eta)
                    n_exact, _ = negativity_exact(rho, list(range(n_a, n)), n)
                    st = PerturbState(
                        u=state.u, v=state.v, w=state.w,
                        delta=delta, eta=eta, atoms=state.atoms,
                    )
                    n_pt, _ = pt_negativity(build_pt_matrix(st, part))
                    errors.append(abs(n_exact - n_pt))
                for hi, lo in zip(errors, errors[1:]):
                    ratio = hi / lo
                    worst = (min(worst[0], ratio), max(worst[1], ratio))
    elapsed = time.time() - t0
    ok = worst[0] >= 8.0 and worst[1] <= 32.0 and elapsed < 120.0
    _report(
        2,
        ok,
        f"|N_exact - N_pt| halving ratios in [{worst[0]:.2f}, {worst[1]:.2f}] "
        f"(required [8, 32]); runtime {elapsed:.1f} s < 120 s",
    )


# ----------------------------------------------------------------------
# 3. far-field biquadratic spectrum
# ----------------------------------------------------------------------

def test_criterion_3_quartic_spectrum():
    sizes = [5] * 7 + [20] * 7 + [50] * 6
    deltas = [0.0, 0.25, 0.5]
    worst = 0.0
    for i, npg in enumerate(sizes):
        rng = np.random.default_rng(1000 + i)
        delta = deltas[i % 3]
        k0d = 1e6
        pa = rng.uniform(0, 40.0, (npg, 3))
        pb = rng.uniform(0, 40.0, (npg, 3)) + np.array([k0d, 0.0, 0.0])
        khat = rng.normal(size=3)
        khat /= np.linalg.norm(khat)
        s_a = complex(np.mean(np.exp(2j * (pa @ khat))))
        s_b = complex(np.mean(np.exp(2j * (pb @ khat))))
        cfg = farfield_parameters(k0d, 1.1, npg, npg, delta=delta, s_a=s_a, s_b=s_b)
        V = build_V_farfield(cfg, pa, pb, khat)
        dense = np.sort(lambda2_spectrum(V)[0])
        four = np.sort(np.concatenate([dense[:2], dense[-2:]]))
        worst = max(worst, float(np.max(np.abs(quartic_spectrum(cfg) - four))))
    # forced in-phase sums: doubly degenerate +/- sqrt(y)
    worst_deg = 0.0
    for npg in (5, 20, 50):
        cfg0 = farfield_parameters(1e6, 1.1, npg, npg, delta=0.25)
        roots = quartic_spectrum(cfg0)
        ry = np.sqrt(cfg0.y)
        worst_deg = max(
            worst_deg, float(np.max(np.abs(roots - np.array([-ry, -ry, ry, ry]))))
        )
    ok = worst <= 1e-10 and worst_deg <= 1e-12
    _report(
        3,
        ok,
        f"20 random configs: max |quartic - dense| = {worst:.2e} <= 1e-10; "
        f"s_A = s_B = 0 degeneracy gap {worst_deg:.2e} <= 1e-12",
    )


# ----------------------------------------------------------------------
# 4. far-field threshold and extremum consistency
# ----------------------------------------------------------------------

def _farfield_pipeline(npg, box, seed, delta):
    rng = np.random.default_rng(seed)
    pos_a = rng.uniform(0.0, box, (npg, 3))
    pos_b = rng.uniform(0.0, box, (npg, 3))
    diam = max(
        np.linalg.norm(pos_a[:, None] - pos_a[None], axis=-1).max(),
        np.linalg.norm(pos_b[:, None] - pos_b[None], axis=-1).max(),
    )
    pos_b = pos_b + np.array([1000.0 * diam**2, 0.0, 0.0])
    ens = explicit_ensemble(np.vstack([pos_a, pos_b]), DIPOLE)
    part = Partition(tuple(range(npg)), tuple(range(npg, 2 * npg)))
    drive = Drive(delta=delta, eta=0.01, beam=PlaneWave(YHAT))
    coupling = coupling_matrix(ens)
    u = solve_u(coupling, delta, drive.w(ens))
    v = solve_v(coupling, delta, u)
    state = PerturbState(
        u=u, v=v, w=drive.w(ens), delta=delta, eta=0.01, atoms=tuple(range(ens.n))
    )
    V = build_V(state, part)
    l2, vecs = lambda2_spectrum(V)
    l4 = np.array([lambda4_dilute(vecs[:, k], state.w, delta) for k in range(len(l2))])
    model = negativity_model(l2, l4, np.geomspace(1e-6, 1e-1, 20))
    cfg = farfield_config(ens, part, drive)
    return model, cfg


def test_criterion_4_farfield_consistency():
    t0 = time.time()
    worst_thr = 0.0
    worst_nmax = 0.0
    worst_emax = 0.0
    # seeds chosen so both group phase sums satisfy |s| < 0.05 and the
    # groups are dilute enough for the asymptotic comparison
    for npg, box, seed in ((10, 1500.0, 38176), (50, 6000.0, 13390)):
        for delta in (0.0, 0.5):
            model, cfg = _farfield_pipeline(npg, box, seed, delta)
            assert abs(cfg.s_a) < 0.05 and abs(cfg.s_b) < 0.05
            omega_numeric = 2.0 * model.eta_threshold
            bound = bound_omega(cfg)
            n_an, eta_an = nmax_analytic(cfg)
            worst_thr = max(worst_thr, abs(omega_numeric - bound) / bound)
            worst_nmax = max(worst_nmax, abs(model.n_max - n_an) / n_an)
            worst_emax = max(worst_emax, abs(model.eta_max - eta_an) / eta_an)
    elapsed = time.time() - t0
    ok = worst_thr <= 0.01 and worst_nmax <= 0.02 and worst_emax <= 0.02 and elapsed < 60.0
    _report(
        4,
        ok,
        f"threshold gap {worst_thr * 100:.2f}% <= 1%; N_max gap {worst_nmax * 100:.2f}% "
        f"and eta_max gap {worst_emax * 100:.2f}% <= 2%; runtime {elapsed:.1f} s < 60 s",
    )


# ----------------------------------------------------------------------
# 5. dilute-limit convergence
# ----------------------------------------------------------------------

def test_criterion_5_dilute_convergence():
    delta = 0.2
    rng = np.random.default_rng(20)
    while True:
        base = rng.uniform(0.0, 400.0, (10, 3))
        if _min_distance(base) >= 50.0:
            break
    errs = []
    bound_base = None
    for scale in (1.0, 10.0):
        pos = base * scale
        ens = explicit_ensemble(pos, DIPOLE)
        coupling = coupling_matrix(ens)
        w = np.exp(1j * (pos @ np.array([1.0, 0.0, 0.0])))
        u = solve_u(coupling, delta, w)
        v = solve_v(coupling, delta, u)
        I, J = pair_arrays(10)
        vd = np.array([v_dilute(coupling[i, j], w[i], w[j], delta) for i, j in zip(I, J)])
        errs.append(float(np.max(np.abs(v - vd)) / np.max(np.abs(v))))
        if scale == 1.0:
            bound_base = 5.0 / _min_distance(pos)
    ratio = errs[0] / errs[1]

    # dark pair behind one illuminated scatterer
    rng = np.random.default_rng(5)
    while True:
        dark_base = rng.uniform(0.0, 300.0, (3, 3))
        if _min_distance(dark_base) >= 50.0:
            break
    dark_errs = []
    for scale in (1.0, 10.0):
        pos = dark_base * scale
        ens = explicit_ensemble(pos, DIPOLE)
        coupling = coupling_matrix(ens)
        w = np.exp(1j * (pos @ np.array([1.0, 0.0, 0.0])))
        w[1] = 0.0
        w[2] = 0.0
        u = solve_u(coupling, delta, w)
        v = solve_v(coupling, delta, u)
        approx = v_dark(coupling, w, delta, 1, 2)
        dark_errs.append(abs(v[2] - approx) / abs(v[2]))
    dark_ratio = dark_errs[0] / dark_errs[1]
    ok = errs[0] <= bound_base and ratio >= 8.0 and dark_ratio >= 8.0
    _report(
        5,
        ok,
        f"dilute error {errs[0]:.3e} <= {bound_base:.3e}, x10 improvement "
        f"{ratio:.1f} >= 8; dark-pair improvement {dark_ratio:.1f} >= 8",
    )


# ----------------------------------------------------------------------
# 6. structural invariants
# ----------------------------------------------------------------------

def test_criterion_6_structural_invariants():
    results = run_checks(seed=1)
    names = {r.name for r in results}
    required = {
        "z_symmetry",
        "gamma_psd",
        "group_swap",
        "eig_pairing",
        "pt_hermitian",
        "pt_trace",
        "restriction_partial_trace",
        "phase_invariance",
    }
    missing = required - names
    failed = [r.name for r in results if not r.passed]
    ok = not missing and not failed
    _report(
        6,
        ok,
        f"{len(results)} validation checks all green (failed: {failed or 'none'}; "
        f"missing: {sorted(missing) or 'none'})",
    )


# ----------------------------------------------------------------------
# 7. propagated amplitudes reach the solver fixed point
# ----------------------------------------------------------------------

def test_criterion_7_two_routes_to_amplitudes():
    worst = 0.0
    geometries = {
        2: np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
        4: np.array(
            [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 30.0, 0.0], [0.3, 30.0, 0.0]]
        ),
    }
    for n, pos in geometries.items():
        ens = explicit_ensemble(pos, DIPOLE)
        # beam along z drives every atom in phase: the slow antisymmetric
        # collective modes stay dark, so Gamma t = 20 suffices
        drive = Drive(delta=0.0, eta=0.1, beam=PlaneWave(ZHAT))
        coupling = coupling_matrix(ens)
        ref = steady_state(coupling, drive, ens)
        prop = propagate_truncated(coupling, 0.0, ref.w, drive.eta, t_final=20.0)
        worst = max(
            worst,
            float(np.max(np.abs(prop.u - ref.u))),
            float(np.max(np.abs(prop.v - ref.v))),
        )
    ok = worst <= 1e-8
    _report(7, ok, f"propagator vs linear solves: max gap {worst:.2e} <= 1e-8 at Gamma t = 20")


# ----------------------------------------------------------------------
# 8. non-perturbative single-atom fixed point
# ----------------------------------------------------------------------

def test_criterion_8_single_atom_exactness():
    worst = 0.0
    z = np.array([[0.5 + 0j]])
    w = np.array([np.exp(0.4j)])
    for eta in (0.01, 0.1, 1.0):
        for delta in (0.0, 0.5):
            rho = steady_state_exact(build_liouvillian(z, delta, w), eta)
            ref = dilute_product_state(w, delta, eta).single(0)
            worst = max(worst, float(np.max(np.abs(rho - ref))))
    ok = worst <= 1e-12
    _report(8, ok, f"exact steady state vs closed form: max gap {worst:.2e} <= 1e-12")
