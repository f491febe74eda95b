import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from weakdrive import perturbation
from weakdrive.basis import pair_arrays, pair_index, scatter_pairs
from weakdrive.coupling import coupling_matrix
from weakdrive.checks import build_scenario
from weakdrive.errors import (
    AsymmetricCouplingError,
    PartitionError,
    ResonantSingularityError,
    SolverConvergenceError,
)
from weakdrive.exact import Liouvillian, reduce_state, steady_state_exact
from weakdrive.geometry import (
    Drive,
    Ensemble,
    PlaneWave,
    lattice_ensemble,
    random_ensemble,
)
from weakdrive.perturbation import (
    assemble_state,
    pair_map_apply,
    pair_rhs,
    restrict_state,
    solve_u,
    solve_v,
    steady_state,
)

DIPOLE = np.array([0.0, 0.0, 1.0])
BEAM = PlaneWave(np.array([0.0, 1.0, 0.0]))


def _pair_state(separation=1.0, delta=0.0):
    ens = Ensemble([[0, 0, 0], [separation, 0, 0]], DIPOLE)
    drive = Drive(delta=delta, eta=0.05, beam=BEAM)
    coupling = coupling_matrix(ens)
    return ens, drive, coupling


def test_single_atom_resonant():
    z = np.array([[0.5 + 0j]])
    u = solve_u(z, 0.0, np.array([1.0 + 0j]))
    assert u[0] == pytest.approx(2j)


def test_single_atom_detuned():
    z = np.array([[0.5 + 0j]])
    u = solve_u(z, 0.5, np.array([1.0 + 0j]))
    assert u[0] == pytest.approx(-1.0 + 1.0j)


def test_symmetric_pair_closed_form():
    ens, drive, coupling = _pair_state()
    # beam orthogonal to the pair axis drives both atoms in phase
    u = solve_u(coupling, 0.0, drive.w(ens))
    z12 = coupling[0, 1]
    expected = 1j / (0.5 + z12)
    assert np.allclose(u, expected, atol=1e-13)


def test_pair_closed_form_v():
    ens, drive, coupling = _pair_state()
    u = solve_u(coupling, 0.0, drive.w(ens))
    v = solve_v(coupling, 0.0, u)
    z12 = coupling[0, 1]
    assert v[0] == pytest.approx(-2.0 * z12 / (0.5 + z12) ** 2, abs=1e-13)


def test_decoupled_pair_has_no_correlation():
    z = np.diag([0.5 + 0j, 0.5 + 0j])
    u = solve_u(z, 0.3, np.array([1.0 + 0j, 1.0j]))
    v = solve_v(z, 0.3, u)
    assert np.max(np.abs(v)) <= 1e-14


def _reference_pair_matrix(coupling, delta, n):
    """Dense M x M pair matrix assembled entry by entry: the reference route."""
    I, J = pair_arrays(n)
    M = len(I)
    table = np.full((n, n), -1)
    table[I, J] = table[J, I] = np.arange(M)
    rows = np.repeat(np.arange(M), n)
    xi = np.tile(np.arange(n), M)
    Irep = np.repeat(I, n)
    Jrep = np.repeat(J, n)

    A = np.zeros((M, M), dtype=complex)
    keep = xi != Jrep
    np.add.at(
        A,
        (rows[keep], table[xi[keep], Jrep[keep]]),
        coupling[Irep[keep], xi[keep]],
    )
    keep = xi != Irep
    np.add.at(
        A,
        (rows[keep], table[xi[keep], Irep[keep]]),
        coupling[Jrep[keep], xi[keep]],
    )
    idx = np.arange(M)
    A[idx, idx] -= 2j * delta
    return A


def _reference_v(coupling, delta, u):
    A = _reference_pair_matrix(coupling, delta, len(coupling))
    return np.linalg.solve(A, pair_rhs(coupling, u))


def _relative_gap(v, ref):
    return float(np.max(np.abs(v - ref)) / np.max(np.abs(ref)))


def _defective_coupling(eps=0.0):
    """Complex-symmetric Z with a 2 x 2 Jordan block, rotated by a real
    orthogonal matrix so every pair couples; eps > 0 splits the block into
    eigenvalues 0.5 + 0.1i +- (0.4 eps + eps^2)^(1/2)."""
    core = np.diag(
        [0.7 + eps + 0.1j, 0.3 - eps + 0.1j, 0.6 - 0.2j, 0.45 + 0.3j, 0.7, 0.55 - 0.1j]
    )
    core[0, 1] = core[1, 0] = 0.2j  # 0.5 + 0.1i plus 0.2 [[1, i], [i, -1]]
    R, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 6)))
    return R @ core @ R.T


def test_solve_v_matches_reference_random():
    ens = random_ensemble(20, 30.0, 4, DIPOLE, min_distance=0.8)
    coupling = coupling_matrix(ens)
    drive = Drive(delta=0.2, eta=0.05, beam=BEAM)
    u = solve_u(coupling, drive.delta, drive.w(ens))
    v = solve_v(coupling, drive.delta, u)
    assert _relative_gap(v, _reference_v(coupling, drive.delta, u)) <= 1e-12


def test_solve_v_matches_reference_lattice():
    ens = lattice_ensemble(3, 1.0, DIPOLE)
    coupling = coupling_matrix(ens)
    lam = np.linalg.eigvals(coupling)
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(ens.n)
    assert gaps.min() <= 1e-12  # the cubic symmetry leaves degenerate modes
    drive = Drive(delta=0.3, eta=0.05, beam=BEAM)
    u = solve_u(coupling, drive.delta, drive.w(ens))
    v = solve_v(coupling, drive.delta, u)
    assert _relative_gap(v, _reference_v(coupling, drive.delta, u)) <= 1e-12


def test_defective_coupling_takes_schur_kernel():
    # named for the Schur fallback that solved this Z until it was removed,
    # kept so that the test id stays stable: both solves now refuse it
    coupling = _defective_coupling()
    # symmetric to rounding only, which the symmetry gate lets through
    asym = np.max(np.abs(coupling - coupling.T))
    assert 0.0 < asym <= perturbation.SYMMETRY_RTOL * np.max(np.abs(coupling))
    w = np.exp(1j * np.arange(6))
    u = solve_u(coupling, 0.3, w)
    with pytest.raises(ResonantSingularityError) as exc:
        solve_v(coupling, 0.3, u)
    assert exc.value.cond > perturbation.EIG_COND_GUARD
    # the exact oracle's levels have Z's eigenvectors: it refuses the same Z
    with pytest.raises(ResonantSingularityError) as exc:
        steady_state_exact(Liouvillian(coupling, 0.3, w), 0.05)
    assert exc.value.cond > perturbation.EIG_COND_GUARD


@pytest.mark.parametrize(
    "eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 0.0]
)
def test_near_defective_family_takes_kernel_by_kappa(eps):
    # kappa ~ 0.32 / sqrt(eps) crosses EIG_COND_GUARD at eps ~ 1e-9, which
    # is left out so that rounding cannot move a point across the gate:
    # below it the pair solve is exact, above it refused with cond = kappa
    coupling = _defective_coupling(eps)
    _, P = np.linalg.eig(coupling)
    # for complex-symmetric Z the left eigenvectors are conj(P), so the
    # eigenvalue condition numbers are 1 / |p_i^T p_i| for unit columns
    kappa = float(np.max(1.0 / np.abs(np.sum(P * P, axis=0))))
    assert not 0.5 <= kappa / perturbation.EIG_COND_GUARD <= 2.0
    u = solve_u(coupling, 0.3, np.exp(1j * np.arange(6)))
    if kappa <= perturbation.EIG_COND_GUARD:
        v = solve_v(coupling, 0.3, u)
        assert _relative_gap(v, _reference_v(coupling, 0.3, u)) <= 1e-12
    else:
        with pytest.raises(ResonantSingularityError) as exc:
            solve_v(coupling, 0.3, u)
        assert exc.value.cond == pytest.approx(kappa, rel=1e-6)


def _cloud_kernel(n, cloud):
    """Eigen-kernel inputs of an n-atom random cloud at delta = 0.3.

    "sparse" is a 30-wide box; "dense" has the density of the benchmark's
    masked 100-atom solve (a 20-wide box at 100 atoms). A beam mask does not
    enter Z, so the density is what a masked cloud changes for K.
    """
    box = 30.0 if cloud == "sparse" else 20.0 * (n / 100.0) ** (1.0 / 3.0)
    ens = random_ensemble(n, box, 1000 + n, DIPOLE, min_distance=0.5)
    return (*perturbation.eigenbasis(coupling_matrix(ens), 0.3), 0.3)


def _sylvester(P, Q, G, X):
    """The Sylvester inverse X -> P (G o (Q X Q^T)) P^T applied to X on its
    own."""
    return P @ (G * (Q @ X @ Q.T)) @ P.T


@pytest.mark.parametrize("cloud", ["sparse", "dense"])
@pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 161])
def test_eigen_kernel_K_matches_column_definition(n, cloud):
    lam, P, Q, delta = _cloud_kernel(n, cloud)
    G, K, _ = perturbation._eigen_kernel(lam, P, Q, delta)
    _check_K_against_column_definition(P, Q, G, K)


def _check_K_against_column_definition(P, Q, G, K):
    n = len(K)
    ref = np.column_stack([np.diagonal(_sylvester(P, Q, G, np.diag(e))) for e in np.eye(n)])
    assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(K, K.T)


def test_eigen_kernel_K_matches_schur_kernel_on_degenerate_lattice():
    # named for the Schur kernel that was its reference until it was
    # removed, kept so that the test id stays stable. The reference is now
    # the dense Kronecker form of Z S + S Z^T - 2 i delta S, which never
    # diagonalises Z: column j of K is the diagonal of its solve with the
    # right-hand side e_j e_j^T (row-major vec, n^2 = 729 unknowns)
    z = coupling_matrix(lattice_ensemble(3, 1.0, DIPOLE))
    n = len(z)
    # eigenbasis refuses a basis whose kappa exceeds EIG_COND_GUARD
    _, K, _ = perturbation._eigen_kernel(*perturbation.eigenbasis(z, 0.3), 0.3)
    eye = np.eye(n)
    A = np.kron(z, eye) + np.kron(eye, z) - 2j * 0.3 * np.eye(n * n)
    diagonal = np.arange(n) * (n + 1)  # positions of the S_ii in vec(S)
    rhs = np.zeros((n * n, n), dtype=complex)
    rhs[diagonal, np.arange(n)] = 1.0
    K_ref = np.linalg.solve(A, rhs)[diagonal]
    assert np.array_equal(K, K.T)
    assert np.max(np.abs(K - K_ref)) <= 1e-12 * np.max(np.abs(K_ref))


def test_degenerate_lattice_takes_eigen_kernel():
    # the cubic symmetry of the 4^3 lattice at spacing 2 leaves eigenvalues
    # degenerate to rounding, so G has duplicate columns: the skeleton
    # drops each with its twin's pivot instead of dividing by a zero pivot
    ens = lattice_ensemble(4, 2.0, DIPOLE)
    coupling = coupling_matrix(ens)
    lam, P, Q = perturbation.eigenbasis(coupling, 0.3)
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(ens.n)
    assert gaps.min() <= 1e-12
    G, K, rank = perturbation._eigen_kernel(lam, P, Q, 0.3)
    assert rank < ens.n
    _check_K_against_column_definition(P, Q, G, K)
    u = solve_u(coupling, 0.3, Drive(delta=0.3, eta=0.05, beam=BEAM).w(ens))
    v = solve_v(coupling, 0.3, u)
    r = pair_rhs(coupling, u) - pair_map_apply(coupling, 0.3, v)
    assert np.max(np.abs(r)) <= perturbation.RESIDUAL_TOL


@pytest.mark.parametrize(
    "k0r, cond",
    [
        (1e-4, None),
        (1e-5, None),
        # lambda_1 + lambda_2 rounds to exactly 0: G is not finite
        (1e-6, np.inf),
    ],
)
def test_near_coincident_pair_refused_after_eigen_kernel(k0r, cond):
    # two resonant atoms k0 r apart: the diagonal of G is ~ r^3 against
    # an off-diagonal entry of 1, so its skeleton pivots on the pair, and
    # K is singular to the condition gate, as it was before the skeleton
    ens = Ensemble([[0, 0, 0], [k0r, 0, 0]], DIPOLE)
    coupling = coupling_matrix(ens)
    u = solve_u(coupling, 0.0, np.ones(2, dtype=complex))
    with pytest.raises(ResonantSingularityError) as exc:
        solve_v(coupling, 0.0, u)
    assert exc.value.cond > perturbation.COND_LIMIT
    if cond is not None:
        assert exc.value.cond == cond


def test_eigen_kernel_refuses_exact_resonance():
    # lambda_1 + lambda_2 = 2 i delta in binary fractions: G_12 is infinite
    lam = np.array([0.125 + 0.25j, -0.125 + 0.25j])
    P = np.eye(2, dtype=complex)
    with pytest.raises(ResonantSingularityError) as exc:
        perturbation._eigen_kernel(lam, P, P, 0.25)
    assert exc.value.cond == np.inf


def _skeleton_of(x):
    G = 1.0 / (x[:, None] + x[None, :])
    tol = perturbation.SKELETON_RTOL * np.max(np.abs(G))
    return G, perturbation._skeleton(x, np.abs(G), tol), tol


@pytest.mark.parametrize(
    "x",
    [
        # exact duplicates: the residual of a twin vanishes with its pivot
        [0.3 + 1j, 0.3 + 1j, 0.5 - 2j, 0.3 + 1j],
        # a diagonal far below the off-diagonal entry: a pivot on the pair
        [1 + 1e3j, 1 - 1e3j],
        # a diagonal within the tolerance: found by the search over all
        # entries, which diagonal pivots alone would stop before
        [1 + 1e15j, 1 - 1e15j],
        # a diagonal pivot on 0.5 first, then a pair pivot found by the
        # scan while the diagonal of the first two is still above tol
        [1 + 1e3j, 1 - 1e3j, 0.5],
    ],
)
def test_skeleton_reproduces_G(x):
    x = np.array(x)
    G, C, tol = _skeleton_of(x)
    assert len(C) == len(set(x))
    assert np.max(np.abs(G - C.T @ C)) <= tol


@pytest.mark.parametrize("dipole", [DIPOLE, np.array([1.0, 1.0, 1.0]) / 3**0.5],
                         ids=["z", "tilted"])
@pytest.mark.parametrize("spacing", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("edge", [2, 3, 4])
def test_skeleton_reproduces_G_on_lattices(edge, spacing, dipole):
    # cubic lattices: degenerate and subradiant modes, many pair pivots
    x = np.linalg.eigvals(coupling_matrix(lattice_ensemble(edge, spacing, dipole))) - 0.3j
    G, C, tol = _skeleton_of(x)
    assert len(C) <= len(x)
    assert np.max(np.abs(G - C.T @ C)) <= tol


@pytest.mark.parametrize("n, rank", [(40, 20), (100, 35), (160, 48)])
def test_skeleton_rank_on_clouds(n, rank):
    # K costs ~R n^3 / 2, so a pivot rule that raises the rank R slows the
    # pair solve; random clouds at the density of 160 atoms in a 20-wide
    # box, whose ranks are stable under 1e-15 relative noise in lambda
    ens = random_ensemble(n, 20.0 * (n / 160) ** (1 / 3), 0, DIPOLE, min_distance=0.5)
    x = np.linalg.eigvals(coupling_matrix(ens)) - 0.3j
    G, C, tol = _skeleton_of(x)
    assert len(C) <= rank
    assert np.max(np.abs(G - C.T @ C)) <= tol


@pytest.mark.parametrize("cloud", ["sparse", "dense"])
@pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 161])
def test_project_matches_two_applications(n, cloud):
    # the reference applies the Sylvester inverse to the pairs, reads the
    # multipliers off its diagonal, and applies it again to diag(d)
    lam, P, Q, delta = _cloud_kernel(n, cloud)
    G, K, _ = perturbation._eigen_kernel(lam, P, Q, delta)
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal(n * (n - 1) // 2) + 1j * rng.standard_normal(n * (n - 1) // 2)
    K_inv = np.linalg.inv(K)
    S = _sylvester(P, Q, G, scatter_pairs(rhs, n))
    d = K_inv @ -np.diagonal(S)
    ref = (S + _sylvester(P, Q, G, np.diag(d)))[np.triu_indices(n, 1)]
    v = perturbation._project(P, Q, G, K_inv, rhs)
    assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_eigen_kernel_memory_bound():
    # G, |G| (freed before the products), K, and the stacked rows and
    # products of one block of rows (n to 2n rows each): a few n x n arrays
    n = 160
    args = _cloud_kernel(n, "sparse")
    tracemalloc.start()
    try:
        _, K, _ = perturbation._eigen_kernel(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.22 MB; the blocked quadratic-form build it replaced peaked at
    # 2.95 MB with its 1 MB row buffer
    assert peak <= 3.1e6
    assert np.array_equal(K, K.T)


def _asymmetric_40_atoms():
    ens = random_ensemble(40, 20.0, 3, DIPOLE, min_distance=0.5)
    z = coupling_matrix(ens).copy()
    z[0, 1] += 0.1
    u = solve_u(z, 0.3, Drive(delta=0.3, eta=0.05, beam=BEAM).w(ens))
    return z, 0.3, u, 0.1


def _validate_z_asymmetry():
    # validate's scenario with z[0, 1] raised by 1e-3
    sc = build_scenario()
    coupling = sc.coupling.copy()
    coupling[0, 1] += 1e-3
    u = solve_u(coupling, sc.state.delta, sc.state.w)
    return coupling, sc.state.delta, u, 1e-3


@pytest.mark.parametrize("case", [_asymmetric_40_atoms, _validate_z_asymmetry])
def test_asymmetric_coupling_refused(case):
    coupling, delta, u, added = case()
    with pytest.raises(AsymmetricCouplingError) as exc:
        solve_v(coupling, delta, u)
    assert exc.value.asymmetry == pytest.approx(added)
    assert exc.value.scale == np.max(np.abs(coupling))


def test_farfield_cross_block_matches_reference():
    # the npg = 10 geometry of acceptance criterion 4: V_AB is ~1e-9, far
    # below the absolute residual gate, so only refinement keeps it exact
    npg = 10
    rng = np.random.default_rng(38176)
    pos_a = rng.uniform(0.0, 1500.0, (npg, 3))
    pos_b = rng.uniform(0.0, 1500.0, (npg, 3))
    diam = max(
        np.linalg.norm(pos_a[:, None] - pos_a[None], axis=-1).max(),
        np.linalg.norm(pos_b[:, None] - pos_b[None], axis=-1).max(),
    )
    pos_b = pos_b + np.array([1000.0 * diam**2, 0.0, 0.0])
    ens = Ensemble(np.vstack([pos_a, pos_b]), DIPOLE)
    coupling = coupling_matrix(ens)
    for delta in (0.0, 0.5):
        drive = Drive(delta=delta, eta=0.01, beam=BEAM)
        u = solve_u(coupling, delta, drive.w(ens))
        v_ab = scatter_pairs(solve_v(coupling, delta, u), ens.n)[:npg, npg:]
        ref_ab = scatter_pairs(_reference_v(coupling, delta, u), ens.n)[:npg, npg:]
        assert np.max(np.abs(ref_ab)) < 1e-8
        assert _relative_gap(v_ab, ref_ab) <= 1e-10


def test_pair_solve_refines_once(monkeypatch):
    calls = []
    apply = perturbation.pair_map_apply

    def counted(*args):
        calls.append(1)
        return apply(*args)

    monkeypatch.setattr(perturbation, "pair_map_apply", counted)
    ens = random_ensemble(12, 15.0, 5, DIPOLE, min_distance=0.5)
    coupling = coupling_matrix(ens)
    u = solve_u(coupling, 0.3, Drive(delta=0.3, eta=0.05, beam=BEAM).w(ens))
    solve_v(coupling, 0.3, u)
    # residual of the first solve, then of the refined one
    assert len(calls) == 2


def test_solve_v_logs_kernel_rank_and_residual(monkeypatch, caplog):
    ens = random_ensemble(12, 15.0, 5, DIPOLE, min_distance=0.5)
    coupling = coupling_matrix(ens)
    u = solve_u(coupling, 0.3, Drive(delta=0.3, eta=0.05, beam=BEAM).w(ens))
    defective = _defective_coupling()
    u6 = solve_u(defective, 0.3, np.exp(1j * np.arange(6)))
    with caplog.at_level(logging.DEBUG, logger="weakdrive.perturbation"):
        solve_v(coupling, 0.3, u)
        # forced into the eigenbasis of the defective Z: the failing solve
        # logs its last residual before it raises
        monkeypatch.setattr(perturbation, "EIG_COND_GUARD", np.inf)
        with pytest.raises(SolverConvergenceError):
            solve_v(defective, 0.3, u6)
    solved, failed = (r.getMessage() for r in caplog.records)
    m = re.fullmatch(r"skeleton rank (\d+) of 12; refinement steps 1, residual (\S+)", solved)
    rank = perturbation._eigen_kernel(*perturbation.eigenbasis(coupling, 0.3), 0.3)[2]
    assert int(m[1]) == rank
    assert float(m[2]) <= perturbation.RESIDUAL_TOL
    m = re.fullmatch(r"skeleton rank \d of 6; refinement steps (\d), residual (\S+)", failed)
    assert int(m[1]) == perturbation.REFINE_STEPS
    assert float(m[2]) > perturbation.RESIDUAL_TOL


def test_nonfinite_pair_residual_raises(monkeypatch):
    monkeypatch.setattr(
        perturbation, "pair_map_apply", lambda c, d, v: np.full_like(v, np.nan)
    )
    ens, drive, coupling = _pair_state()
    u = solve_u(coupling, 0.0, drive.w(ens))
    with pytest.raises(SolverConvergenceError) as exc:
        solve_v(coupling, 0.0, u)
    assert np.isnan(exc.value.residual)


@pytest.mark.parametrize(
    "z, delta",
    [
        # lambda = 0.3i +- 0.1, so lambda_1 + lambda_2 = 2i delta up to rounding
        (np.array([[0.3j, 0.1], [0.1, 0.3j]]), 0.3),
        # the same resonance in binary fractions: G has an infinite entry
        (np.array([[0.25j, 0.125], [0.125, 0.25j]]), 0.25),
    ],
)
def test_pair_only_resonance_reported(z, delta):
    u = solve_u(z, delta, np.array([1.0 + 0j, 1.0j]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResonantSingularityError) as exc:
            solve_v(z, delta, u)
    assert exc.value.cond > 1e12


def test_residuals_within_tolerance():
    ens = random_ensemble(8, 12.0, 6, DIPOLE, min_distance=0.5)
    coupling = coupling_matrix(ens)
    drive = Drive(delta=-0.4, eta=0.05, beam=BEAM)
    w = drive.w(ens)
    u = solve_u(coupling, drive.delta, w)
    v = solve_v(coupling, drive.delta, u)
    res_u = np.max(np.abs(coupling @ u - 1j * drive.delta * u - 1j * w))
    res_v = np.max(np.abs(pair_map_apply(coupling, drive.delta, v) - pair_rhs(coupling, u)))
    assert res_u <= 1e-10
    assert res_v <= 1e-10


def test_singular_system_reported():
    # synthetic coupling putting an eigenvalue exactly at i*delta
    z = np.array([[0.3j]])
    with pytest.raises(ResonantSingularityError) as exc:
        solve_u(z, 0.3, np.array([1.0 + 0j]))
    assert exc.value.delta == 0.3
    assert exc.value.cond > 1e12


def test_iterative_nonconvergence_reports_residual(monkeypatch):
    # forced into the eigenbasis of a defective Z, refinement cannot reach
    # the gate; the error carries the last residual and the step count
    monkeypatch.setattr(perturbation, "EIG_COND_GUARD", np.inf)
    coupling = _defective_coupling()
    u = solve_u(coupling, 0.3, np.exp(1j * np.arange(6)))
    with pytest.raises(SolverConvergenceError) as exc:
        solve_v(coupling, 0.3, u)
    assert exc.value.residual > perturbation.RESIDUAL_TOL
    assert exc.value.iterations == perturbation.REFINE_STEPS


def test_direct_solve_failure_message(monkeypatch):
    # the u solve is direct: the error names the residual and zero
    # refinement steps, not a non-converged iteration
    monkeypatch.setattr(perturbation, "RESIDUAL_TOL", -1.0)
    ens, drive, coupling = _pair_state()
    with pytest.raises(SolverConvergenceError) as exc:
        solve_u(coupling, drive.delta, drive.w(ens))
    assert exc.value.iterations == 0
    assert str(exc.value) == (
        f"residual {exc.value.residual:.3e} above target after 0 refinement steps"
    )


def test_restrict_empty_subset_rejected():
    ens, drive, coupling = _pair_state()
    state = steady_state(coupling, drive, ens)
    with pytest.raises(ValueError):
        restrict_state(state, ())


def test_restrict_repeated_label_rejected():
    ens = random_ensemble(3, 4.0, 2, DIPOLE, min_distance=0.5)
    state = steady_state(coupling_matrix(ens), Drive(delta=0.3, eta=0.05, beam=BEAM), ens)
    for subset in ((0, 0), (1, 2, 1)):
        with pytest.raises(PartitionError, match="more than once"):
            restrict_state(state, subset)


@pytest.mark.parametrize("n", range(2, 8))
def test_pair_index_matches_pair_arrays(n):
    I, J = pair_arrays(n)
    positions = np.arange(len(I))
    assert np.array_equal(pair_index(I, J, n), positions)
    assert np.array_equal(pair_index(J, I, n), positions)
    for k, (i, j) in enumerate(zip(I.tolist(), J.tolist())):
        assert pair_index(i, j, n) == pair_index(j, i, n) == k


def test_v_pair_matches_v_matrix():
    ens = random_ensemble(5, 5.0, 4, DIPOLE, min_distance=0.5)
    state = steady_state(coupling_matrix(ens), Drive(delta=0.3, eta=0.05, beam=BEAM), ens)
    vmat = state.v_matrix()
    # a restriction in shuffled order reads the same pairs
    sub = (3, 0, 4, 1)
    off = ~np.eye(len(sub), dtype=bool)
    assert np.array_equal(restrict_state(state, sub).v_matrix()[off], vmat[np.ix_(sub, sub)][off])


def test_assemble_ground_state_at_zero_drive():
    ens, _, coupling = _pair_state()
    drive = Drive(delta=0.0, eta=0.0, beam=BEAM)
    state = steady_state(coupling, drive, ens)
    rho = assemble_state(state)
    expected = np.zeros_like(rho)
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-15)


@pytest.mark.parametrize("delta", [0.0, 0.5, -1.3])
def test_single_atom_steady_state(delta):
    # one atom has no pairs: u = i w / (1/2 - i delta), v is empty and the
    # state lives on {ground, excited}
    ens = Ensemble([[0.0, 0.0, 0.0]], DIPOLE)
    drive = Drive(delta=delta, eta=0.1, beam=BEAM)
    state = steady_state(coupling_matrix(ens), drive, ens)
    w = drive.w(ens)
    assert abs(state.u[0] - 1j * w[0] / (0.5 - 1j * delta)) <= 1e-15
    assert state.v.shape == (0,)
    rho = assemble_state(state)
    assert rho.shape == (2, 2)
    assert abs(np.trace(rho) - 1.0) <= 1e-15


def test_assemble_entries_and_trace():
    ens = random_ensemble(4, 8.0, 9, DIPOLE, min_distance=0.5)
    coupling = coupling_matrix(ens)
    drive = Drive(delta=0.3, eta=0.07, beam=BEAM)
    state = steady_state(coupling, drive, ens)
    rho = assemble_state(state)
    n = ens.n
    singles = rho[1 : 1 + n, 1 : 1 + n]
    assert np.allclose(singles, drive.eta**2 * np.outer(state.u, state.u.conj()), atol=1e-15)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14


def test_restrict_identity():
    ens, drive, coupling = _pair_state()
    state = steady_state(coupling, drive, ens)
    same = restrict_state(state, (0, 1))
    assert np.array_equal(same.u, state.u)
    assert np.array_equal(same.v, state.v)


def _embed_truncated(matrix: np.ndarray, n: int) -> np.ndarray:
    """Map the truncated basis into the full 2^n product space (test oracle)."""
    I, J = pair_arrays(n)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)

    def bit_index(excited):
        idx = 0
        for atom in excited:
            idx |= 1 << (n - 1 - atom)
        return idx

    labels = [()] + [(m,) for m in range(n)] + list(zip(I, J))
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            full[bit_index(la), bit_index(lb)] = matrix[a, b]
    return full


def test_restriction_equals_partial_trace():
    ens = random_ensemble(3, 6.0, 13, DIPOLE, min_distance=0.6)
    coupling = coupling_matrix(ens)
    drive = Drive(delta=0.1, eta=0.04, beam=BEAM)
    state = steady_state(coupling, drive, ens)
    keep = (0, 1)
    direct = _embed_truncated(assemble_state(restrict_state(state, keep)), 2)
    traced = reduce_state(_embed_truncated(assemble_state(state), 3), keep, 3)
    assert np.max(np.abs(direct - traced)) <= 1e-12


def test_singleton_restriction_formula():
    ens = random_ensemble(3, 6.0, 14, DIPOLE, min_distance=0.6)
    coupling = coupling_matrix(ens)
    drive = Drive(delta=-0.2, eta=0.06, beam=BEAM)
    state = steady_state(coupling, drive, ens)
    mu = 1
    rho = assemble_state(restrict_state(state, (mu,)))
    eta, u = drive.eta, state.u[mu]
    phi = np.array([1.0, eta * u])  # (g, e) amplitudes
    expected = np.outer(phi, phi.conj())
    expected[0, 0] -= eta**2 * abs(u) ** 2
    assert np.allclose(rho, expected, atol=1e-14)


def _kron_truncated(rho_i, rho_j, eta):
    """Product of two single-atom states truncated at second order in eta.

    Each factor is split into its drive orders (1, eta, eta^2) first, so the
    product never carries spurious higher-order terms.
    """
    orders_i = _order_split(rho_i, eta)
    orders_j = _order_split(rho_j, eta)
    out = np.zeros((4, 4), dtype=complex)
    for a in range(3):
        for b in range(3):
            if a + b <= 2:
                out += eta ** (a + b) * np.kron(orders_i[a], orders_j[b])
    return out


def _order_split(rho, eta):
    base = np.zeros((2, 2), dtype=complex)
    base[0, 0] = 1.0
    first = np.zeros((2, 2), dtype=complex)
    first[1, 0] = rho[1, 0] / eta
    first[0, 1] = rho[0, 1] / eta
    second = (rho - base - eta * first) / eta**2
    return base, first, second


def test_pair_correlation_matches_state_reduction():
    ens = random_ensemble(3, 5.0, 17, DIPOLE, min_distance=0.5)
    coupling = coupling_matrix(ens)
    drive = Drive(delta=0.25, eta=0.03, beam=BEAM)
    state = steady_state(coupling, drive, ens)
    i, j = 0, 2
    rho_ij = _embed_truncated(assemble_state(restrict_state(state, (i, j))), 2)
    rho_i = assemble_state(restrict_state(state, (i,)))
    rho_j = assemble_state(restrict_state(state, (j,)))
    product = _kron_truncated(rho_i, rho_j, drive.eta)
    # at second order only the gg-ee corner of the connected correlator
    # survives: eta^2 conj(v) |gg><ee| plus its conjugate
    v = state.v_matrix()[i, j]
    connected = np.zeros((4, 4), dtype=complex)
    connected[0, 3] = drive.eta**2 * np.conj(v)
    connected[3, 0] = drive.eta**2 * v
    assert abs(connected[3, 0]) > 1e-4
    assert np.max(np.abs(rho_ij - product - connected)) <= 1e-12


def test_global_phase_scaling():
    ens = random_ensemble(4, 9.0, 19, DIPOLE, min_distance=0.5)
    coupling = coupling_matrix(ens)
    drive = Drive(delta=0.15, eta=0.05, beam=BEAM)
    w = drive.w(ens)
    chi = 0.7
    u1 = solve_u(coupling, drive.delta, w)
    v1 = solve_v(coupling, drive.delta, u1)
    u2 = solve_u(coupling, drive.delta, w * np.exp(1j * chi))
    v2 = solve_v(coupling, drive.delta, u2)
    assert np.max(np.abs(u2 - u1 * np.exp(1j * chi))) <= 1e-12
    assert np.max(np.abs(v2 - v1 * np.exp(2j * chi))) <= 1e-12
