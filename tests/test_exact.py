import functools
import logging
import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

from weakdrive import exact
from weakdrive.basis import pair_arrays
from weakdrive.config import parse_config
from weakdrive.coupling import CouplingMatrix, coupling_matrix
from weakdrive.errors import (
    CapExceededError,
    PropagationError,
    ResonantSingularityError,
    SolverConvergenceError,
)
from weakdrive.exact import (
    DENSE_CAP,
    N_CAP,
    amplitude_drift,
    build_liouvillian,
    dilute_product_state,
    lowering_ops,
    negativity_exact,
    propagate_truncated,
    reduce_state,
    steady_state_exact,
)
from weakdrive.geometry import (
    Drive,
    MaskedBeam,
    Partition,
    PlaneWave,
    explicit_ensemble,
    random_ensemble,
)
from weakdrive.negativity import build_pt_matrix, pt_negativity
from weakdrive.perturbation import assemble_state, steady_state
from weakdrive.runner import run_oracle_compare

DIPOLE = np.array([0.0, 0.0, 1.0])
BEAM = PlaneWave(np.array([0.0, 1.0, 0.0]))


def _system(positions, delta=0.0, eta=0.05):
    ens = explicit_ensemble(positions, DIPOLE)
    drive = Drive(delta=delta, eta=eta, beam=BEAM)
    coupling = coupling_matrix(ens)
    return ens, drive, coupling


def _reference_liouvillian(coupling, delta, w, eta):
    """Generator assembled term by term from Kronecker products of the
    single-atom operators: the reference route."""
    n = coupling.n
    d = 2**n
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sms = []
    for m in range(n):
        op = np.array([[1.0 + 0j]])
        for k in range(n):
            op = np.kron(op, sm if k == m else np.eye(2))
        sms.append(op)
    eye = np.eye(d, dtype=complex)
    H = np.zeros((d, d), dtype=complex)
    for m in range(n):
        num = sms[m].conj().T @ sms[m]
        H += -delta * num - eta * (np.conj(w[m]) * sms[m] + w[m] * sms[m].conj().T)
    # rho -> A rho B maps to kron(A, B.T) for row-major vec
    L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    Z = coupling.z
    for a in range(n):
        for b in range(n):
            ab = sms[a].conj().T @ sms[b]
            L -= Z[a, b] * np.kron(ab, eye)
            L -= np.conj(Z[a, b]) * np.kron(eye, ab.T)
            L += 2.0 * Z[a, b].real * np.kron(sms[a], sms[b])
    return L


def _reference_steady_state(matrix):
    """Eigenvector of the eigenvalue nearest zero, Hermitised and trace
    normalised: the reference route."""
    vals, vecs = np.linalg.eig(matrix)
    d = int(round(np.sqrt(matrix.shape[0])))
    rho = vecs[:, np.argmin(np.abs(vals))].reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho)


@dataclass(frozen=True)
class HermitianCoords:
    """Flat row-major indices of the real coordinates of a Hermitian d x d
    matrix: the coordinates are Re rho_kk, then Re rho_kl and Im rho_kl
    for k < l, with rho_lk = conj(rho_kl) implied."""

    diag: np.ndarray  # k * d + k
    upper: np.ndarray  # k * d + l, k < l, np.triu_indices order
    lower: np.ndarray  # l * d + k, paired with upper

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        """The Hermitian matrix of real coordinates x, conjugate symmetric
        by construction."""
        d = len(self.diag)
        m = len(self.upper)
        off = x[d : d + m] + 1j * x[d + m :]
        rho = np.empty(d * d, dtype=complex)
        rho[self.diag] = x[:d]
        rho[self.upper] = off
        rho[self.lower] = off.conj()
        return rho.reshape(d, d)


@functools.lru_cache(maxsize=8)
def hermitian_coords(d: int) -> HermitianCoords:
    """Coordinate tables for d x d Hermitian matrices, cached per d and
    read-only, since every caller shares them."""
    k, l = np.triu_indices(d, 1)
    tables = (np.arange(d) * (d + 1), k * d + l, l * d + k)
    for t in tables:
        t.setflags(write=False)
    return HermitianCoords(*tables)


def _bordered_reference(L):
    """Steady state from one dense real bordered solve: the generator
    restricted to Hermitian states in their d^2 real coordinates, with the
    (0, 0) population row replaced by the trace functional. The reference
    route for the level solve.

    A Hermitian rho maps to a Hermitian L rho, so the real parts of the
    diagonal and upper rows and the imaginary parts of the upper rows are
    all its equations; the columns of rho_kl and rho_lk = conj(rho_kl)
    combine into one column per real unknown.
    """
    d = int(round(np.sqrt(L.shape[0])))
    c = hermitian_coords(d)
    nr = d + len(c.upper)  # real parts: diagonal, then upper
    rows = np.concatenate([c.diag, c.upper])
    Lr, Li = L.real, L.imag
    A = np.empty((d * d, d * d))
    top, bottom = A[:nr], A[nr:]

    # Re (L rho)_r = Re L_rd x_d + Re(L_ru + L_rl) x_re - Im(L_ru - L_rl) x_im
    top[:, :nr] = Lr[np.ix_(rows, rows)]
    top[:, d:nr] += Lr[np.ix_(rows, c.lower)]
    top[:, nr:] = Li[np.ix_(rows, c.lower)]
    top[:, nr:] -= Li[np.ix_(rows, c.upper)]
    # Im (L rho)_r = Im L_rd x_d + Im(L_ru + L_rl) x_re + Re(L_ru - L_rl) x_im
    bottom[:, :nr] = Li[np.ix_(c.upper, rows)]
    bottom[:, d:nr] += Li[np.ix_(c.upper, c.lower)]
    bottom[:, nr:] = Lr[np.ix_(c.upper, c.upper)]
    bottom[:, nr:] -= Lr[np.ix_(c.upper, c.lower)]

    top[0] = 0.0
    top[0, :d] = 1.0
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    return c.to_matrix(np.linalg.solve(A, rhs))


def _random_liouvillian(n, seed, masked, delta, eta):
    """Random cloud; the masked beam lights a seeded random subset."""
    ens = random_ensemble(n, 2.0, seed, DIPOLE, min_distance=0.6)
    beam = BEAM
    if masked:
        rng = np.random.default_rng(seed)
        lit = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        beam = MaskedBeam(BEAM, frozenset(lit.tolist()))
    return build_liouvillian(coupling_matrix(ens), delta, beam.amplitudes(ens), eta)


# (n, masked, delta, eta): the full grid up to three atoms, a few corners
# at four and five, where the reference eigendecomposition costs 0.1 s and
# 3 s per point
REFERENCE_CASES = [
    (n, masked, delta, eta)
    for n in range(1, 4)
    for masked in (False, True)
    for delta in (0.0, 0.3)
    for eta in (0.01, 0.1, 0.7)
] + [(4, False, 0.0, 0.01), (4, True, 0.3, 0.7), (4, True, 0.0, 0.1), (5, True, 0.3, 0.1)]


@pytest.mark.parametrize("n, masked, delta, eta", REFERENCE_CASES)
def test_routes_match_references(n, masked, delta, eta):
    ens = random_ensemble(n, 2.0, 100 + n, DIPOLE, min_distance=0.6)
    beam = MaskedBeam(BEAM, frozenset(range(0, n, 2))) if masked else BEAM
    w = beam.amplitudes(ens)
    coupling = coupling_matrix(ens)
    liouv = build_liouvillian(coupling, delta, w, eta)
    ref = _reference_liouvillian(coupling, delta, w, eta)
    assert np.max(np.abs(liouv.matrix - ref)) <= 1e-14
    rho = steady_state_exact(liouv)
    assert np.max(np.abs(rho - _reference_steady_state(ref))) <= 1e-12


def test_level_route_builds_no_dense_generator(monkeypatch):
    # a non-degenerate five-atom state comes from the level solve alone;
    # the dense generator is only built afterwards, for the check
    ens, drive, coupling = _system(
        [[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0], [0.9, 1.2, 0.4], [0.2, 0.3, 1.5]], delta=0.3
    )
    liouv = build_liouvillian(coupling, drive.delta, drive.w(ens), drive.eta)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense generator built on a non-degenerate system")

    monkeypatch.setattr(exact, "_dense_generator", no_dense)
    rho = steady_state_exact(liouv)
    monkeypatch.undo()
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(liouv.matrix @ rho.reshape(-1))) <= 1e-12


def test_steady_state_is_exactly_hermitian():
    ens, drive, coupling = _system(
        [[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0], [0.9, 1.2, 0.4]], delta=0.3, eta=0.1
    )
    rho = steady_state_exact(build_liouvillian(coupling, drive.delta, drive.w(ens), drive.eta))
    assert np.array_equal(rho, rho.conj().T)
    assert np.max(np.abs(rho - np.triu(rho))) > 0.0


@pytest.mark.parametrize("d", [8, 32])
def test_hermitian_coords_round_trip(d):
    # the coordinate tables of the test-only bordered reference
    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A + A.conj().T
    c = hermitian_coords(d)
    flat = rho.reshape(-1)
    x = np.concatenate([flat[c.diag].real, flat[c.upper].real, flat[c.upper].imag])
    assert x.shape == (d * d,)
    assert np.array_equal(c.to_matrix(x), rho)
    with pytest.raises(ValueError):
        c.upper[0] = 0


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.005, max_value=1.0),
)
@example(5, 0, True, 0.3, 0.05)
@example(5, 5, False, 0.0, 1.0)
def test_level_route_matches_bordered_reference(n, seed, masked, delta, eta):
    liouv = _random_liouvillian(n, seed, masked, delta, eta)
    rho = steady_state_exact(liouv)
    assert np.max(np.abs(rho - _bordered_reference(liouv.matrix))) <= 1e-12


@pytest.mark.parametrize("eta", [2.0, 5.0])
def test_strong_drive_matches_bordered_reference(eta):
    # hundreds of GMRES iterations, against a handful at weak drive
    liouv = _random_liouvillian(4, 104, False, 0.3, eta)
    rho = steady_state_exact(liouv)
    assert np.max(np.abs(rho - _bordered_reference(liouv.matrix))) <= 1e-12


def test_gmres_nonconvergence_reports_residual(monkeypatch):
    monkeypatch.setattr(exact, "GMRES_MAXITER", 3)
    liouv = _random_liouvillian(3, 103, False, 0.3, 0.3)
    with pytest.raises(SolverConvergenceError) as exc:
        steady_state_exact(liouv)
    assert exc.value.iterations == 3
    assert 1e-10 < exc.value.residual < np.inf


def test_steady_state_memory():
    # traced peak of one five-atom solve: no d^2 x d^2 array (16 MB here,
    # and 24 MB more for the dense bordered solve) is allocated
    ens, drive, coupling = _system(
        [[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0], [0.9, 1.2, 0.4], [0.2, 0.3, 1.5]], eta=0.02
    )
    liouv = build_liouvillian(coupling, 0.0, drive.w(ens), drive.eta)
    tracemalloc.start()
    try:
        steady_state_exact(liouv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= 8.0


def test_steady_state_logs_route(caplog):
    ens, drive, coupling = _system([[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0]], delta=0.3)
    liouv = build_liouvillian(coupling, drive.delta, drive.w(ens), drive.eta)
    with caplog.at_level(logging.DEBUG, logger="weakdrive.exact"):
        steady_state_exact(liouv)
    (record,) = caplog.records
    assert record.name == "weakdrive.exact"
    message = record.getMessage()
    assert message.startswith("route levels; level dims [1, 3, 3, 1]; gmres iterations ")
    assert ", residual " in message and "; smallest denominator " in message
    caplog.clear()
    z = CouplingMatrix(np.full((2, 2), 0.5 + 0j))
    with caplog.at_level(logging.DEBUG, logger="weakdrive.exact"):
        with pytest.warns(UserWarning, match="degenerate"):
            steady_state_exact(build_liouvillian(z, 0.0, np.zeros(2, complex), 0.0))
    assert caplog.records[0].getMessage().startswith("route dense fallback (")


def _iterations(caplog):
    """GMRES iterations of each logged level solve, in call order."""
    return [
        int(r.getMessage().split("gmres iterations ")[1].split(",")[0])
        for r in caplog.records
        if r.getMessage().startswith("route levels")
    ]


def test_grid_independent_of_order_and_cache(monkeypatch, caplog):
    # four atoms at eta = 5 need 186 Krylov directions; with 180-vector
    # cycles that point restarts on a private basis and drops the shared one
    # that the weak points use, which later points build again
    monkeypatch.setattr(exact, "KRYLOV_ENTRIES", 180 * 2 * 4**4)
    monkeypatch.setattr(exact, "_last_system", {})
    # the shared and the private basis never hold more than
    # KRYLOV_ENTRIES float64 entries together
    live = weakref.WeakSet()
    column = exact._Arnoldi.column

    def checked(self, j, apply):
        live.add(self)
        out = column(self, j, apply)
        assert sum(basis.Q.size for basis in live) <= exact.KRYLOV_ENTRIES
        return out

    monkeypatch.setattr(exact._Arnoldi, "column", checked)
    etas = [0.01, 0.1, 5.0]

    def solve(eta, cold=False):
        if cold:
            exact._last_system.clear()
        return steady_state_exact(_random_liouvillian(4, 104, False, 0.3, eta))

    with caplog.at_level(logging.DEBUG, logger="weakdrive.exact"):
        ascending = [solve(eta) for eta in etas]
    assert _iterations(caplog)[2] > 180
    descending = [solve(eta) for eta in reversed(etas)][::-1]
    cold = [solve(eta, cold=True) for eta in etas]
    for a, b, c in zip(ascending, descending, cold):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    assert np.max(np.abs(ascending[2] - _bordered_reference(
        _random_liouvillian(4, 104, False, 0.3, 5.0).matrix))) <= 1e-12


@pytest.mark.parametrize("change", ["delta", "mask", "z"])
def test_cached_basis_never_stale(monkeypatch, change):
    # a call right after another system of the same size must equal the
    # cold-cache solve bit for bit
    monkeypatch.setattr(exact, "_last_system", {})
    ens = random_ensemble(4, 2.0, 11, DIPOLE, min_distance=0.6)
    coupling, delta, w = coupling_matrix(ens), 0.3, BEAM.amplitudes(ens)
    other = {
        "delta": (coupling, 0.0, w),
        "mask": (coupling, delta, MaskedBeam(BEAM, frozenset({0, 2})).amplitudes(ens)),
        "z": (coupling_matrix(random_ensemble(4, 2.0, 12, DIPOLE, min_distance=0.6)), delta, w),
    }[change]
    eta = 0.1
    steady_state_exact(build_liouvillian(coupling, delta, w, 0.05))
    warm = steady_state_exact(build_liouvillian(*other, eta))
    exact._last_system.clear()
    assert np.array_equal(warm, steady_state_exact(build_liouvillian(*other, eta)))


def test_grid_shares_one_factorisation_and_basis(monkeypatch, caplog):
    # the level system is factored once per (z, delta, w), and the Krylov
    # basis grows only as far as the slowest point needs: one operator
    # application per basis vector, one for b0 and one residual per point
    monkeypatch.setattr(exact, "_last_system", {})
    counts = {"factor": 0, "solve_undriven": 0}
    for name in counts:
        method = getattr(exact._LevelSystem, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(exact._LevelSystem, name, counted)
    etas = np.geomspace(0.01, 0.1, 4)
    with caplog.at_level(logging.DEBUG, logger="weakdrive.exact"):
        for eta in etas:
            steady_state_exact(_random_liouvillian(5, 3, False, 0.0, eta))
    iterations = _iterations(caplog)
    assert len(iterations) == len(etas)
    assert counts["factor"] == 1
    assert counts["solve_undriven"] <= max(iterations) + 2 * len(etas) + 1


def test_lowering_ops_read_only():
    ops = lowering_ops(3)
    assert ops.shape == (3, 8, 8)
    with pytest.raises(ValueError):
        ops[0, 0, 1] = 1.0


def test_ground_state_stationary_without_drive():
    ens, drive, coupling = _system([[0, 0, 0]], eta=0.0)
    liouv = build_liouvillian(coupling, 0.0, drive.w(ens), 0.0)
    rho = steady_state_exact(liouv)
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(rho[1, 1]) <= 1e-12


def test_trace_preservation():
    ens, drive, coupling = _system([[0, 0, 0], [1.4, 0.2, 0]], delta=0.3, eta=0.2)
    liouv = build_liouvillian(coupling, drive.delta, drive.w(ens), drive.eta)
    identity_vec = np.eye(4, dtype=complex).reshape(-1)
    assert np.max(np.abs(liouv.matrix.conj().T @ identity_vec)) <= 1e-10


def test_generates_positive_evolution():
    ens, drive, coupling = _system([[0, 0, 0], [0.9, 0, 0]], delta=0.1, eta=0.3)
    liouv = build_liouvillian(coupling, drive.delta, drive.w(ens), drive.eta)
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = A @ A.conj().T
    rho0 /= np.trace(rho0)
    for t in (0.3, 1.7):
        prop = sla.expm(liouv.matrix * t)
        rho_t = (prop @ rho0.reshape(-1)).reshape(4, 4)
        assert np.linalg.eigvalsh(0.5 * (rho_t + rho_t.conj().T)).min() >= -1e-8


def test_decoupled_pair_factorises():
    z = CouplingMatrix(np.diag([0.5 + 0j, 0.5 + 0j]))
    w = np.array([np.exp(0.3j), np.exp(-0.8j)])
    rho = steady_state_exact(build_liouvillian(z, 0.2, w, 0.15))
    product = dilute_product_state(w, 0.2, 0.15).full()
    assert np.max(np.abs(rho - product)) <= 1e-10


@pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_single_atom_nonperturbative(eta, delta):
    z = CouplingMatrix(np.array([[0.5 + 0j]]))
    w = np.array([np.exp(0.4j)])
    rho = steady_state_exact(build_liouvillian(z, delta, w, eta))
    ref = dilute_product_state(w, delta, eta).single(0)
    assert np.max(np.abs(rho - ref)) <= 1e-12


def test_zero_drive_many_atoms():
    ens, drive, coupling = _system([[0, 0, 0], [1.3, 0, 0], [0, 1.7, 0]], eta=0.0)
    rho = steady_state_exact(build_liouvillian(coupling, 0.0, drive.w(ens), 0.0))
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho - expected)) <= 1e-10


def test_pair_state_matches_perturbative():
    ens, drive, coupling = _system([[0, 0, 0], [1.0, 0, 0]], eta=0.01)
    state = steady_state(coupling, drive, ens)
    rho = steady_state_exact(build_liouvillian(coupling, 0.0, drive.w(ens), drive.eta))
    truncated = assemble_state(state)
    mapping = [0, 2, 1, 3]
    target = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            target[mapping[a], mapping[b]] = truncated[a, b]
    assert np.max(np.abs(rho - target)) <= 10.0 * drive.eta**3


def test_exact_negativity_reference_states():
    # product state
    w = np.array([np.exp(0.2j), np.exp(-0.5j)])
    rho = dilute_product_state(w, 0.1, 0.2).full()
    neg, _ = negativity_exact(rho, [1], 2)
    assert neg <= 1e-12
    # two-qubit maximally entangled state
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    neg, _ = negativity_exact(np.outer(bell, bell.conj()), [1], 2)
    assert neg == pytest.approx(0.5, abs=1e-12)


def test_exact_negativity_threshold_scan():
    # negativity positive at weak drive, gone above the closing amplitude
    ens, _, coupling = _system([[0, 0, 0], [6.0, 0, 0]])
    w = BEAM.amplitudes(ens)
    state = steady_state(coupling, Drive(delta=0.0, eta=0.01, beam=BEAM), ens)
    lam2 = abs(state.v[0])
    eta_est = np.sqrt(lam2 / 16.0)
    def exact_neg(eta):
        rho = steady_state_exact(build_liouvillian(coupling, 0.0, w, eta))
        return negativity_exact(rho, [1], 2)[0]

    assert exact_neg(0.3 * eta_est) > 0.0
    assert exact_neg(4.0 * eta_est) <= 1e-14
    # the sign change lies within a factor 2 of the model estimate
    lo, hi = 0.3 * eta_est, 4.0 * eta_est
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if exact_neg(mid) > 1e-16:
            lo = mid
        else:
            hi = mid
    assert 0.5 * eta_est <= lo <= 2.0 * eta_est


def test_five_atoms_at_the_cap():
    # largest system with a dense reference: physical state, and the perturbative
    # negativity gap still shrinks under halving at its truncation order,
    # eta^4 for a lit pair and down to eta^3 from three atoms on (8x-16x)
    ens, _, coupling = _system(
        [[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0], [0.9, 1.2, 0.4], [0.2, 0.3, 1.5]]
    )
    gaps = []
    for eta in (0.02, 0.01):
        drive = Drive(delta=0.0, eta=eta, beam=BEAM)
        rho = steady_state_exact(
            build_liouvillian(coupling, 0.0, drive.w(ens), drive.eta)
        )
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        state = steady_state(coupling, drive, ens)
        n_exact, _ = negativity_exact(rho, [2, 3, 4], 5)
        n_pt, _ = pt_negativity(build_pt_matrix(state, Partition((0, 1), (2, 3, 4))))
        gaps.append(abs(n_exact - n_pt))
    assert 8.0 <= gaps[0] / gaps[1] <= 32.0


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.01, max_value=0.04),
)
def test_oracle_negativity_gap_halving(n, seed, eta):
    # random geometry, A/B split and lit subset: the perturbative negativity
    # misses the exact one by O(eta^4) for a pair and by terms down to
    # O(eta^3) from three atoms on, so halving eta shrinks the gap 8x to 16x;
    # the window is that of the validate check oracle_negativity_scaling
    rng = np.random.default_rng(seed)
    ens = random_ensemble(n, 2.0, seed, DIPOLE, min_distance=0.6)
    order = rng.permutation(n)
    n_a = int(rng.integers(1, n))
    part = Partition(tuple(order[:n_a]), tuple(order[n_a:]))
    lit = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    beam = MaskedBeam(BEAM, frozenset(lit.tolist()))
    coupling = coupling_matrix(ens)
    gaps = []
    for e in (eta, eta / 2):
        drive = Drive(delta=0.0, eta=e, beam=beam)
        rho = steady_state_exact(build_liouvillian(coupling, 0.0, drive.w(ens), e))
        n_exact, _ = negativity_exact(rho, part.group_b, n)
        n_pt, _ = pt_negativity(build_pt_matrix(steady_state(coupling, drive, ens), part))
        gaps.append(abs(n_exact - n_pt))
    assert 8.0 <= gaps[0] / gaps[1] <= 32.0


def test_cap_enforced():
    pos = [[float(i), 0.0, 0.0] for i in range(N_CAP + 1)]
    ens, drive, coupling = _system(pos)
    with pytest.raises(CapExceededError):
        build_liouvillian(coupling, 0.0, drive.w(ens), 0.05)
    # the dense generator stops at DENSE_CAP atoms
    m = DENSE_CAP + 1
    liouv = build_liouvillian(CouplingMatrix(coupling.z[:m, :m]), 0.0, drive.w(ens)[:m], 0.05)
    with pytest.raises(CapExceededError):
        liouv.matrix


def _operator_residual(coupling, delta, w, eta, rho):
    """max |L rho| from d x d operator products, independent of the level
    solve's index gathers."""
    n = coupling.n
    s = lowering_ops(n)
    Z = coupling.z
    drive_op = np.tensordot(w.conj(), s, axes=1)
    # sum_a s_a^T M_a as one matrix product over (a, j)
    H = -delta * np.tensordot(s, s, axes=([0, 1], [0, 1])) - eta * (drive_op + drive_op.T.conj())
    D = np.tensordot(s, np.tensordot(Z, s, axes=1), axes=([0, 1], [0, 1]))
    out = (-1j * H - D) @ rho + rho @ (1j * H - D.conj())
    jump = np.tensordot(2.0 * Z.real, s, axes=1)
    out += sum(s[a] @ rho @ jump[a].T for a in range(n))
    return np.max(np.abs(out))


def test_above_dense_cap_residual_by_operator_products():
    # seven atoms have no dense generator; the residual is taken from d x d
    # operator products
    n = 7
    ens = random_ensemble(n, 2.0, 107, DIPOLE, min_distance=0.6)
    coupling = coupling_matrix(ens)
    w = BEAM.amplitudes(ens)
    delta, eta = 0.3, 0.1
    rho = steady_state_exact(build_liouvillian(coupling, delta, w, eta))
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    assert _operator_residual(coupling, delta, w, eta, rho) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_oracle_compare_four_plus_four():
    # N_CAP atoms: three weak points share one factorisation and Krylov
    # basis, each state is physical, and the perturbative gap closes by
    # eta^3 to eta^4 under each halving
    positions = [[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0], [0.9, 1.2, 0.4],
                 [0.2, 0.3, 1.5], [1.4, 0.8, 1.1], [2.0, 0.1, 0.6], [0.6, 2.1, 1.0]]
    assert len(positions) == N_CAP
    cfg = parse_config({
        "geometry": {"mode": "explicit", "positions": positions},
        "dipole": [0, 0, 1],
        "beam": {"direction": [0, 1, 0]},
        "delta": 0.3,
        "partition": {"A": [0, 1, 2, 3], "B": [4, 5, 6, 7]},
        "eta_sweep": {"min": 0.0025, "max": 0.01, "points": 3, "log": True},
    }, "oracle-compare")
    bundle = run_oracle_compare(cfg)
    assert bundle.report["point_errors"] == []
    rows = bundle.tables["oracle"][1]
    assert [r[0] for r in rows] == pytest.approx([0.0025, 0.005, 0.01], rel=1e-12)
    for eta, n_exact, n_pt, err in rows:
        assert n_exact > 0.0 and err <= 1e-2 * n_exact
    assert 8.0 <= rows[1][3] / rows[0][3] <= 32.0
    assert 8.0 <= rows[2][3] / rows[1][3] <= 32.0
    ens, _, coupling = _system(positions)
    w = BEAM.amplitudes(ens)
    rho = steady_state_exact(build_liouvillian(coupling, 0.3, w, 0.01))
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    assert _operator_residual(coupling, 0.3, w, 0.01, rho) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_degenerate_above_dense_cap_raises():
    # one collective decay channel keeps dark states; past DENSE_CAP there
    # is no eigendecomposition to fall back on
    n = DENSE_CAP + 1
    z = CouplingMatrix(np.full((n, n), 0.5 + 0j))
    with pytest.raises(ResonantSingularityError):
        steady_state_exact(build_liouvillian(z, 0.0, np.zeros(n, complex), 0.0))


def test_degenerate_null_space_warns():
    # perfectly subradiant synthetic coupling leaves a dark steady state
    z = CouplingMatrix(np.full((2, 2), 0.5 + 0j))
    with pytest.warns(UserWarning, match="degenerate"):
        steady_state_exact(build_liouvillian(z, 0.0, np.zeros(2, complex), 0.0))


def test_degenerate_three_atom_null_space_takes_fallback(monkeypatch):
    # three atoms under one collective decay channel keep several dark
    # states: a Sylvester denominator of the level solve vanishes, so the
    # guard hands over to the eigendecomposition, which warns
    calls = []
    eig = np.linalg.eig

    def counted_eig(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    z = CouplingMatrix(np.full((3, 3), 0.5 + 0j))
    liouv = build_liouvillian(z, 0.0, np.zeros(3, complex), 0.0)
    with pytest.warns(UserWarning, match="degenerate"):
        rho = steady_state_exact(liouv)
    assert calls.count((64, 64)) == 1
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(rho, rho.conj().T)


@pytest.mark.filterwarnings("ignore:degenerate steady-state manifold")
@pytest.mark.parametrize("eta", [0.01, 0.02, 0.1])
@pytest.mark.parametrize("k0r", [1e-4, 1e-5, 1e-6])
def test_near_coincident_pair_is_gated_or_refused(monkeypatch, k0r, eta):
    # two resonant atoms k0 r apart under a uniform drive trip a level
    # guard, and the dense fallback takes over: its state passes the
    # residual gate or the guard's ResonantSingularityError is raised, as
    # the amplitude solve raises it, never a SolverConvergenceError
    calls = []
    fallback = exact._dense_fallback
    monkeypatch.setattr(exact, "_dense_fallback", lambda liouv: calls.append(1) or fallback(liouv))
    ens, drive, coupling = _system([[0, 0, 0], [k0r, 0, 0]], eta=eta)
    w = drive.w(ens)
    assert np.array_equal(w, np.ones(2))
    with pytest.raises(ResonantSingularityError):
        steady_state(coupling, drive, ens)
    try:
        rho = steady_state_exact(build_liouvillian(coupling, 0.0, w, eta))
    except ResonantSingularityError:
        rho = None
    assert calls == [1]
    if rho is not None:
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
        assert _operator_residual(coupling, 0.0, w, eta, rho) <= exact.NULL_TOL


def test_reduce_state_product():
    w = np.array([np.exp(0.2j), np.exp(-0.5j), np.exp(0.9j)])
    dps = dilute_product_state(w, 0.0, 0.3)
    rho = dps.full()
    reduced = reduce_state(rho, [0, 2], 3)
    assert np.max(np.abs(reduced - np.kron(dps.single(0), dps.single(2)))) <= 1e-14


def test_propagate_zero_drive_stays_ground():
    ens, drive, coupling = _system([[0, 0, 0], [1.0, 0, 0]], eta=0.0)
    state = propagate_truncated(coupling, 0.0, drive.w(ens), 0.0, t_final=5.0)
    assert np.max(np.abs(state.u)) == 0.0
    assert np.max(np.abs(state.v)) == 0.0


def test_propagate_fixed_point_residual():
    ens, drive, coupling = _system([[0, 0, 0], [0.8, 0.5, 0]], delta=0.2)
    ref = steady_state(coupling, drive, ens)
    I, J = pair_arrays(2)
    amps = np.concatenate(
        [[1.0], drive.eta * ref.u, drive.eta**2 * (ref.u[I] * ref.u[J] + ref.v)]
    )
    drift = amplitude_drift(coupling, drive.delta, ref.w, drive.eta, amps)
    assert np.max(np.abs(drift)) <= 1e-10


def test_product_state_invariants():
    # populations stay under one half at any drive; single-atom matrices
    # are unit-trace and positive
    w = np.array([np.exp(0.3j), 0.0])
    for eta in (0.01, 0.5, 3.0, 50.0):
        dps = dilute_product_state(w, 0.2, eta)
        assert np.all(dps.populations >= 0.0)
        assert np.all(dps.populations < 0.5)
        for mu in range(2):
            single = dps.single(mu)
            assert np.trace(single) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.eigvalsh(single).min() >= -1e-14
    # dark atom stays in the ground state
    assert dps.populations[1] == 0.0
    assert dps.coherences[1] == 0.0


def test_propagate_step_floor():
    ens, drive, coupling = _system([[0, 0, 0], [1.0, 0, 0]])
    with pytest.raises(PropagationError):
        propagate_truncated(
            coupling, drive.delta, drive.w(ens), drive.eta,
            t_final=5.0, dt=0.5, tol=1e-14, dt_min=0.05,
        )


def test_propagate_reaches_solver_fixed_point():
    # transverse drive keeps the slow antisymmetric mode dark, so the
    # amplitudes relax within twenty decay times
    ens, drive, coupling = _system([[0, 0, 0], [0.5, 0, 0]], eta=0.01)
    ref = steady_state(coupling, drive, ens)
    prop = propagate_truncated(coupling, 0.0, ref.w, drive.eta, t_final=20.0, dt=0.05, tol=1e-12)
    assert np.max(np.abs(prop.u - ref.u)) <= 1e-8
    assert np.max(np.abs(prop.v - ref.v)) <= 1e-8
