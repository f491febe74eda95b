import functools
import logging
import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

from weakdrive import exact, perturbation
from weakdrive.basis import pair_arrays
from weakdrive.config import parse_config
from weakdrive.coupling import coupling_matrix
from weakdrive.errors import (
    CapExceededError,
    PropagationError,
    ResonantSingularityError,
    SolverConvergenceError,
)
from weakdrive.exact import (
    N_CAP,
    amplitude_drift,
    build_liouvillian,
    dilute_product_state,
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


def _lowering_ops(n):
    """Per-atom lowering operators |g><e| on the 2^n product space as
    Kronecker products of single-atom operators, stacked as a real
    (n, 2^n, 2^n) array, atom 0 the leading factor."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])
    ops = []
    for m in range(n):
        op = np.ones((1, 1))
        for k in range(n):
            op = np.kron(op, sm if k == m else np.eye(2))
        ops.append(op)
    return np.array(ops)


def _reference_liouvillian(coupling, delta, w, eta):
    """Generator assembled from Kronecker products of the single-atom
    operators: the reference route. H and D = sum_ab z_ab s_a^dag s_b are
    summed as d x d operators first, and the jump is one product per atom."""
    n = len(coupling)
    d = 2**n
    sms = _lowering_ops(n)
    eye = np.eye(d, dtype=complex)
    H = np.zeros((d, d), dtype=complex)
    D = np.zeros((d, d), dtype=complex)
    for a in range(n):
        H += -delta * sms[a].T @ sms[a] - eta * (np.conj(w[a]) * sms[a] + w[a] * sms[a].T)
        for b in range(n):
            D += coupling[a, b] * sms[a].T @ sms[b]
    # rho -> A rho B maps to kron(A, B.T) for row-major vec
    L = np.kron(-1j * H - D, eye) + np.kron(eye, (1j * H - D.conj()).T)
    jump = np.tensordot(2.0 * coupling.real, sms, axes=1)
    for a in range(n):
        L += np.kron(sms[a], jump[a])
    return L


def _reference_of(liouv, eta):
    """The Kronecker reference generator of liouv at drive strength eta."""
    return _reference_liouvillian(liouv.coupling, liouv.delta, liouv.w, eta)


def _generator_apply(liouv, rho, eta):
    """L rho of a Hermitian rho on the natural basis, by the level system's
    operator form."""
    t = liouv._levels.t
    return liouv._levels.apply(rho[np.ix_(t.order, t.order)], eta)[np.ix_(t.pos, t.pos)]


def _random_hermitian(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return A + A.conj().T


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


def _random_liouvillian(n, seed, masked, delta):
    """Random cloud; the masked beam lights a seeded random subset."""
    ens = random_ensemble(n, 2.0, seed, DIPOLE, min_distance=0.6)
    beam = BEAM
    if masked:
        rng = np.random.default_rng(seed)
        lit = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        beam = MaskedBeam(BEAM, frozenset(lit.tolist()))
    return build_liouvillian(coupling_matrix(ens), delta, beam.amplitudes(ens))


# (n, masked, delta, eta): the full grid up to three atoms, a few corners
# at four and five, where the dense bordered reference solves a 256- and a
# 1024-dimensional real system
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
    liouv = build_liouvillian(coupling, delta, w)
    ref = _reference_liouvillian(coupling, delta, w, eta)
    # the operator form is the Kronecker generator: L is complex linear and
    # Hermitian inputs span all matrices, so random ones test every entry
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = _random_hermitian(rng, liouv.dim)
        Lx = (ref @ x.reshape(-1)).reshape(x.shape)
        assert np.max(np.abs(_generator_apply(liouv, x, eta) - Lx)) <= 1e-14 * np.max(np.abs(x))
    rho = steady_state_exact(liouv, eta)
    assert np.max(np.abs(rho - _bordered_reference(ref))) <= 1e-12


def test_steady_state_is_exactly_hermitian():
    ens, drive, coupling = _system(
        [[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0], [0.9, 1.2, 0.4]], delta=0.3, eta=0.1
    )
    rho = steady_state_exact(build_liouvillian(coupling, drive.delta, drive.w(ens)), drive.eta)
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
    liouv = _random_liouvillian(n, seed, masked, delta)
    rho = steady_state_exact(liouv, eta)
    assert np.max(np.abs(rho - _bordered_reference(_reference_of(liouv, eta)))) <= 1e-12
    assert _operator_residual(liouv.coupling, liouv.delta, liouv.w, eta, rho) <= 1e-12


@pytest.mark.parametrize("eta", [2.0, 5.0])
def test_strong_drive_matches_bordered_reference(eta):
    # hundreds of GMRES iterations, against a handful at weak drive
    liouv = _random_liouvillian(4, 104, False, 0.3)
    rho = steady_state_exact(liouv, eta)
    assert np.max(np.abs(rho - _bordered_reference(_reference_of(liouv, eta)))) <= 1e-12
    assert _operator_residual(liouv.coupling, liouv.delta, liouv.w, eta, rho) <= 1e-12


def test_gmres_nonconvergence_reports_residual(monkeypatch):
    monkeypatch.setattr(exact, "GMRES_MAXITER", 3)
    liouv = _random_liouvillian(3, 103, False, 0.3)
    with pytest.raises(SolverConvergenceError) as exc:
        steady_state_exact(liouv, 0.3)
    assert exc.value.iterations == 3
    assert 1e-10 < exc.value.residual < np.inf
    assert str(exc.value) == (
        f"residual {exc.value.residual:.3e} above target after 3 GMRES iterations"
    )


def test_steady_state_memory():
    # traced peak of one five-atom solve: no d^2 x d^2 array (16 MB here,
    # and 24 MB more for the dense bordered solve) is allocated
    ens, drive, coupling = _system(
        [[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0], [0.9, 1.2, 0.4], [0.2, 0.3, 1.5]], eta=0.02
    )
    liouv = build_liouvillian(coupling, 0.0, drive.w(ens))
    tracemalloc.start()
    try:
        steady_state_exact(liouv, drive.eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= 8.0


def test_steady_state_logs_route(caplog):
    ens, drive, coupling = _system([[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0]], delta=0.3)
    liouv = build_liouvillian(coupling, drive.delta, drive.w(ens))
    with caplog.at_level(logging.DEBUG, logger="weakdrive.exact"):
        steady_state_exact(liouv, drive.eta)
    (record,) = caplog.records
    assert record.name == "weakdrive.exact"
    message = record.getMessage()
    assert message.startswith("route levels; level dims [1, 3, 3, 1]; gmres iterations ")
    assert ", residual " in message and "; smallest denominator " in message


def test_level_solve_reads_the_shared_eigenbasis_guard(monkeypatch):
    # the level eigenbases pass the gate of perturbation.eigenbasis, which
    # reads EIG_COND_GUARD at call time: a guard of 0 refuses every level
    ens, drive, coupling = _system([[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0]], delta=0.3)
    steady_state_exact(build_liouvillian(coupling, drive.delta, drive.w(ens)), drive.eta)
    monkeypatch.setattr(perturbation, "EIG_COND_GUARD", 0.0)
    with pytest.raises(ResonantSingularityError):
        steady_state_exact(build_liouvillian(coupling, drive.delta, drive.w(ens)), drive.eta)


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
    # one generator for both warm passes; a cold point has a fresh one
    liouv = _random_liouvillian(4, 104, False, 0.3)
    with caplog.at_level(logging.DEBUG, logger="weakdrive.exact"):
        ascending = [steady_state_exact(liouv, eta) for eta in etas]
    assert _iterations(caplog)[2] > 180
    descending = [steady_state_exact(liouv, eta) for eta in reversed(etas)][::-1]
    # its kept basis would count against the cold points' budget
    del liouv
    cold = [steady_state_exact(_random_liouvillian(4, 104, False, 0.3), eta) for eta in etas]
    for a, b, c in zip(ascending, descending, cold):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    fresh = _random_liouvillian(4, 104, False, 0.3)
    assert np.max(np.abs(ascending[2] - _bordered_reference(_reference_of(fresh, 5.0)))) <= 1e-12
    assert _operator_residual(fresh.coupling, fresh.delta, fresh.w, 5.0, ascending[2]) <= 1e-12


def _count_calls(monkeypatch, names):
    """Calls of the named _LevelSystem methods, counted from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(exact._LevelSystem, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(exact._LevelSystem, name, counted)
    return counts


def test_grid_shares_one_factorisation_and_basis(monkeypatch, caplog):
    # one Liouvillian is factored once, and the Krylov basis grows only as
    # far as the slowest point needs: one operator application per basis
    # vector, one for b0 and one residual per point
    counts = _count_calls(monkeypatch, ["factor", "solve_undriven"])
    liouv = _random_liouvillian(5, 3, False, 0.0)
    etas = np.geomspace(0.01, 0.1, 4)
    with caplog.at_level(logging.DEBUG, logger="weakdrive.exact"):
        for eta in etas:
            steady_state_exact(liouv, eta)
    iterations = _iterations(caplog)
    assert len(iterations) == len(etas)
    assert counts["factor"] == 1
    assert counts["solve_undriven"] <= max(iterations) + 2 * len(etas) + 1


def test_oracle_compare_reports_a_refused_factorisation_per_point(monkeypatch):
    # a refused level eigenbasis: each drive strength of the grid records
    # the ResonantSingularityError as a point error, while the amplitude
    # solve, which keeps its own eigenbasis, goes on
    def refuse(A, delta):
        raise ResonantSingularityError(delta, np.inf)

    monkeypatch.setattr(exact, "eigenbasis", refuse)
    cfg = parse_config({
        "geometry": {"mode": "explicit", "positions": [[0, 0, 0], [1.1, 0, 0], [0, 1.3, 0]]},
        "dipole": [0, 0, 1],
        "beam": {"direction": [0, 1, 0]},
        "delta": 0.3,
        "partition": {"A": [0], "B": [1, 2]},
        "eta_sweep": {"min": 0.01, "max": 0.1, "points": 4, "log": True},
    }, "oracle-compare")
    bundle = run_oracle_compare(cfg)
    errors = bundle.report["point_errors"]
    assert [e["eta"] for e in errors] == pytest.approx(np.geomspace(0.01, 0.1, 4), rel=1e-12)
    assert all(e["error"].startswith("linear system ill-conditioned at detuning delta=0.3 ")
               for e in errors)
    assert all(len(column) == 0 for column in bundle.tables["oracle"].values())


def test_level_system_freed_with_its_liouvillian():
    # the factors and the Krylov basis live on the generator, not in module
    # state: dropping the last reference frees both, without a collection
    liouv = _random_liouvillian(5, 3, False, 0.3)
    steady_state_exact(liouv, 0.05)
    system = weakref.ref(liouv._levels)
    basis = weakref.ref(liouv._levels.krylov)
    assert system() is not None and basis() is not None
    del liouv
    assert system() is None and basis() is None


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (4, 2), (4, 3), (5, 4), (5, 5)])
def test_kept_krylov_basis_is_an_arnoldi_basis_of_K(n, seed):
    # after the oracle grid the kept basis Q and Hessenberg columns H satisfy
    # K Q[:m] = Q[:m + 1] Hbar, so b0 and the series -K rho_k of the
    # expansion in eta can be read off Q without applying K again
    liouv = _random_liouvillian(n, seed, False, 0.3)
    for eta in np.geomspace(0.01, 0.1, 4).tolist():
        steady_state_exact(liouv, eta)
    system = liouv._levels
    b = system.krylov
    m = len(b.H)
    # rows of Q past the grown ones are uninitialised
    assert 6 <= m < b.size and len(b.Q) > m
    Q = b.Q[: m + 1]
    Hbar = np.zeros((m + 1, m))
    for j, (h, hn) in enumerate(b.H):
        Hbar[: j + 1, j] = h
        Hbar[j + 1, j] = hn
    for j in range(m):
        Kq = system.operator(Q[j].copy())
        assert np.linalg.norm(Kq - Hbar[:, j] @ Q) <= 1e-13 * np.linalg.norm(Kq)
    assert np.abs(Q @ Q.T - np.eye(m + 1)).max() <= 1e-13
    rho = system.b0
    c = np.zeros(m + 1)
    c[0] = np.linalg.norm(rho)
    for _ in range(5):
        assert np.linalg.norm(c @ Q - rho) <= 1e-13 * np.linalg.norm(rho)
        rho = -system.operator(rho.copy())
        c = -Hbar @ c[:m]
    assert np.linalg.norm(c @ Q - rho) <= 1e-13 * np.linalg.norm(rho)


def test_liouvillian_keeps_its_own_coupling():
    ens, drive, coupling = _system([[0, 0, 0], [1.4, 0.2, 0], [0, 1.1, 0.3]], delta=0.2)
    z = coupling.copy()
    liouv = build_liouvillian(z, drive.delta, drive.w(ens))
    z[0, 1] = z[1, 0] = 7.0
    assert np.array_equal(liouv.coupling, coupling) and not liouv.coupling.flags.writeable
    fresh = build_liouvillian(coupling, drive.delta, drive.w(ens))
    x = _random_hermitian(np.random.default_rng(0), liouv.dim)
    assert np.array_equal(_generator_apply(liouv, x, drive.eta),
                          _generator_apply(fresh, x, drive.eta))
    assert np.array_equal(steady_state_exact(liouv, drive.eta),
                          steady_state_exact(fresh, drive.eta))


def test_ground_state_stationary_without_drive():
    ens, drive, coupling = _system([[0, 0, 0]], eta=0.0)
    liouv = build_liouvillian(coupling, 0.0, drive.w(ens))
    rho = steady_state_exact(liouv, 0.0)
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(rho[1, 1]) <= 1e-12


def test_trace_preservation():
    ens, drive, coupling = _system([[0, 0, 0], [1.4, 0.2, 0]], delta=0.3, eta=0.2)
    liouv = build_liouvillian(coupling, drive.delta, drive.w(ens))
    # tr(L rho) = 0 on every real coordinate direction of a Hermitian rho
    coords = hermitian_coords(liouv.dim)
    for x in np.eye(liouv.dim**2):
        assert abs(np.trace(_generator_apply(liouv, coords.to_matrix(x), drive.eta))) <= 1e-10


def test_generates_positive_evolution():
    ens, drive, coupling = _system([[0, 0, 0], [0.9, 0, 0]], delta=0.1, eta=0.3)
    liouv = build_liouvillian(coupling, drive.delta, drive.w(ens))
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = A @ A.conj().T
    rho0 /= np.trace(rho0)
    for t in (0.3, 1.7):
        prop = sla.expm(_reference_of(liouv, drive.eta) * t)
        rho_t = (prop @ rho0.reshape(-1)).reshape(4, 4)
        assert np.linalg.eigvalsh(0.5 * (rho_t + rho_t.conj().T)).min() >= -1e-8


def test_decoupled_pair_factorises():
    z = np.diag([0.5 + 0j, 0.5 + 0j])
    w = np.array([np.exp(0.3j), np.exp(-0.8j)])
    rho = steady_state_exact(build_liouvillian(z, 0.2, w), 0.15)
    product = dilute_product_state(w, 0.2, 0.15).full()
    assert np.max(np.abs(rho - product)) <= 1e-10


@pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_single_atom_nonperturbative(eta, delta):
    z = np.array([[0.5 + 0j]])
    w = np.array([np.exp(0.4j)])
    rho = steady_state_exact(build_liouvillian(z, delta, w), eta)
    ref = dilute_product_state(w, delta, eta).single(0)
    assert np.max(np.abs(rho - ref)) <= 1e-12


def test_zero_drive_many_atoms():
    ens, drive, coupling = _system([[0, 0, 0], [1.3, 0, 0], [0, 1.7, 0]], eta=0.0)
    rho = steady_state_exact(build_liouvillian(coupling, 0.0, drive.w(ens)), 0.0)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho - expected)) <= 1e-10


def test_pair_state_matches_perturbative():
    ens, drive, coupling = _system([[0, 0, 0], [1.0, 0, 0]], eta=0.01)
    state = steady_state(coupling, drive, ens)
    rho = steady_state_exact(build_liouvillian(coupling, 0.0, drive.w(ens)), drive.eta)
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
    # the bisection solves every drive strength on one generator
    liouv = build_liouvillian(coupling, 0.0, w)

    def exact_neg(eta):
        rho = steady_state_exact(liouv, eta)
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
    liouv = build_liouvillian(coupling, 0.0, BEAM.amplitudes(ens))
    gaps = []
    for eta in (0.02, 0.01):
        drive = Drive(delta=0.0, eta=eta, beam=BEAM)
        rho = steady_state_exact(liouv, drive.eta)
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
        rho = steady_state_exact(build_liouvillian(coupling, 0.0, drive.w(ens)), e)
        n_exact, _ = negativity_exact(rho, part.group_b, n)
        n_pt, _ = pt_negativity(build_pt_matrix(steady_state(coupling, drive, ens), part))
        gaps.append(abs(n_exact - n_pt))
    assert 8.0 <= gaps[0] / gaps[1] <= 32.0


def test_cap_enforced():
    pos = [[float(i), 0.0, 0.0] for i in range(N_CAP + 1)]
    ens, drive, coupling = _system(pos)
    with pytest.raises(CapExceededError):
        build_liouvillian(coupling, 0.0, drive.w(ens))


def test_direct_liouvillian_enforces_the_cap():
    # the constructor itself refuses, before any level system is gathered
    n = N_CAP + 1
    with pytest.raises(CapExceededError):
        exact.Liouvillian(coupling=0.5 * np.eye(n), delta=0.0, w=np.ones(n))


def _operator_residual(coupling, delta, w, eta, rho):
    """max |L rho| from d x d operator products, independent of the level
    solve's index gathers."""
    n = len(coupling)
    s = _lowering_ops(n)
    Z = coupling
    drive_op = np.tensordot(w.conj(), s, axes=1)
    # sum_a s_a^T M_a as one matrix product over (a, j)
    H = -delta * np.tensordot(s, s, axes=([0, 1], [0, 1])) - eta * (drive_op + drive_op.T.conj())
    D = np.tensordot(s, np.tensordot(Z, s, axes=1), axes=([0, 1], [0, 1]))
    out = (-1j * H - D) @ rho + rho @ (1j * H - D.conj())
    jump = np.tensordot(2.0 * Z.real, s, axes=1)
    out += sum(s[a] @ rho @ jump[a].T for a in range(n))
    return np.max(np.abs(out))


def test_seven_atom_state_is_physical_by_operator_products():
    # seven atoms are past the dense references here (their generator has
    # 2^14 rows); the residual is taken from d x d operator products
    n = 7
    ens = random_ensemble(n, 2.0, 107, DIPOLE, min_distance=0.6)
    coupling = coupling_matrix(ens)
    w = BEAM.amplitudes(ens)
    delta, eta = 0.3, 0.1
    rho = steady_state_exact(build_liouvillian(coupling, delta, w), eta)
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
    columns = bundle.tables["oracle"]
    assert columns["eta"] == pytest.approx([0.0025, 0.005, 0.01], rel=1e-12)
    n_exact, err = columns["N_exact"], columns["abs_error"]
    assert np.all(n_exact > 0.0) and np.all(err <= 1e-2 * n_exact)
    assert 8.0 <= err[1] / err[0] <= 32.0
    assert 8.0 <= err[2] / err[1] <= 32.0
    ens, _, coupling = _system(positions)
    w = BEAM.amplitudes(ens)
    rho = steady_state_exact(build_liouvillian(coupling, 0.3, w), 0.01)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    assert _operator_residual(coupling, 0.3, w, 0.01, rho) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


@pytest.mark.parametrize("n", [2, 3, 6])
def test_collective_channel_raises(n):
    # one collective decay channel keeps dark states: a Sylvester
    # denominator of the level solve vanishes at every n
    z = np.full((n, n), 0.5 + 0j)
    with pytest.raises(ResonantSingularityError):
        steady_state_exact(build_liouvillian(z, 0.0, np.zeros(n, complex)), 0.0)


@pytest.mark.parametrize("eta", [0.01, 0.02, 0.1])
@pytest.mark.parametrize("k0r", [1e-4, 1e-5, 1e-6])
def test_near_coincident_pair_refused_by_both_solves(k0r, eta):
    # two resonant atoms k0 r apart under a uniform drive trip a level
    # guard: the exact solve raises ResonantSingularityError, as the
    # amplitude solve does, never a SolverConvergenceError
    ens, drive, coupling = _system([[0, 0, 0], [k0r, 0, 0]], eta=eta)
    w = drive.w(ens)
    assert np.array_equal(w, np.ones(2))
    with pytest.raises(ResonantSingularityError):
        steady_state(coupling, drive, ens)
    with pytest.raises(ResonantSingularityError):
        steady_state_exact(build_liouvillian(coupling, 0.0, w), eta)


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


def test_propagate_overflow_raises():
    # a coupling of -60 grows the single-atom amplitude as e^(60 t)
    with pytest.raises(PropagationError):
        propagate_truncated(np.array([[-60.0 + 0j]]), 0.0, np.ones(1), 0.1)


def test_propagate_cap_enforced():
    with pytest.raises(CapExceededError):
        propagate_truncated(0.5 * np.eye(N_CAP + 1, dtype=complex), 0.0, np.ones(N_CAP + 1), 0.1)


def test_propagate_single_atom_at_finite_time():
    # a_1' = c a_1 + i eta w with c = i delta - 1/2, so
    # u(t) = i w (e^(ct) - 1) / c from the ground state
    delta, eta, t = 0.3, 0.2, 1.7
    w = np.array([0.8 * np.exp(0.4j)])
    c = 1j * delta - 0.5
    state = propagate_truncated(np.array([[0.5 + 0j]]), delta, w, eta, t_final=t)
    expected = 1j * w * (np.exp(c * t) - 1.0) / c
    assert np.max(np.abs(state.u - expected)) <= 1e-13
    assert state.v.shape == (0,)


def test_propagate_reaches_solver_fixed_point():
    # transverse drive keeps the slow antisymmetric mode dark, so the
    # amplitudes relax within twenty decay times
    ens, drive, coupling = _system([[0, 0, 0], [0.5, 0, 0]], eta=0.01)
    ref = steady_state(coupling, drive, ens)
    prop = propagate_truncated(coupling, 0.0, ref.w, drive.eta, t_final=20.0)
    assert np.max(np.abs(prop.u - ref.u)) <= 1e-8
    assert np.max(np.abs(prop.v - ref.v)) <= 1e-8


def _residual_gate(monkeypatch):
    # a level-route state whose residual is above the gate
    monkeypatch.setattr(exact, "NULL_TOL", 0.0)
    ens, drive, coupling = _system([[0, 0, 0], [1.1, 0, 0]])
    steady_state_exact(build_liouvillian(coupling, 0.0, drive.w(ens)), drive.eta)


def _gmres_breakdown(monkeypatch):
    # K = -2 I from a scaled unit vector: the Hessenberg column is exactly
    # (-2, 0), so at eta = 0.5 the shifted column 1 + eta h vanishes in the
    # first iteration
    b = np.zeros(8)
    b[0] = 3.0
    exact._shifted_gmres(lambda v: -v / 0.5, exact._Arnoldi(b, 4), 0.5, 3.0, 1e-13, 4, 0)


@pytest.mark.parametrize("call, error, match", [
    (_residual_gate, SolverConvergenceError, "GMRES iterations"),
    (_gmres_breakdown, SolverConvergenceError, "after 1 GMRES iterations"),
    (lambda mp: reduce_state(np.eye(4), [0, 0], 2), ValueError, "distinct atoms"),
    (lambda mp: reduce_state(np.eye(4), [2], 2), ValueError, "distinct atoms"),
    (lambda mp: negativity_exact(np.eye(4), [1], 3), ValueError, "wrong dimension"),
    (lambda mp: negativity_exact(np.eye(4), [2], 2), ValueError, "outside the ensemble"),
], ids=["residual-gate", "gmres-breakdown", "repeated-keep", "keep-out-of-range",
        "wrong-dimension", "b-out-of-range"])
def test_typed_errors(monkeypatch, call, error, match):
    with pytest.raises(error, match=match):
        call(monkeypatch)


@pytest.mark.parametrize("its", [0, 7])
@pytest.mark.parametrize("c", [-2.0, 0.5, 4.0])
def test_vanishing_gmres_column_reports_its_iterations(c, its):
    # K = c I leaves the Krylov space of any start vector invariant after
    # one column, h = (c, 0); at eta = -1/c the shifted column 1 + eta h
    # vanishes, and the error counts the earlier cycles' iterations too
    start = np.ones(16)  # normalised exactly: q0 . q0 = 1
    with pytest.raises(SolverConvergenceError) as err:
        exact._shifted_gmres(lambda v: c * v, exact._Arnoldi(start, 4), -1.0 / c, 3.0,
                             1e-13, 4, its)
    assert err.value.iterations == its + 1
    assert err.value.residual == 3.0
