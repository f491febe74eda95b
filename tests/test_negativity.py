import math
from dataclasses import replace

import numpy as np
import pytest

from weakdrive import negativity
from weakdrive.basis import pair_arrays
from weakdrive.coupling import coupling_matrix
from weakdrive.exact import negativity_exact
from weakdrive.errors import PartitionError
from weakdrive.geometry import (
    Drive,
    MaskedBeam,
    Partition,
    PlaneWave,
    explicit_ensemble,
    random_ensemble,
)
from weakdrive.negativity import (
    build_pt_matrix,
    build_V,
    lambda2_spectrum,
    lambda4_dilute,
    negativity_model,
    negativity_report,
    pt_negativity,
    pt_negativity_grid,
)
from weakdrive.perturbation import PerturbState, assemble_state, restrict_state, steady_state

DIPOLE = np.array([0.0, 0.0, 1.0])
BEAM = PlaneWave(np.array([0.0, 1.0, 0.0]))


def _solved(positions, delta=0.0, eta=0.05, beam=BEAM, seed_dipole=DIPOLE):
    ens = explicit_ensemble(positions, seed_dipole)
    drive = Drive(delta=delta, eta=eta, beam=beam)
    coupling = coupling_matrix(ens)
    return ens, drive, steady_state(coupling, drive, ens)


def _manual_state(u, v, eta=0.05, delta=0.0):
    n = len(u)
    return PerturbState(
        u=np.asarray(u, dtype=complex),
        v=np.asarray(v, dtype=complex),
        w=np.ones(n, dtype=complex),
        delta=delta,
        eta=eta,
        atoms=tuple(range(n)),
    )


def test_pt_at_zero_drive():
    state = _manual_state([0.3 + 0.2j, -0.1j], [0.05 + 0.02j], eta=0.0)
    pt = build_pt_matrix(state, Partition((0,), (1,)))
    assert np.array_equal(pt.core, np.diag([1.0, 0.0, 0.0, 0.0]))
    neg, spectrum = pt_negativity(pt)
    assert neg == 0.0
    assert spectrum[-1] == pytest.approx(1.0)
    assert np.allclose(spectrum[:-1], 0.0)
    _assert_compressed_matches_full(state, Partition((0,), (1,)))


def test_pt_ground_population():
    _, drive, state = _solved([[0, 0, 0], [1.3, 0.4, 0]], eta=0.08)
    pt = build_pt_matrix(state, Partition((0,), (1,)))
    expected = 1.0 - drive.eta**2 * np.sum(np.abs(state.u) ** 2)
    assert pt.core[0, 0] == pytest.approx(expected, abs=1e-15)
    _assert_compressed_matches_full(state, Partition((0,), (1,)))


def _two_qubit_pt_route(state, eta):
    """Independent partial transpose: map the assembled two-atom state onto
    the qubit product basis and transpose atom B's indices there."""
    tr = assemble_state(state)
    mapping = [0, 2, 1, 3]  # {G, |1>, |2>, |12>} -> product-basis indices
    rho = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            rho[mapping[a], mapping[b]] = tr[a, b]
    t = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return np.sort(np.linalg.eigvalsh(t))


def test_pt_two_route_agreement():
    _, drive, state = _solved([[0, 0, 0], [0.9, 0.4, 0.2]], delta=0.3)
    _, direct = pt_negativity(build_pt_matrix(state, Partition((0,), (1,))))
    independent = _two_qubit_pt_route(state, drive.eta)
    assert np.max(np.abs(direct - independent)) <= 1e-12
    _assert_compressed_matches_full(state, Partition((0,), (1,)))


def _reference_pt(u, vmap, na, nb, eta):
    """Element-table construction used as the test oracle for embeddings."""
    n = na + nb
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    dim = 1 + n + len(pairs)
    P = np.zeros((dim, dim), dtype=complex)
    P[0, 0] = 1 - eta**2 * sum(abs(x) ** 2 for x in u)
    for m in range(n):
        P[0, 1 + m] = eta * (np.conj(u[m]) if m < na else u[m])
        P[1 + m, 0] = np.conj(P[0, 1 + m])
    for a in range(n):
        for b in range(n):
            if a < na and b < na:
                P[1 + a, 1 + b] = eta**2 * u[a] * np.conj(u[b])
            elif a >= na and b >= na:
                P[1 + a, 1 + b] = eta**2 * np.conj(u[a]) * u[b]
            elif a < na <= b:
                P[1 + a, 1 + b] = eta**2 * (u[a] * u[b] + vmap[(a, b)])
            else:
                P[1 + a, 1 + b] = eta**2 * np.conj(u[a] * u[b] + vmap[(b, a)])
    for k, (i, j) in enumerate(pairs):
        if j < na:
            val = eta**2 * np.conj(u[i] * u[j] + vmap[(i, j)])
        elif i >= na:
            val = eta**2 * (u[i] * u[j] + vmap[(i, j)])
        else:
            val = eta**2 * np.conj(u[i]) * u[j]
        P[0, 1 + n + k] = val
        P[1 + n + k, 0] = np.conj(val)
    return P


def test_subgroup_in_ensemble_uses_full_amplitudes():
    # partition embedded in a 4-atom ensemble: the PT over (A, B) must carry
    # the u, v of the full solve, matching an element-by-element reference
    ens = random_ensemble(4, 7.0, 23, DIPOLE, min_distance=0.6)
    drive = Drive(delta=0.2, eta=0.06, beam=BEAM)
    state = steady_state(coupling_matrix(ens), drive, ens)
    part = Partition((1,), (3,))
    pt = build_pt_matrix(state, part)
    li, lj = state.local_index(1), state.local_index(3)
    u = [state.u[li], state.u[lj]]
    vmap = {(0, 1): state.v_pair(li, lj)}
    ref = _reference_pt(u, vmap, 1, 1, drive.eta)
    assert pt.dim == len(ref)
    assert np.max(np.abs(pt_negativity(pt)[1] - np.linalg.eigvalsh(ref))) <= 1e-12


def _assert_compressed_matches_full(state, part):
    sub = restrict_state(state, part.atoms)
    na = len(part.group_a)
    vmap = {
        (i, j): sub.v_pair(i, j) for i in range(sub.n) for j in range(i + 1, sub.n)
    }
    full = np.linalg.eigvalsh(_reference_pt(sub.u, vmap, na, sub.n - na, sub.eta))
    neg, spectrum = pt_negativity(build_pt_matrix(state, part))
    assert spectrum.shape == full.shape
    assert np.all(np.diff(spectrum) >= 0.0)
    assert np.max(np.abs(spectrum - full)) <= 1e-14
    assert neg == pytest.approx(-full[full < 0].sum(), abs=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_compressed_spectrum_matches_full_matrix(n):
    # random clouds: balanced, unequal and embedded partitions, lit and
    # partly masked beams, several drive strengths
    ens = random_ensemble(n, 4.0, 100 + n, DIPOLE, min_distance=0.5)
    mask = MaskedBeam(BEAM, range(0, n, 2))
    partitions = [
        Partition(tuple(range(n // 2)), tuple(range(n // 2, n))),
        Partition((n - 1,), tuple(range(n - 1))),
        Partition((0,), (n - 1, 1)),
    ]
    for beam in (BEAM, mask):
        for eta in (0.01, 0.05, 0.2):
            drive = Drive(delta=0.3, eta=eta, beam=beam)
            state = steady_state(coupling_matrix(ens), drive, ens)
            for part in partitions:
                _assert_compressed_matches_full(state, part)


def test_compressed_spectrum_single_pair_and_zero_column():
    # two atoms: M = 1, so no zeros are padded
    _, _, state = _solved([[0, 0, 0], [0.9, 0.4, 0.2]], delta=0.3)
    part = Partition((0,), (1,))
    _assert_compressed_matches_full(state, part)
    assert len(pt_negativity(build_pt_matrix(state, part))[1]) == 4
    # u = v = 0: the pair column vanishes and the border is zero
    silent = _manual_state(np.zeros(4), np.zeros(6), eta=0.1)
    pt = build_pt_matrix(silent, Partition((0, 1), (2, 3)))
    assert pt.border == 0.0 and pt.pairs == 6
    _assert_compressed_matches_full(silent, Partition((0, 1), (2, 3)))


GRID = np.concatenate([[0.0], np.geomspace(0.005, 0.5, 9)])


def _assert_arrowhead_route(state, part, etas):
    """The real arrowhead core, its spectrum and the grid against eigvalsh
    of the element table's full truncated matrix, and the grid, the
    one-point API and negativity_report against each other bit for bit."""
    sub = restrict_state(state, part.atoms)
    na = len(part.group_a)
    vmap = {(i, j): sub.v_pair(i, j) for i in range(sub.n) for j in range(i + 1, sub.n)}
    grid_neg = pt_negativity_grid(build_pt_matrix(state, part), etas)
    for eta, got in zip(etas, grid_neg):
        at_eta = replace(state, eta=eta)
        pt = build_pt_matrix(at_eta, part)
        core = pt.core
        # diagonal plus a non-negative ground row and column, zero elsewhere
        arrow = np.diag(np.diagonal(core))
        arrow[0, :], arrow[:, 0] = core[0, :], core[:, 0]
        assert core.dtype == np.float64 and np.array_equal(core, arrow)
        assert np.array_equal(core, core.T) and np.all(core[0, 1:] >= 0.0)
        assert core[-1, -1] == 0.0
        # the core plus dim - n - 2 exact zeros is the full spectrum
        full = np.linalg.eigvalsh(_reference_pt(sub.u, vmap, na, sub.n - na, eta))
        assert abs(got - abs(full[full < 0].sum())) <= 1e-13
        neg, spectrum = pt_negativity(pt)
        assert pt.dim == len(full) and np.max(np.abs(spectrum - full)) <= 1e-14
        report = negativity_report(at_eta, part)
        assert neg == got == report.negativity_pt
        assert np.array_equal(spectrum, report.pt_spectrum)
        # the report keeps the same partial transpose, at the same eta
        assert report.pt.eta == pt.eta == eta
        for field in ("core", "s", "beta", "reach", "border", "pairs"):
            assert np.array_equal(getattr(report.pt, field), getattr(pt, field))
    return grid_neg


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_grid_matches_full_matrix_per_point(n):
    # random clouds, lit and partly masked, with covering and embedded
    # partitions: the stacked grid route against eigvalsh of the full
    # truncated matrix at every eta, built by the element table; the
    # one-point API and negativity_report diagonalise the same arrowhead
    # core, so they equal the grid bit for bit
    ens = random_ensemble(n, 4.0, 200 + n, DIPOLE, min_distance=0.5)
    partitions = [
        Partition(tuple(range(n // 2)), tuple(range(n // 2, n))),
        Partition((n - 1,), tuple(range(1, n - 1))),
        Partition((0, n - 1), (1,)),
    ]
    for beam in (BEAM, MaskedBeam(BEAM, range(1, n, 2))):
        state = steady_state(coupling_matrix(ens), Drive(delta=0.3, eta=0.05, beam=beam), ens)
        for part in partitions:
            _assert_arrowhead_route(state, part, GRID)


def test_arrowhead_repeated_eigenvalues_and_zero_border():
    # the diagonal partition of a square lit face-on has a doubly zero
    # singles block eigenvalue on which the ground row vanishes, lit or with
    # one diagonal masked; one lit atom with v = 0 leaves a triple zero and
    # an exactly zero border
    ens = explicit_ensemble([[0, 0, 0], [1.1, 0, 0], [0, 1.1, 0], [1.1, 1.1, 0]], DIPOLE)
    face_on = PlaneWave(np.array([0.0, 0.0, 1.0]))
    part = Partition((0, 3), (1, 2))
    for beam in (face_on, MaskedBeam(face_on, [1, 2])):
        state = steady_state(coupling_matrix(ens), Drive(delta=0.3, eta=0.05, beam=beam), ens)
        pt = build_pt_matrix(state, part)
        assert np.sum(np.abs(pt.beta) <= 1e-14) == 2
        assert np.sum(pt.reach <= 1e-15) == 2
        _assert_arrowhead_route(state, part, GRID)
    dark = _manual_state([0.0, 0.0, 0.2 - 0.1j, 0.0], np.zeros(6))
    pt = build_pt_matrix(dark, Partition((0, 1), (2, 3)))
    assert np.sum(pt.beta == 0.0) == 3 and np.sum(pt.reach == 0.0) == 3
    _assert_arrowhead_route(dark, Partition((0, 1), (2, 3)), GRID)


def test_arrowhead_unequal_groups():
    ens = random_ensemble(6, 4.0, 41, DIPOLE, min_distance=0.5)
    for beam in (BEAM, MaskedBeam(BEAM, [0, 3])):
        state = steady_state(coupling_matrix(ens), Drive(delta=0.3, eta=0.05, beam=beam), ens)
        for part in (
            Partition((2,), (0, 1, 3, 4, 5)),
            Partition((0, 1, 3, 5), (4,)),
            Partition((5,), (0, 2, 3)),
        ):
            _assert_arrowhead_route(state, part, GRID)


def test_arrowhead_zero_drive_gives_positive_zero():
    ens = random_ensemble(5, 4.0, 43, DIPOLE, min_distance=0.5)
    state = steady_state(coupling_matrix(ens), Drive(delta=0.3, eta=0.05, beam=BEAM), ens)
    part = Partition((0, 1), (2, 3, 4))
    for etas in ([0.0], [0.0, 0.1], [0.1, 0.0]):
        got = _assert_arrowhead_route(state, part, np.array(etas))
        zero = got[etas.index(0.0)]
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    neg, spectrum = pt_negativity(build_pt_matrix(replace(state, eta=0.0), part))
    assert neg == 0.0 and math.copysign(1.0, neg) == 1.0
    assert spectrum[-1] == 1.0 and np.all(spectrum[:-1] == 0.0)


def test_grid_values_independent_of_blocks_order_and_length(monkeypatch):
    ens = random_ensemble(6, 4.0, 31, DIPOLE, min_distance=0.5)
    state = steady_state(coupling_matrix(ens), Drive(delta=0.3, eta=0.05, beam=BEAM), ens)
    part = Partition((0, 1, 2), (3, 4))
    grid = np.linspace(0.0, 0.4, 41)
    pt = build_pt_matrix(state, part)
    ref = pt_negativity_grid(pt, grid)
    assert ref[0] == 0.0 and math.copysign(1.0, ref[0]) == 1.0
    assert np.all(ref[1:] > 0.0)
    # cores of dimension 7: one per block, five per block (a ragged last
    # block), and the default budget (the whole grid in one block)
    for budget in (1, 5 * 49, negativity.PT_BLOCK):
        monkeypatch.setattr(negativity, "PT_BLOCK", budget)
        assert np.array_equal(pt_negativity_grid(pt, grid), ref)
        assert np.array_equal(pt_negativity_grid(pt, grid[::-1]), ref[::-1])
        for k in (1, 2, 17):
            assert np.array_equal(pt_negativity_grid(pt, grid[:k]), ref[:k])
    single = pt_negativity_grid(pt, [grid[9]])
    assert single.shape == (1,) and single[0] == ref[9]
    # the one-point API diagonalises the same core as a stack of one
    neg, _ = pt_negativity(build_pt_matrix(replace(state, eta=grid[9]), part))
    assert neg == ref[9]


def test_no_pair_correlation_negativity_is_higher_order():
    # with v = 0 the block is a product state at second order; the residual
    # negativity of the truncated matrix shrinks by ~8 per drive halving
    rng = np.random.default_rng(4)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    vals = []
    for eta in (0.04, 0.02, 0.01):
        state = _manual_state(u, np.zeros(3), eta=eta)
        neg, _ = pt_negativity(build_pt_matrix(state, Partition((0,), (1, 2))))
        vals.append(neg)
    assert vals[0] / vals[1] == pytest.approx(8.0, rel=0.3)
    assert vals[1] / vals[2] == pytest.approx(8.0, rel=0.3)
    # and the second-order mode spectrum is exactly flat
    V = build_V(state, Partition((0,), (1, 2)))
    l2, _ = lambda2_spectrum(V)
    assert np.max(np.abs(l2)) == 0.0


def test_two_atom_min_eigenvalue_leading_order():
    _, _, state = _solved([[0, 0, 0], [1.1, 0.3, 0]])
    for eta in (0.02, 0.01):
        st = _manual_state(state.u, state.v, eta=eta)
        _, spectrum = pt_negativity(build_pt_matrix(st, Partition((0,), (1,))))
        lead = -(eta**2) * abs(state.v[0])
        assert abs(spectrum[0] - lead) <= 5.0 * eta**3


def _embedding(V):
    """[[0, V], [V^dag, 0]], built entry by entry."""
    na, nb = V.shape
    H = np.zeros((na + nb, na + nb), dtype=complex)
    H[:na, na:] = V
    H[na:, :na] = V.conj().T
    return H


def test_build_V_zero_and_single_pair():
    state = _manual_state(np.zeros(2), [0.0])
    V = build_V(state, Partition((0,), (1,)))
    assert np.all(V == 0.0)
    state = _manual_state(np.zeros(2), [0.3])
    V = build_V(state, Partition((0,), (1,)))
    vals, _ = lambda2_spectrum(V)
    assert np.allclose(np.sort(vals), [-0.3, 0.3], atol=1e-14)


def test_lambda2_pairing_and_trace():
    rng = np.random.default_rng(31)
    n = 4
    I, J = pair_arrays(n)
    v = rng.normal(size=len(I)) + 1j * rng.normal(size=len(I))
    state = _manual_state(rng.normal(size=n) + 0j, v)
    V = build_V(state, Partition((0, 1), (2, 3)))
    vals, vecs = lambda2_spectrum(V)
    assert abs(np.trace(_embedding(V))) <= 1e-12
    assert abs(vals.sum()) <= 1e-12
    assert np.max(np.abs(np.sort(vals) + np.sort(vals)[::-1])) <= 1e-12
    # phase convention: largest component real positive
    for k in range(vecs.shape[1]):
        j = np.argmax(np.abs(vecs[:, k]))
        assert vecs[j, k].imag == pytest.approx(0.0, abs=1e-14)
        assert vecs[j, k].real > 0


def test_vectorised_phase_fix_and_degenerate_flags_match_loops():
    # lambda2_spectrum's phase fix and negativity_report's degenerate flags
    # against the per-column and per-pair loops they replaced, bit for bit;
    # unequal groups leave |n_A - n_B| degenerate zero modes
    rng = np.random.default_rng(12)
    for na, nb in ((1, 1), (1, 3), (2, 5), (4, 4), (6, 2)):
        V = rng.normal(size=(na, nb)) + 1j * rng.normal(size=(na, nb))
        vals, vecs = lambda2_spectrum(V)
        ref_vals, ref = np.linalg.eigh(_embedding(V))
        ref = ref[:, np.argsort(ref_vals)[::-1]]
        for k in range(ref.shape[1]):
            col = ref[:, k]
            j = int(np.argmax(np.abs(col)))
            if abs(col[j]) > 0:
                ref[:, k] = col * (np.conj(col[j]) / abs(col[j]))
        assert vecs.tobytes() == ref.tobytes()

        n = na + nb
        state = _manual_state(rng.normal(size=n) + 1j * rng.normal(size=n),
                              rng.normal(size=n * (n - 1) // 2) + 0j)
        rep = negativity_report(state, Partition(tuple(range(na)), tuple(range(na, n))))
        l2 = rep.lambda2
        scale = max(1.0, float(np.max(np.abs(l2))))
        flags = [False] * len(l2)
        for k in range(len(l2) - 1):
            if abs(l2[k] - l2[k + 1]) <= negativity.DEGENERACY_RTOL * scale:
                flags[k] = flags[k + 1] = True
        assert [m.degenerate for m in rep.modes] == flags
        assert sum(flags) == (abs(na - nb) if abs(na - nb) > 1 else 0)


def test_build_V_is_a_read_only_array():
    rng = np.random.default_rng(5)
    v = rng.normal(size=10) + 1j * rng.normal(size=10)
    state = _manual_state(rng.normal(size=5) + 0j, v)
    V = build_V(state, Partition((3, 0), (4, 1, 2)))
    assert type(V) is np.ndarray and V.dtype == complex and V.shape == (2, 3)
    assert not V.flags.writeable
    # rows are sorted A, columns sorted B
    assert V[1, 0] == state.v_pair(3, 1)


def test_mode_rows_close_only_where_threshold_omega_applies():
    # V = diag(-0.3, 0.2i, 0.1) on the pairs (0, 3), (1, 4), (2, 5): three
    # independent +/- mode pairs. Atoms 2 and 5 are dark, so the third
    # negative mode has lambda4 = 0 and never closes beside two that do.
    I, J = pair_arrays(6)
    v = np.zeros(len(I), dtype=complex)
    for (i, j), x in {(0, 3): -0.3, (1, 4): 0.2j, (2, 5): 0.1}.items():
        v[(I == i) & (J == j)] = x
    rng = np.random.default_rng(3)
    state = PerturbState(u=rng.normal(size=6) + 1j * rng.normal(size=6), v=v,
                         w=np.array([1.0, 0.7j, 0.0, 0.9, -1.0, 0.0]), delta=0.2, eta=0.05,
                         atoms=tuple(range(6)))
    rep = negativity_report(state, Partition((0, 1, 2), (3, 4, 5)))
    assert [m.lambda2 for m in rep.modes] == pytest.approx([0.3, 0.2, 0.1, -0.1, -0.2, -0.3])
    closing, never = [], []
    for m, ez in zip(rep.modes, rep.curve.eta_zero):
        assert m.eta_zero == ez
        if m.lambda2 < 0 and m.lambda4 > 0:
            assert m.eta_zero == math.sqrt(-m.lambda2 / m.lambda4)
            assert m.threshold_omega == m.eta_zero
            assert m.omega_zero == 2.0 * m.eta_zero
            closing.append(m.eta_zero)
        else:
            assert m.threshold_omega is None and m.eta_zero is None and m.omega_zero is None
            if m.lambda2 < 0:
                never.append(m)
    assert len(closing) == 2
    assert len(never) == 1 and never[0].lambda4 == 0.0
    top = max(closing)
    assert np.array_equal(rep.curve.etas, np.geomspace(top / 30.0, 2.0 * top, 121))
    # the never-closing mode leaves the model without a maximum or threshold
    assert rep.curve.n_max is None and rep.curve.eta_threshold is None


def test_lambda4_plane_wave_values():
    phi = np.array([1.0, 1.0j, -0.5]) / np.linalg.norm([1.0, 1.0, 0.5])
    w = np.ones(3, dtype=complex)
    assert lambda4_dilute(phi, w, 0.0) == pytest.approx(16.0)
    assert lambda4_dilute(phi, w, 0.5) == pytest.approx(4.0)
    assert lambda4_dilute(phi, np.zeros(3, dtype=complex), 0.0) == 0.0


def test_lambda4_block_matches_columns():
    rng = np.random.default_rng(4)
    vecs = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
    w = rng.normal(size=9) + 1j * rng.normal(size=9)
    w[[2, 5]] = 0.0  # masked atoms
    block = lambda4_dilute(vecs, w, 0.3)
    cols = np.array([lambda4_dilute(vecs[:, k], w, 0.3) for k in range(6)])
    assert block.shape == (6,)
    assert np.max(np.abs(block - cols) / np.abs(cols)) <= 1e-15
    with pytest.raises(ValueError):
        lambda4_dilute(np.column_stack([vecs[:, 0], np.zeros(9)]), w, 0.3)


def test_threshold_arithmetic():
    curve = negativity_model([-0.04, 0.04, -0.04], [16.0, 16.0, 0.0])
    assert curve.eta_zero[0] == pytest.approx(0.05)
    # a mode closes only for lambda2 < 0 and lambda4 > 0
    assert curve.eta_zero[1:] == (None, None)
    # without a grid the model spans its largest closing drive, or a fixed
    # decade range when no mode closes
    assert np.array_equal(curve.etas, np.geomspace(0.05 / 30.0, 0.1, 121))
    assert np.array_equal(negativity_model([0.04], [16.0]).etas, np.geomspace(1e-3, 1.0, 61))


def test_grid_threshold_on_a_grid_point():
    # the only negative mode closes exactly on the grid point 0.125, where
    # the modelled minimum eigenvalue is 0: the cell ending there has the
    # crossing
    curve = negativity_model([-0.015625], [1.0], 0.125 * np.array([0.5, 0.75, 1.0, 1.25, 1.5]))
    assert curve.eta_threshold == 0.125
    assert curve.eta_sweep_estimate == pytest.approx(0.125, rel=1e-15, abs=0.0)


def test_grid_threshold_is_not_an_opening_mode():
    # the negative mode closes at eta = 0.1 and the second mode opens at
    # sqrt(0.02) = 0.1414 and never closes: the model has no threshold, so
    # the opening sign change is no estimate either
    curve = negativity_model([-0.1, 0.02], [10.0, -1.0], np.linspace(0.01, 0.3, 60))
    assert np.any(curve.values == 0.0) and curve.values[-1] > 0.0
    assert curve.eta_threshold is None and curve.n_max is None
    assert curve.eta_sweep_estimate is None


def test_model_single_mode_calculus():
    a, b = 0.3, 12.0
    curve = negativity_model([-a], [b], np.linspace(0.01, 0.2, 50))
    assert curve.n_max == pytest.approx(a**2 / (4 * b), rel=1e-12)
    assert curve.eta_max == pytest.approx(np.sqrt(a / (2 * b)), rel=1e-12)
    assert curve.eta_threshold == pytest.approx(np.sqrt(a / b), rel=1e-12)


def test_model_no_negative_modes():
    curve = negativity_model([0.1, 0.2], [16.0, 16.0], np.linspace(0.01, 0.5, 20))
    assert np.all(curve.values == 0.0)
    assert curve.n_max == 0.0
    assert curve.eta_threshold is None


def test_model_never_closing_mode_has_no_maximum():
    # a negative mode with lambda4 <= 0, or a mode with lambda4 < 0 that
    # opens, makes the model grow without bound: no maximum is reported,
    # where no negative mode at all reports 0.0
    grid = np.linspace(0.01, 0.5, 20)
    for l4 in (0.0, -3.0):
        curve = negativity_model([-0.01, 0.02], [l4, 16.0], grid)
        assert np.all(curve.values > 0.0) and np.all(np.diff(curve.values) > 0.0)
        assert curve.n_max is None and curve.eta_max is None
        assert curve.eta_threshold is None
    for l2, l4 in (([-1.0, 1.0], [1.0, -1.0]), ([0.0, -1.0], [-1.0, 1.0])):
        curve = negativity_model(l2, l4, np.linspace(0.0, 2.0, 5))
        assert curve.values[-1] > curve.values[-2] > 1.0
        assert curve.n_max is None and curve.eta_max is None
        assert curve.eta_threshold is None


def test_model_degenerate_far_field_identity():
    # two equal negative modes: N_max = 32 (1 + 4 delta^2)^-2 eta_max^4
    for delta in (0.0, 0.5):
        a = 3.0e-4
        l4 = (0.25 + delta**2) ** -2
        curve = negativity_model([-a, -a], [l4, l4], np.geomspace(1e-4, 1e-1, 30))
        lhs = curve.n_max
        rhs = 32.0 * (1.0 + 4.0 * delta**2) ** -2 * curve.eta_max**4
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_leading_order_consistency_ratio_window():
    _, _, state = _solved([[0, 0, 0], [0.8, 0.9, 0.3]], delta=0.2)
    V = build_V(state, Partition((0,), (1,)))
    lam = np.linalg.svd(V, compute_uv=False).max()
    gaps = []
    for eta in (0.02, 0.01):
        st = _manual_state(state.u, state.v, eta=eta, delta=0.2)
        _, spectrum = pt_negativity(build_pt_matrix(st, Partition((0,), (1,))))
        gaps.append(abs(spectrum[0] + eta**2 * lam))
    ratio = gaps[0] / gaps[1]
    assert 8.0 <= ratio <= 32.0


def test_odd_orders_vanish_in_min_eigenvalue():
    _, _, state = _solved([[0, 0, 0], [1.0, 0.2, 0.1]], delta=0.1)
    etas = np.linspace(0.002, 0.02, 10)
    mins = []
    for eta in etas:
        st = _manual_state(state.u, state.v, eta=eta, delta=0.1)
        _, spectrum = pt_negativity(build_pt_matrix(st, Partition((0,), (1,))))
        mins.append(spectrum[0])
    # six powers so genuine eta^6 content cannot alias into the odd slots
    powers = np.column_stack([etas**k for k in range(1, 7)])
    coef, *_ = np.linalg.lstsq(powers, np.array(mins), rcond=None)
    assert abs(coef[0]) <= 1e-6 * abs(coef[1])
    assert abs(coef[2]) <= 1e-6 * abs(coef[1])


def test_negativity_invariant_under_rigid_motions():
    positions = np.array([[0, 0, 0], [1.4, 0.2, 0], [0.3, 1.9, 0.8]])
    khat = np.array([0.0, 1.0, 0.0])

    def run(pos, dip, k):
        ens = explicit_ensemble(pos, dip)
        drive = Drive(delta=0.2, eta=0.05, beam=PlaneWave(k))
        state = steady_state(coupling_matrix(ens), drive, ens)
        neg, _ = pt_negativity(build_pt_matrix(state, Partition((0,), (1, 2))))
        return neg

    base = run(positions, DIPOLE, khat)
    shifted = run(positions + np.array([5.0, -3.0, 2.0]), DIPOLE, khat)
    theta = 0.83
    R = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    rotated = run(positions @ R.T, R @ DIPOLE, R @ khat)
    assert abs(shifted - base) <= 1e-10
    assert abs(rotated - base) <= 1e-10


def test_report_fields_and_flags():
    ens = explicit_ensemble([[0, 0, 0], [1.0, 0, 0]], DIPOLE)
    drive = Drive(delta=0.0, eta=0.05, beam=BEAM)
    state = steady_state(coupling_matrix(ens), drive, ens)
    rep = negativity_report(state, Partition((0,), (1,)), dilute_ok=False)
    assert rep.negativity2 == pytest.approx(drive.eta**2 * abs(state.v[0]))
    assert rep.entanglement == "detected"
    assert rep.dilute_extrapolated
    assert rep.modes[-1].lambda2 < 0 < rep.modes[-1].lambda4
    d = rep.to_dict()
    assert set(d["curve"]) == {"eta", "negativity_model"}
    # undetected wording for uncorrelated input, never "separable"
    silent = _manual_state([0.2, 0.1j], [0.0], eta=0.05)
    rep0 = negativity_report(silent, Partition((0,), (1,)))
    assert rep0.entanglement == "undetected"


def test_absent_partition_atom_raises_partition_error():
    _, _, state = _solved([[0, 0, 0], [1.0, 0, 0], [0, 1.3, 0]])
    cases = [
        (state, Partition((0,), (3,))),
        # an embedded partition on a restricted state that lacks atom 1
        (restrict_state(state, (0, 2)), Partition((0,), (1, 2))),
    ]
    for st, part in cases:
        for build in (build_V, build_pt_matrix, negativity_report):
            with pytest.raises(PartitionError, match="not present"):
                build(st, part)


def test_zero_negativity_is_positive_zero():
    state = _manual_state([0.3 + 0.2j, -0.1j], [0.05 + 0.02j], eta=0.0)
    neg, _ = pt_negativity(build_pt_matrix(state, Partition((0,), (1,))))
    assert neg == 0.0 and math.copysign(1.0, neg) == 1.0
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    neg_exact, _ = negativity_exact(ground, [1], 2)
    assert neg_exact == 0.0 and math.copysign(1.0, neg_exact) == 1.0


def test_model_grid_may_start_at_zero():
    a, b = 0.3, 12.0
    curve = negativity_model([-a], [b], np.linspace(0.0, 0.2, 5))
    assert curve.values[0] == 0.0
    shifted = negativity_model([-a], [b], np.linspace(0.05, 0.2, 4))
    assert np.array_equal(curve.values[1:], shifted.values)
    assert curve.n_max == shifted.n_max and curve.eta_max == shifted.eta_max
    for bad in ([-0.1, 0.1], [0.0, 0.0, 0.1], [0.2, 0.1]):
        with pytest.raises(ValueError, match="non-negative and strictly increasing"):
            negativity_model([-a], [b], bad)
