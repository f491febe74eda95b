"""Named structural invariants run by the `validate` task.

Every check is a pure function of a deterministic scenario built from a
seed; measured values are reported next to their thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .basis import basis_dim, pair_arrays
from .coupling import coupling_matrix
from .errors import AsymmetricCouplingError
from .exact import Liouvillian, amplitude_drift, negativity_exact, steady_state_exact
from .geometry import Drive, Ensemble, Partition, PlaneWave, random_ensemble
from .negativity import build_pt_matrix, build_V, lambda2_spectrum, pt_negativity
from .perturbation import (
    PerturbState,
    assemble_state,
    restrict_state,
    solve_u,
    solve_v,
    steady_state,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""


def truncated_partial_trace(matrix: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace on the {ground, singles, pairs} basis.

    Basis elements are labelled by their excited-atom sets; a matrix
    element |X><Y| survives tracing out the complement C exactly when
    X and Y agree on C, landing on |X & S><Y & S|.
    """
    sets = [frozenset()] + [frozenset([i]) for i in range(n)] + [
        frozenset(p) for p in combinations(range(n), 2)
    ]
    keep_set = frozenset(keep)
    m = len(keep)
    ksets = [frozenset()] + [frozenset([a]) for a in keep] + [
        frozenset(p) for p in combinations(keep, 2)
    ]
    index = {s: i for i, s in enumerate(ksets)}
    out = np.zeros((basis_dim(m), basis_dim(m)), dtype=complex)
    for a, X in enumerate(sets):
        for b, Y in enumerate(sets):
            if X - keep_set != Y - keep_set:
                continue
            out[index[X & keep_set], index[Y & keep_set]] += matrix[a, b]
    return out


# ----------------------------------------------------------------------
# scenario
# ----------------------------------------------------------------------

@dataclass(eq=False)
class Scenario:
    part: Partition
    coupling: np.ndarray
    state: PerturbState


def build_scenario(seed: int = 1) -> Scenario:
    ens = random_ensemble(5, 60.0, seed, np.array([0.0, 0.0, 1.0]), min_distance=2.0)
    drive = Drive(delta=0.2, eta=0.05, beam=PlaneWave(np.array([0.0, 1.0, 0.0])))
    coupling = coupling_matrix(ens)
    state = steady_state(coupling, drive, ens)
    part = Partition((0, 1), (2, 3, 4))
    return Scenario(part=part, coupling=coupling, state=state)


def _n_pt(state: PerturbState, part: Partition) -> float:
    """N_pt of the partition at the state's own drive strength."""
    return float(pt_negativity(build_pt_matrix(state, part), [state.eta])[0][0])


def _core(sc: Scenario) -> np.ndarray:
    """Partial-transpose core of the scenario at its drive strength."""
    return build_pt_matrix(sc.state, sc.part).cores(np.array([sc.state.eta]))[0]


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------

def check_z_symmetry(sc: Scenario) -> CheckResult:
    z = sc.coupling
    measured = float(np.max(np.abs(z - z.T)))
    return CheckResult("z_symmetry", measured == 0.0, measured, 0.0)


def check_gamma_psd(sc: Scenario) -> CheckResult:
    gamma = sc.coupling.real
    measured = float(np.linalg.eigvalsh(gamma).min())
    return CheckResult("gamma_psd", measured >= -1e-10, measured, -1e-10,
                       note="minimum eigenvalue of the decay matrix")


def check_group_swap(sc: Scenario) -> CheckResult:
    swapped = Partition(sc.part.group_b, sc.part.group_a)
    l2, _ = lambda2_spectrum(build_V(sc.state, sc.part))
    l2_swapped, _ = lambda2_spectrum(build_V(sc.state, swapped))
    gap = abs(_n_pt(sc.state, sc.part) - _n_pt(sc.state, swapped))
    measured = float(max(np.max(np.abs(l2 - l2_swapped)), gap))
    return CheckResult("group_swap", measured <= 1e-13, measured, 1e-13,
                       note="lambda2 and N_pt with A and B exchanged")


def check_eig_pairing(sc: Scenario) -> CheckResult:
    # lambda2 comes from the SVD of V; eigvalsh of the embedding is the
    # independent route to the same spectrum
    V = build_V(sc.state, sc.part)
    na, nb = V.shape
    H = np.block([[np.zeros((na, na)), V], [V.conj().T, np.zeros((nb, nb))]])
    vals, _ = lambda2_spectrum(V)
    measured = float(np.max(np.abs(vals - np.linalg.eigvalsh(H)[::-1])))
    return CheckResult("eig_pairing", measured <= 1e-10, measured, 1e-10,
                       note="lambda2 against the eigenvalues of [[0, V], [V^dag, 0]]")


def check_pt_hermitian(sc: Scenario) -> CheckResult:
    # eigvalsh reads one triangle of the core, so it assumes this symmetry
    core = _core(sc)
    measured = float(np.max(np.abs(core - core.T)))
    return CheckResult("pt_hermitian", measured <= 1e-14, measured, 1e-14)


def check_pt_trace(sc: Scenario) -> CheckResult:
    # the exact zeros the core leaves out add nothing to the trace
    measured = float(abs(np.trace(_core(sc)) - 1.0))
    return CheckResult("pt_trace", measured <= 1e-12, measured, 1e-12)


def check_restriction_partial_trace(sc: Scenario) -> CheckResult:
    keep = (0, 1, 3)
    direct = assemble_state(restrict_state(sc.state, keep))
    traced = truncated_partial_trace(assemble_state(sc.state), sc.state.n, keep)
    measured = float(np.max(np.abs(direct - traced)))
    return CheckResult("restriction_partial_trace", measured <= 1e-12, measured, 1e-12)


def check_phase_invariance(sc: Scenario) -> CheckResult:
    st = sc.state
    w2 = st.w * np.exp(1j * 0.7)
    u2 = solve_u(sc.coupling, st.delta, w2)
    try:
        v2 = solve_v(sc.coupling, st.delta, u2)
    except AsymmetricCouplingError as exc:
        # the pair solve needs Z = Z^T; report the asymmetry it refused
        return CheckResult("phase_invariance", False, exc.asymmetry, 1e-10,
                           note=f"pair solve refused the coupling: {exc}")
    st2 = PerturbState(u=u2, v=v2, w=w2, delta=st.delta, eta=st.eta, atoms=st.atoms)
    measured = float(abs(_n_pt(st, sc.part) - _n_pt(st2, sc.part)))
    return CheckResult("phase_invariance", measured <= 1e-10, measured, 1e-10,
                       note="negativity under a global drive phase")


@lru_cache(maxsize=1)
def _oracle_errors(seed: int) -> tuple[tuple, tuple]:
    """Oracle-vs-truncation errors at three drive strengths; deterministic,
    so both oracle checks share one set of exact solves."""
    rng = np.random.default_rng(seed)
    sep = rng.uniform(1.0, 2.0, 3)
    ens = Ensemble([[0.0, 0.0, 0.0], sep.tolist()], [0.0, 0.0, 1.0])
    coupling = coupling_matrix(ens)
    beam = PlaneWave(np.array([0.0, 1.0, 0.0]))
    liouv = Liouvillian(coupling, 0.0, beam.amplitudes(ens))
    neg_errors = []
    state_errors = []
    for eta in (0.04, 0.02, 0.01):
        drive = Drive(delta=0.0, eta=eta, beam=beam)
        state = steady_state(coupling, drive, ens)
        rho = steady_state_exact(liouv, eta)
        n_exact, _ = negativity_exact(rho, [1], 2)
        neg_errors.append(abs(n_exact - _n_pt(state, Partition((0,), (1,)))))
        # map truncated basis {G, 1, 2, 12} onto the two-qubit product basis
        order = [0, 2, 1, 3]
        target = assemble_state(state)[np.ix_(order, order)]
        state_errors.append(float(np.max(np.abs(rho - target))))
    return tuple(neg_errors), tuple(state_errors)


def check_oracle_negativity_scaling(sc: Scenario) -> CheckResult:
    neg_errors, _ = _oracle_errors(seed=7)
    r1 = neg_errors[0] / neg_errors[1]
    r2 = neg_errors[1] / neg_errors[2]
    ok = 8.0 <= r1 <= 32.0 and 8.0 <= r2 <= 32.0
    return CheckResult("oracle_negativity_scaling", ok, float(min(r1, r2)), 8.0,
                       note=f"halving ratios {r1:.2f}, {r2:.2f} in [8, 32]")


def check_oracle_state_scaling(sc: Scenario) -> CheckResult:
    _, state_errors = _oracle_errors(seed=7)
    r1 = state_errors[0] / state_errors[1]
    r2 = state_errors[1] / state_errors[2]
    ok = 6.0 <= r1 <= 10.0 and 6.0 <= r2 <= 10.0
    return CheckResult("oracle_state_scaling", ok, float(min(r1, r2)), 6.0,
                       note=f"halving ratios {r1:.2f}, {r2:.2f} in [6, 10]")


def check_propagator_fixed_point(sc: Scenario) -> CheckResult:
    st = sc.state
    I, J = pair_arrays(st.n)
    amps = np.concatenate(
        [[1.0], st.eta * st.u, st.eta**2 * (st.u[I] * st.u[J] + st.v)]
    )
    drift = amplitude_drift(sc.coupling, st.delta, st.w, st.eta, amps)
    measured = float(np.max(np.abs(drift)))
    return CheckResult("propagator_fixed_point", measured <= 1e-10, measured, 1e-10)


ALL_CHECKS = (
    check_z_symmetry,
    check_gamma_psd,
    check_group_swap,
    check_eig_pairing,
    check_pt_hermitian,
    check_pt_trace,
    check_restriction_partial_trace,
    check_phase_invariance,
    check_oracle_negativity_scaling,
    check_oracle_state_scaling,
    check_propagator_fixed_point,
)


def run_checks(seed: int = 1) -> list[CheckResult]:
    sc = build_scenario(seed=seed)
    return [check(sc) for check in ALL_CHECKS]
