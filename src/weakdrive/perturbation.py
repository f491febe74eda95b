"""Weak-drive steady-state amplitudes and the truncated density matrix.

The second-order steady state is parametrised by single-atom amplitudes
u_mu and pair correlations v_munu obeying two linear systems:

    sum_xi z_muxi u_xi - i delta u_mu = i w_mu
    sum_xi ( z_muxi v~_xinu + z_nuxi v~_ximu ) - 2 i delta v_munu
        = z_munu (u_mu^2 + u_nu^2)

with v~ the symmetric zero-diagonal extension of the pair table. The u
system is solved by pivoted LU.

The pair map is Z S + S Z^T - 2 i delta S on symmetric zero-diagonal S,
read off above the diagonal. It is solved as the unconstrained Sylvester
equation Z S + S Z^T - 2 i delta S = B + D, with a diagonal multiplier D
chosen so that diag(S) = 0. With Z = P diag(lambda) P^-1 the Sylvester
inverse is elementwise, S = P (G o (P^-1 X P^-T)) P^T with
G_ab = 1 / (lambda_a + lambda_b - 2 i delta). The n multipliers solve the
Schur complement K d = -diag(S_B), where K_ij is the i-th diagonal entry
of the Sylvester inverse of e_j e_j^T; one projection applies that inverse
once, with the multipliers folded in (_project). For symmetric Z the pair
map is symmetric under <A, B> = tr(A^T B), so K = K^T; solve_v raises
AsymmetricCouplingError when max|Z - Z^T| > SYMMETRY_RTOL max|Z|, before
decomposing. K_ij is a quadratic form x^T G x in x_a = P_ia (P^-1)_aj,
and G is a complex-symmetric Cauchy matrix 1 / (x_a + x_b), with
x = lambda - i delta, of low numerical rank R: _skeleton writes
G = sum_r c_r c_r^T to SKELETON_RTOL max|G| in every entry, so
K = sum_r (P diag(c_r) P^-1)^2 elementwise, R matrix products of which
the upper triangle (~Rn^3/2 complex multiply-adds) is formed and
mirrored (_eigen_kernel). Random clouds at the benchmark's density
measure R = 48 at n = 160 and 83-100 at n = 640; cubic lattices, rich in
subradiant modes, 0.4-0.7 n, where K costs about the 5n^4/16 of the
blocked quadratic forms it replaced. Everything else is O(n^3), and
memory stays O(n^2). P and P^-1 come from eigenbasis, shared with the
exact oracle's levels, which reads off kappa = max_i |p_i| |q_i| (q_i row
i of P^-1), the largest eigenvalue condition number (Golub & Van Loan
7.2.2), never above cond_2(P). Random clouds of 40-640 atoms measure kappa
5-254, lattices and the oracle's levels at most 2, and the eigen kernel
loses digits from kappa ~ 1e5 on. Above EIG_COND_GUARD (Z near-defective)
eigenbasis raises ResonantSingularityError with cond = kappa, and solve_v
passes it on, as the exact oracle does for the same Z: its levels have
Z's eigenvectors. The solution is refined through the operator-form map
pair_map_apply, whose residual also gates the result.

PerturbState.local_index maps an atom label to its local position and
raises PartitionError for an atom absent from the state, and
restrict_state raises it for a label listed twice, so every restriction
to a partition fails with that one typed error.
assemble_state returns the second-order density matrix on {ground,
singles, pairs} as a read-only array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .basis import basis_dim, pair_arrays, pair_count, pair_index, scatter_pairs
from .errors import (
    AsymmetricCouplingError,
    PartitionError,
    ResonantSingularityError,
    SolverConvergenceError,
)

RESIDUAL_TOL = 1e-10
COND_LIMIT = 1e12
EIG_COND_GUARD = 1e4  # kappa above which eigenbasis refuses (module docstring)
# refinement steps of the pair solve; the first is always taken, because
# the absolute residual gate cannot see relative errors in tiny entries
REFINE_STEPS = 3
# entrywise tolerance, relative to max|G|, of the skeleton G = C^T C that
# the eigen kernel builds K from (module docstring)
SKELETON_RTOL = 1e-14
# Bunch and Parlett's threshold (1 + sqrt(17)) / 8: the skeleton takes a
# diagonal pivot when it is at least this share of the largest entry of
# its row, which bounds the growth of that step (_skeleton)
BUNCH_ALPHA = (1 + 17**0.5) / 8
# relative asymmetry of Z above which the pair solve refuses it: the eigen
# kernel builds one triangle of K and mirrors it, which needs Z = Z^T
SYMMETRY_RTOL = 1e-12

log = logging.getLogger("weakdrive.perturbation")


# ----------------------------------------------------------------------
# linear solves
# ----------------------------------------------------------------------

def _inverse_checked(A: np.ndarray, delta: float) -> np.ndarray:
    """inv(A), gated by the 1-norm condition number read off that inverse;
    raises when it exceeds COND_LIMIT (a singular or non-finite A counts as
    infinitely ill-conditioned) instead of silently regularising."""
    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        raise ResonantSingularityError(delta, np.inf) from None
    with np.errstate(all="ignore"):
        cond = float(np.linalg.norm(A, 1) * np.linalg.norm(A_inv, 1))
    if not cond <= COND_LIMIT:
        raise ResonantSingularityError(delta, float(np.nan_to_num(cond, nan=np.inf)))
    return A_inv


def solve_u(coupling, delta: float, w: np.ndarray) -> np.ndarray:
    """Single-excitation amplitudes from (Z - i delta) u = i w, through the
    inverse that the condition gate forms, checked by its residual."""
    b = 1j * np.asarray(w, dtype=complex)
    A = coupling - 1j * delta * np.eye(len(coupling))
    u = _inverse_checked(A, delta) @ b
    res = float(np.max(np.abs(A @ u - b)))
    if not res <= RESIDUAL_TOL:
        raise SolverConvergenceError(res, 0)
    return u


def pair_rhs(coupling, u: np.ndarray) -> np.ndarray:
    """Source term z_munu (u_mu^2 + u_nu^2) over unordered pairs."""
    n = len(u)
    I, J = pair_arrays(n)
    return coupling[I, J] * (u[I] ** 2 + u[J] ** 2)


def pair_map_apply(coupling, delta: float, v: np.ndarray) -> np.ndarray:
    """Left-hand map of the pair system applied to a pair vector.

    Uses (Z S)^T = S Z^T for symmetric S, so one matrix product serves
    both terms, read off at (i, j) and (j, i) of the pairs only.
    """
    n = len(coupling)
    I, J = pair_arrays(n)
    ZS = coupling @ scatter_pairs(v, n)
    return ZS[I, J] + ZS[J, I] - 2j * delta * v


def eigenbasis(A: np.ndarray, delta: float):
    """lam, P and Q = P^-1 (from _inverse_checked) of A = P diag(lam) Q;
    ResonantSingularityError when kappa > EIG_COND_GUARD, read at call time."""
    lam, P = np.linalg.eig(A)
    Q = _inverse_checked(P, delta)
    kappa = float(np.max(np.linalg.norm(P, axis=0) * np.linalg.norm(Q, axis=1)))
    if not kappa <= EIG_COND_GUARD:
        raise ResonantSingularityError(delta, kappa)
    return lam, P, Q


def _skeleton(x: np.ndarray, G_abs: np.ndarray, tol: float) -> np.ndarray:
    """Rows c_r of C with G = sum_r c_r c_r^T to tol in every entry, for the
    complex-symmetric Cauchy matrix G_ab = 1 / (x_a + x_b), |G| given.

    Unconjugated symmetric elimination. Eliminating the pivot p leaves the
    residual E_ab = w_a w_b G_ab, with w (ones at the start) multiplied by
    (x - x_p) / (x + x_p): the Schur complement of a Cauchy matrix. So each
    entry of E costs O(1) and carries no cancellation, and an exactly
    degenerate x_a = x_p drops out with w_p = 0. The pivot is the largest
    diagonal entry E_ii if above tol and at least BUNCH_ALPHA times its
    row's largest entry (O(n)); else one n^2 scan finds the largest entry
    E_ij, stops within tol and otherwise pivots on the pair (i, j) as two
    rows along e_i +- e_j, with pivots of at least 2 (1 - BUNCH_ALPHA)
    |E_ij| while E_ii > tol (Bunch & Parlett's complete pivoting). Random
    clouds of 40-320 atoms take 1-13 scans, cubic lattices up to n/3.
    """
    n = len(x)
    w = np.ones(n, dtype=complex)
    rows = []
    while True:
        mag = np.abs(w)
        diag = mag * mag * G_abs.diagonal()
        i = int(np.argmax(diag))
        ci = w[i] * w / (x[i] + x)
        if diag[i] > tol and abs(ci[i]) >= BUNCH_ALPHA * np.max(np.abs(ci)):
            rows.append(ci / np.sqrt(ci[i]))
            w *= (x - x[i]) / (x + x[i])
            continue
        E_abs = G_abs * np.outer(mag, mag)
        i, j = divmod(int(np.argmax(E_abs)), n)
        if not E_abs[i, j] > tol:
            return np.array(rows)
        ci, cj = w[i] * w / (x[i] + x), w[j] * w / (x[j] + x)
        diag_sum = ci[i] + cj[j]
        s = 1.0 if abs(diag_sum + 2 * ci[j]) >= abs(diag_sum - 2 * ci[j]) else -1.0
        g = ci + s * cj
        c1 = g / np.sqrt(g[i] + s * g[j])
        g = ci - s * cj - c1 * (c1[i] - s * c1[j])
        rows += [c1, g / np.sqrt(g[i] - s * g[j])]
        w *= (x - x[i]) * (x - x[j]) / ((x + x[i]) * (x + x[j]))


def _eigen_kernel(lam: np.ndarray, P: np.ndarray, Q: np.ndarray, delta: float):
    """Sylvester inverse in the eigenbasis Z = P diag(lam) Q with Q = P^-1,
    as (G, K, R): the Cauchy matrix G of X -> P (G o (Q X Q^T)) P^T, the
    Schur complement K of the diagonal multipliers, and the rank R of the
    skeleton of G that K is built from (module docstring): K = sum_r X_r o X_r
    with X_r = P diag(c_r) Q, one row c_r of C each.
    ResonantSingularityError when G is not finite (an exact resonance).
    """
    n = len(lam)
    x = lam - 1j * delta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G = 1.0 / (x[:, None] + x[None, :])
        G_abs = np.abs(G)
    tol = SKELETON_RTOL * float(np.max(G_abs))
    if not np.isfinite(tol):
        raise ResonantSingularityError(delta, np.inf)
    C = _skeleton(x, G_abs, tol)
    del G_abs
    # K_ij = sum_r X_r[i, j]^2 for j >= i, m rows at a time: the m-row
    # slabs of all R products X_r stack into one product of n to 2n rows,
    # so K's upper triangle takes ~R n^3 / 2 complex multiply-adds in
    # n / m products; the lower triangle is mirrored
    R = len(C)
    m = -(-n // R)
    K = np.empty((n, n), dtype=complex)
    for lo in range(0, n, m):
        hi = min(lo + m, n)
        X = (C[:, None, :] * P[None, lo:hi, :]).reshape(-1, n) @ Q[:, lo:]
        X *= X
        X.reshape(R, hi - lo, -1).sum(axis=0, out=K[lo:hi, lo:])
    lower = np.tril_indices(n, -1)
    K[lower] = K.T[lower]
    return G, K, R


def _project(P: np.ndarray, Q: np.ndarray, G: np.ndarray, K_inv: np.ndarray,
             rhs: np.ndarray) -> np.ndarray:
    """Projected Sylvester solve of one pair vector.

    The Sylvester inverse X -> P (G o (Q X Q^T)) P^T is applied once, to
    the pairs plus the multipliers d = -K_inv diag(S_B): diag(S_B) is read
    off P (G o Y) before the last product, and Q diag(d) Q^T is
    (Q * d) Q^T. That is six n^3 products, against eight for two separate
    applications. It calls np.multiply(G, ...), not G * (...), which numpy
    may evaluate in place in the temporary as (...) * G, rounding
    differently; naming the temporary instead would keep one more n x n
    array alive.
    """
    n = len(P)
    PY = P @ np.multiply(G, Q @ scatter_pairs(rhs, n) @ Q.T)
    d = K_inv @ -np.einsum("ij,ij->i", PY, P)
    I, J = pair_arrays(n)
    return ((PY + P @ np.multiply(G, (Q * d) @ Q.T)) @ P.T)[I, J]


def solve_v(coupling, delta: float, u: np.ndarray) -> np.ndarray:
    """Pair correlations v over unordered pairs (lexicographic order).

    Projected Sylvester solve (see the module docstring), refined through
    pair_map_apply until the residual meets RESIDUAL_TOL; at least one
    refinement step is always taken. Z must be symmetric to
    SYMMETRY_RTOL relative, or AsymmetricCouplingError is raised; the
    ResonantSingularityError of a Z that eigenbasis refuses (kappa >
    EIG_COND_GUARD) is passed on.
    """
    Z = coupling
    n = len(Z)
    if pair_count(n) == 0:
        return np.zeros(0, dtype=complex)
    asym = float(np.max(np.abs(Z - Z.T)))
    scale = float(np.max(np.abs(Z)))
    if not asym <= SYMMETRY_RTOL * scale:
        raise AsymmetricCouplingError(asym, scale)
    b = pair_rhs(Z, u)
    lam, P, Q = eigenbasis(Z, delta)
    G, K, rank = _eigen_kernel(lam, P, Q, delta)
    K_inv = _inverse_checked(K, delta)

    v = _project(P, Q, G, K_inv, b)
    r = b - pair_map_apply(Z, delta, v)
    for steps in range(1, REFINE_STEPS + 1):
        v = v + _project(P, Q, G, K_inv, r)
        r = b - pair_map_apply(Z, delta, v)
        res = float(np.max(np.abs(r)))
        if res <= RESIDUAL_TOL:
            break
    log.debug("skeleton rank %d of %d; refinement steps %d, residual %.3e",
              rank, n, steps, res)
    if not res <= RESIDUAL_TOL:
        raise SolverConvergenceError(res, REFINE_STEPS)
    return v


# ----------------------------------------------------------------------
# state objects
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbState:
    """Steady-state amplitudes for a block of atoms.

    u, w are indexed locally; v runs over local unordered pairs in
    lexicographic order; atoms records the original labels.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    delta: float
    eta: float
    atoms: tuple[int, ...]

    def __post_init__(self):
        for a in (self.u, self.v, self.w):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.u)

    def local_index(self, atom: int) -> int:
        """Local position of an atom label; PartitionError if absent."""
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise PartitionError(f"atom {atom} not present in the solved state") from None

    def v_pair(self, i: int, j: int) -> complex:
        """Pair correlation for local indices i != j in 0..n-1."""
        if i == j:
            raise ValueError("pair correlation needs two distinct atoms")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"local indices {i}, {j} outside 0..{self.n - 1}")
        return complex(self.v[pair_index(i, j, self.n)])

    def v_matrix(self) -> np.ndarray:
        return scatter_pairs(self.v, self.n)


def steady_state(coupling, drive, ens) -> PerturbState:
    """Solve both amplitude systems for an ensemble under a drive."""
    w = drive.w(ens)
    u = solve_u(coupling, drive.delta, w)
    v = solve_v(coupling, drive.delta, u)
    return PerturbState(
        u=u, v=v, w=w, delta=drive.delta, eta=drive.eta, atoms=tuple(range(ens.n))
    )


def restrict_state(state: PerturbState, subset: Iterable[int]) -> PerturbState:
    """Amplitudes of a subensemble: u, v sliced, never re-solved.

    subset lists original atom labels; their order fixes the local basis
    order of the restricted state. A label listed twice raises
    PartitionError.
    """
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be non-empty")
    if len(set(subset)) < len(subset):
        repeated = sorted({a for a in subset if subset.count(a) > 1})
        raise PartitionError(f"atoms {repeated} listed more than once in the subset")
    local = [state.local_index(a) for a in subset]
    m = len(local)
    u = state.u[local]
    w = state.w[local]
    I, J = pair_arrays(m)
    loc = np.asarray(local)
    v = state.v[pair_index(loc[I], loc[J], state.n)]
    return PerturbState(
        u=u, v=np.array(v, dtype=complex), w=np.array(w, dtype=complex),
        delta=state.delta, eta=state.eta, atoms=subset,
    )


def assemble_state(state: PerturbState) -> np.ndarray:
    """Second-order density matrix of the normalised driven state, a
    read-only Hermitian array on {ground, singles, pairs} in the local
    order of state.atoms, exact through eta^2.

    Ground population carries the -eta^2 sum|u|^2 correction, so the trace
    is one through second order.
    """
    n = state.n
    eta = state.eta
    dim = basis_dim(n)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0 - eta**2 * float(np.sum(np.abs(state.u) ** 2))
    rho[1 : 1 + n, 0] = eta * state.u
    rho[0, 1 : 1 + n] = eta * np.conj(state.u)
    rho[1 : 1 + n, 1 : 1 + n] = eta**2 * np.outer(state.u, np.conj(state.u))
    if n > 1:
        I, J = pair_arrays(n)
        amp = eta**2 * (state.u[I] * state.u[J] + state.v)
        rho[1 + n :, 0] = amp
        rho[0, 1 + n :] = np.conj(amp)
    rho.setflags(write=False)
    return rho


def pair_correlation(state: PerturbState, atom_i: int, atom_j: int) -> np.ndarray:
    """rho_ij - rho_i x rho_j for two atoms, on the basis {gg, ge, eg, ee}.

    At second order only the gg-ee corner survives: eta^2 conj(v) |gg><ee|
    plus its conjugate.
    """
    if atom_i == atom_j:
        raise ValueError("pair correlation needs two distinct atoms")
    i = state.local_index(atom_i)
    j = state.local_index(atom_j)
    v = state.v_pair(i, j)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 3] = state.eta**2 * np.conj(v)
    out[3, 0] = state.eta**2 * v
    return out
