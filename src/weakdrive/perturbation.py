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
of the Sylvester inverse of e_j e_j^T. For symmetric Z the pair map is
symmetric under <A, B> = tr(A^T B), so K = K^T; solve_v therefore raises
AsymmetricCouplingError when max|Z - Z^T| > SYMMETRY_RTOL max|Z|, before
decomposing. K_ij is a quadratic form x^T G x in x_a = P_ia (P^-1)_aj, built
for j >= i only and with the symmetric G cut into four column blocks of
which those below the diagonal are skipped: ~5n^4/16 complex multiply-adds
in GEMMs through one fixed row buffer of max(K_BLOCK, n^2) entries and a
product buffer a quarter that size. Everything else is O(n^3), and memory
stays O(n^2). When cond(P) exceeds EIG_COND_GUARD (Z near-defective), the
same projection runs on the complex Schur form of Z with LAPACK trsyl
(Bartels-Stewart). Either way the solution is refined through the
operator-form map pair_map_apply, whose residual also gates the result.

PerturbState.local_index maps an atom label to its local position and
raises PartitionError for an atom absent from the state, so every
restriction to a partition fails with that one typed error.
assemble_state returns the second-order density matrix on {ground,
singles, pairs} as a read-only array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy

from .basis import basis_dim, pair_arrays, pair_count, pair_index_table, scatter_pairs
from .errors import (
    AsymmetricCouplingError,
    PartitionError,
    ResonantSingularityError,
    SolverConvergenceError,
)

RESIDUAL_TOL = 1e-10
COND_LIMIT = 1e12
# cond(P) of the eigenvector matrix of Z above which the pair solve leaves
# the eigenbasis for the Schur form: random clouds measure up to ~80 and
# lattices under 5, while the eigen kernel starts losing digits near 2e5
EIG_COND_GUARD = 1e4
# refinement steps of the pair solve; the first is always taken, because
# the absolute residual gate cannot see relative errors in tiny entries
REFINE_STEPS = 3
# complex entries (4 MB) in the row buffer of the K build, which grows to
# n^2 entries when n rows of length n do not fit; its product buffer holds
# a quarter of that
K_BLOCK = 1 << 18
# relative asymmetry of Z above which the pair solve refuses it: the eigen
# kernel builds one triangle of K and mirrors it, which needs Z = Z^T
SYMMETRY_RTOL = 1e-12


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


def _solve_dense_checked(A: np.ndarray, b: np.ndarray, delta: float) -> np.ndarray:
    """Pivoted LU solve behind the condition gate of _inverse_checked."""
    _inverse_checked(A, delta)
    return np.linalg.solve(A, b)


def solve_u(coupling, delta: float, w: np.ndarray) -> np.ndarray:
    """Single-excitation amplitudes from (Z - i delta) u = i w."""
    b = 1j * np.asarray(w, dtype=complex)
    A = coupling.z - 1j * delta * np.eye(coupling.n)
    u = _solve_dense_checked(A, b, delta)
    res = float(np.max(np.abs(A @ u - b)))
    if not res <= RESIDUAL_TOL:
        raise SolverConvergenceError(res, 0)
    return u


def pair_rhs(coupling, u: np.ndarray) -> np.ndarray:
    """Source term z_munu (u_mu^2 + u_nu^2) over unordered pairs."""
    n = len(u)
    I, J = pair_arrays(n)
    return coupling.z[I, J] * (u[I] ** 2 + u[J] ** 2)


def pair_map_apply(coupling, delta: float, v: np.ndarray, n: int) -> np.ndarray:
    """Left-hand map of the pair system applied to a pair vector.

    Uses (Z S)^T = S Z^T for symmetric S, so one matrix product serves
    both terms.
    """
    I, J = pair_arrays(n)
    S = scatter_pairs(v, n)
    ZS = coupling.z @ S
    full = ZS + ZS.T
    return full[I, J] - 2j * delta * v


def _eigen_kernel(P: np.ndarray, lam: np.ndarray, delta: float):
    """Sylvester inverse X -> S in the eigenbasis Z = P diag(lam) P^-1, and
    the Schur complement K of the diagonal multipliers."""
    n = len(lam)
    Q = np.linalg.inv(P)
    Qt = np.ascontiguousarray(Q.T)
    # K_ij = x^T G x with x_a = P_ia Q_aj, for j >= i only: K is symmetric
    # for symmetric Z, so the lower triangle is mirrored. The rows x of
    # consecutive i fill xbuf, which is multiplied by G in four column
    # blocks b into ybuf, a quarter its size. G is symmetric, so the rows a
    # of the blocks left of b are doubled and those right of b skipped:
    # ~5n^4/16 complex multiply-adds in all. Row sums of sum_b (X G_b) o X_b
    # are the forms. An exact resonance leaves G and K non-finite.
    rows = max(K_BLOCK, n * n) // n
    edges = [n * c // 4 for c in range(5)]
    xbuf = np.empty((rows, n), dtype=complex)
    ybuf = np.empty(rows * (n - edges[3]), dtype=complex)  # the widest block
    K = np.zeros((n, n), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G = 1.0 / (lam[:, None] + lam[None, :] - 2j * delta)
        blocks = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi > lo:
                Gb = G[:hi, lo:hi].copy()
                Gb[:lo] *= 2.0
                blocks.append((lo, hi, Gb))
        i = 0
        while i < n:
            first, m = i, 0
            while i < n and m + n - i <= rows:
                np.multiply(Qt[i:], P[i], out=xbuf[m : m + n - i])
                m += n - i
                i += 1
            forms = np.zeros(m, dtype=complex)
            for lo, hi, Gb in blocks:
                XG = ybuf[: m * (hi - lo)].reshape(m, hi - lo)
                np.matmul(xbuf[:m, :hi], Gb, out=XG)
                forms += np.einsum("ij,ij->i", XG, xbuf[:m, lo:hi])
            r = 0
            for k in range(first, i):
                K[k, k:] = forms[r : r + n - k]
                r += n - k
        K += np.triu(K, 1).T

    def sylvester(X):
        return P @ (G * (Q @ X @ Q.T)) @ P.T

    return sylvester, K


def _schur_kernel(Z: np.ndarray, delta: float):
    """Sylvester inverse and K through the complex Schur form Z = U T U^H.

    With S = U Y U^T the map becomes T Y + Y T^T - 2 i delta Y; reversing
    the column order of Y turns T^T into the upper triangular J T^T J, so
    LAPACK trsyl (Bartels-Stewart) takes it directly. trsyl reports common
    eigenvalues of its two triangles, i.e. a resonance, through info.
    scipy.linalg is first loaded here, so only this fallback pays its import.
    """
    n = Z.shape[0]
    T, U = scipy.linalg.schur(Z, output="complex")
    Uc = U.conj()
    A = T - 2j * delta * np.eye(n)
    R = T.T[::-1, ::-1]
    (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (T,))

    def sylvester(X):
        Yj, scale, info = trsyl(A, R, (Uc.T @ X @ Uc)[:, ::-1])
        if info != 0:
            raise ResonantSingularityError(delta, np.inf)
        return U @ (Yj[:, ::-1] / scale) @ U.T

    K = np.column_stack([np.diagonal(sylvester(np.diag(e))) for e in np.eye(n)])
    return sylvester, K


def solve_v(coupling, delta: float, u: np.ndarray) -> np.ndarray:
    """Pair correlations v over unordered pairs (lexicographic order).

    Projected Sylvester solve (see the module docstring), refined through
    pair_map_apply until the residual meets RESIDUAL_TOL; at least one
    refinement step is always taken. Z must be symmetric to
    SYMMETRY_RTOL relative, or AsymmetricCouplingError is raised.
    """
    n = coupling.n
    if pair_count(n) == 0:
        return np.zeros(0, dtype=complex)
    Z = coupling.z
    asym = float(np.max(np.abs(Z - Z.T)))
    scale = float(np.max(np.abs(Z)))
    if not asym <= SYMMETRY_RTOL * scale:
        raise AsymmetricCouplingError(asym, scale)
    I, J = pair_arrays(n)
    b = pair_rhs(coupling, u)
    lam, P = np.linalg.eig(Z)
    if np.linalg.cond(P) <= EIG_COND_GUARD:
        sylvester, K = _eigen_kernel(P, lam, delta)
    else:
        sylvester, K = _schur_kernel(Z, delta)
    K_inv = _inverse_checked(K, delta)

    def project(rhs):
        S = sylvester(scatter_pairs(rhs, n))
        d = K_inv @ -np.diagonal(S)
        return (S + sylvester(np.diag(d)))[I, J]

    v = project(b)
    r = b - pair_map_apply(coupling, delta, v, n)
    for _ in range(REFINE_STEPS):
        v = v + project(r)
        r = b - pair_map_apply(coupling, delta, v, n)
        res = float(np.max(np.abs(r)))
        if res <= RESIDUAL_TOL:
            return v
    raise SolverConvergenceError(res, REFINE_STEPS)


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
        """Pair correlation for local indices i != j."""
        if i == j:
            raise ValueError("pair correlation needs two distinct atoms")
        a, b = min(i, j), max(i, j)
        table = pair_index_table(self.n)
        return complex(self.v[table[a, b]])

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
    order of the restricted state.
    """
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be non-empty")
    local = [state.local_index(a) for a in subset]
    m = len(local)
    u = state.u[local]
    w = state.w[local]
    table = pair_index_table(state.n)
    I, J = pair_arrays(m)
    loc = np.asarray(local)
    v = state.v[table[loc[I], loc[J]]] if m > 1 else np.zeros(0, dtype=complex)
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
