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
built from the symmetries of K and G in ~5n^4/16 complex multiply-adds
through two fixed buffers (see _eigen_kernel). Everything else is O(n^3),
and memory stays O(n^2). P and P^-1 come from eigenbasis, shared with the
exact oracle's levels, which reads off kappa = max_i |p_i| |q_i| (q_i row
i of P^-1), the largest eigenvalue condition number (Golub & Van Loan
7.2.2), never above cond_2(P). Random clouds of 40-640 atoms measure kappa
5-254, lattices and the oracle's levels at most 2, and the eigen kernel
loses digits from kappa ~ 1e5 on. Above EIG_COND_GUARD (Z near-defective)
the same projection runs on the complex Schur form of Z with LAPACK trsyl
(Bartels-Stewart). Either way the solution is refined through the
operator-form map pair_map_apply, whose residual also gates the result.

PerturbState.local_index maps an atom label to its local position and
raises PartitionError for an atom absent from the state, and
restrict_state raises it for a label listed twice, so every restriction
to a partition fails with that one typed error.
assemble_state returns the second-order density matrix on {ground,
singles, pairs} as a read-only array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy

from .basis import basis_dim, pair_arrays, pair_count, scatter_pairs
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
# complex entries (1 MB) in the row buffer of the K build, which grows to
# n^2 entries when n rows of length n do not fit, because a batch holds
# whole row runs; its product buffer holds a quarter of that (256 kB), so
# both stay in cache. It sets the batch size only: 1 << 18 built the same
# K, bit for bit, at n = 40-320
K_BLOCK = 1 << 16
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


def _eigen_kernel(lam: np.ndarray, P: np.ndarray, Q: np.ndarray, delta: float):
    """Sylvester inverse in the eigenbasis Z = P diag(lam) Q with Q = P^-1,
    as the kernel (P, Q, Y -> G o Y), and the Schur complement K of the
    diagonal multipliers."""
    n = len(lam)
    Qt = np.ascontiguousarray(Q.T)
    # K_ij = x^T G x with x_a = P_ia Q_aj, for j >= i only: K is symmetric
    # for symmetric Z, so each row is mirrored into its column. The rows x of
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
                K[k, k:] = K[k:, k] = forms[r : r + n - k]
                r += n - k

    return (P, Q, lambda Y: G * Y), K


def _schur_kernel(Z: np.ndarray, delta: float):
    """Sylvester inverse through the complex Schur form Z = U T U^H, as the
    kernel (U, U^H, solve), and K.

    With S = U Y U^T the map becomes T Y + Y T^T - 2 i delta Y; reversing
    the column order of Y turns T^T into the upper triangular J T^T J, so
    LAPACK trsyl (Bartels-Stewart) takes it directly. trsyl reports common
    eigenvalues of its two triangles, i.e. a resonance, through info.
    scipy.linalg is first loaded here, so only this fallback pays its import.
    """
    n = Z.shape[0]
    T, U = scipy.linalg.schur(Z, output="complex")
    L = U.conj().T
    A = T - 2j * delta * np.eye(n)
    R = T.T[::-1, ::-1]
    (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (T,))

    def solve(Y):
        Yj, scale, info = trsyl(A, R, Y[:, ::-1])
        if info != 0:
            raise ResonantSingularityError(delta, np.inf)
        return Yj[:, ::-1] / scale

    K = np.column_stack([np.diagonal(U @ solve(np.outer(l, l)) @ U.T) for l in L.T])
    return (U, L, solve), K


def _project(kernel, K_inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Projected Sylvester solve of one pair vector.

    The kernel (P, L, solve) writes the Sylvester inverse as
    X -> P solve(L X L^T) P^T. The inverse is applied once, to the pairs
    plus the multipliers d = -K_inv diag(S_B): diag(S_B) is read off P Y
    before the last product, and L diag(d) L^T is (L * d) L^T. That is six
    n^3 products, against eight for two separate applications.
    """
    P, L, solve = kernel
    n = len(P)
    PY = P @ solve(L @ scatter_pairs(rhs, n) @ L.T)
    d = K_inv @ -np.einsum("ij,ij->i", PY, P)
    I, J = pair_arrays(n)
    return ((PY + P @ solve((L * d) @ L.T)) @ P.T)[I, J]


def solve_v(coupling, delta: float, u: np.ndarray) -> np.ndarray:
    """Pair correlations v over unordered pairs (lexicographic order).

    Projected Sylvester solve (see the module docstring), refined through
    pair_map_apply until the residual meets RESIDUAL_TOL; at least one
    refinement step is always taken. Z must be symmetric to
    SYMMETRY_RTOL relative, or AsymmetricCouplingError is raised.
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
    try:
        kernel, K = _eigen_kernel(*eigenbasis(Z, delta), delta)
    except ResonantSingularityError:  # refused by eigenbasis
        kernel, K = _schur_kernel(Z, delta)
    K_inv = _inverse_checked(K, delta)

    v = _project(kernel, K_inv, b)
    r = b - pair_map_apply(Z, delta, v)
    for _ in range(REFINE_STEPS):
        v = v + _project(kernel, K_inv, r)
        r = b - pair_map_apply(Z, delta, v)
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
        return complex(self.v_matrix()[i, j])

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
    a, b = np.minimum(loc[I], loc[J]), np.maximum(loc[I], loc[J])
    # position of the pair (a, b), a < b, in the lexicographic order
    v = state.v[a * (2 * state.n - a - 1) // 2 + b - a - 1]
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
