"""Exact small-system references: rotating-frame Lindblad steady states,
exact negativity, the non-perturbative single-atom state, and a truncated
amplitude propagator.

The rotating frame makes the generator time independent: per unit decay
rate the coherent part is H = -delta N - eta (W + W^dag) with
N = sum sigma^dag sigma and W = sum sigma_mu w_mu*, and the dissipator
carries the collective coefficients z. The drive sign is fixed by the
requirement that the perturbative amplitude equations and the
non-perturbative single-atom fixed point come out of the same generator;
both are enforced in the test suite.

The generator is assembled from the two effective non-Hermitian
Hamiltonians, one Kronecker product each, plus the jump term as one
contraction over the stacked lowering operators. The steady state is one
pivoted LU solve of a real system: the generator restricted to Hermitian
states, in their d^2 real coordinates, with its redundant (0, 0)
population row replaced by the trace functional, gated by the 1-norm
condition number. The solution is scattered into a state that is Hermitian
by construction. A degenerate null space makes that system singular, and
only then does a full eigendecomposition of the complex generator run,
which warns about the degeneracy and whose null vector is Hermitised. The
residual gate always runs on the complex generator.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import pair_arrays, pair_count
from .errors import (
    CapExceededError,
    PropagationError,
    ResonantSingularityError,
    SolverConvergenceError,
)
from .perturbation import PerturbState, _solve_dense_checked, pair_map_apply

N_CAP = 5
NULL_TOL = 1e-10


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def lowering_ops(n: int) -> np.ndarray:
    """Per-atom lowering operators |g><e| on the 2^n product space, stacked
    as a read-only real (n, 2^n, 2^n) array, atom 0 the leading factor.

    The cached array is shared by every caller, hence read-only."""
    d = 2**n
    states = np.arange(d)
    ops = np.zeros((n, d, d))
    for m in range(n):
        bit = 1 << (n - 1 - m)
        excited = states[(states & bit) != 0]
        ops[m, excited ^ bit, excited] = 1.0
    ops.setflags(write=False)
    return ops


@dataclass(frozen=True)
class Liouvillian:
    """Dense generator acting on row-major vectorised density matrices."""

    matrix: np.ndarray
    n: int

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return 2**self.n


def build_liouvillian(coupling, delta: float, w: np.ndarray, eta: float) -> Liouvillian:
    """Rotating-frame generator, time in units of 1/Gamma; hard cap n <= 5.

    With D = sum_ab z_ab s_a^dag s_b the generator is
    rho -> (-iH - D) rho + rho (iH - D^*) + sum_ab 2 Re z_ab s_a rho s_b^dag,
    and rho -> A rho B maps to kron(A, B^T) on the row-major vector.
    """
    n = coupling.n
    if n > N_CAP:
        raise CapExceededError(f"exact solver capped at {N_CAP} atoms, got {n}")
    w = np.asarray(w, dtype=complex)
    d = 2**n
    s = lowering_ops(n)
    eye = np.eye(d)
    Z = coupling.dense()

    # the lowering operators are real, so s_a^dag = s_a^T and D^* = conj(D)
    drive_op = np.tensordot(w.conj(), s, axes=1)
    number = np.einsum("aji,ajk->ik", s, s)
    H = -delta * number - eta * (drive_op + drive_op.conj().T)
    D = np.einsum("aji,ajk->ik", s, np.tensordot(Z, s, axes=1))

    L = np.kron(-1j * H - D, eye)
    L += np.kron(eye, (1j * H - D.conj()).T)
    jump = np.tensordot(2.0 * Z.real, s, axes=1)
    L += np.einsum("aij,akl->ikjl", s, jump).reshape(d * d, d * d)
    return Liouvillian(matrix=L, n=n)


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


def _real_bordered_system(L: np.ndarray, c: HermitianCoords) -> np.ndarray:
    """The generator restricted to Hermitian states, in real coordinates,
    with the (0, 0) population row replaced by the trace functional.

    A Hermitian rho maps to a Hermitian L rho, so the real parts of the
    diagonal and upper rows and the imaginary parts of the upper rows are
    all its equations; the columns of rho_kl and rho_lk = conj(rho_kl)
    combine into one column per real unknown. Blocks are gathered straight
    from the .real/.imag views of L, so no complex copy of L is made.
    """
    d = len(c.diag)
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
    return A


def steady_state_exact(liouv: Liouvillian) -> np.ndarray:
    """Unit-trace null vector of the generator as a Hermitian matrix.

    The steady state is Hermitian, so the equations are solved for its d^2
    real coordinates (`hermitian_coords`). The generator preserves the
    trace, so its row for the (0, 0) population is redundant; replacing it
    by the trace functional leaves one real LU solve, and the solution is
    Hermitian by construction. A degenerate null space makes that bordered
    matrix singular: the condition gate then hands over to a full
    eigendecomposition of the complex generator, which reports the
    degeneracy through a warning and returns the first vector, Hermitised.
    """
    d = liouv.dim
    coords = hermitian_coords(d)
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    try:
        # no detuning belongs to this system; the error never leaves here
        x = _solve_dense_checked(_real_bordered_system(liouv.matrix, coords), rhs, np.nan)
    except ResonantSingularityError:
        vals, vecs = np.linalg.eig(liouv.matrix)
        order = np.argsort(np.abs(vals))
        if len(order) > 1 and np.abs(vals[order[1]]) < NULL_TOL:
            warnings.warn(
                "degenerate steady-state manifold: second eigenvalue modulus "
                f"{np.abs(vals[order[1]]):.2e}",
                stacklevel=2,
            )
        rho = vecs[:, order[0]].reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
    else:
        rho = coords.to_matrix(x)
    # the diagonal of a Hermitian matrix is real
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        # a traceless null vector has no normalised state to gate
        raise SolverConvergenceError(np.inf, 0)
    rho = rho / tr
    residual = float(np.max(np.abs(liouv.matrix @ rho.reshape(-1))))
    if not residual <= NULL_TOL:
        raise SolverConvergenceError(residual, 0)
    return rho


def reduce_state(rho: np.ndarray, keep: Sequence[int], n: int) -> np.ndarray:
    """Partial trace keeping the listed atoms, in the listed order."""
    keep = [int(k) for k in keep]
    if len(set(keep)) != len(keep) or any(not 0 <= k < n for k in keep):
        raise ValueError("keep must list distinct atoms of the ensemble")
    rest = [m for m in range(n) if m not in keep]
    t = rho.reshape((2,) * (2 * n))
    perm = keep + rest + [n + m for m in keep] + [n + m for m in rest]
    k, r = len(keep), len(rest)
    t = t.transpose(perm).reshape(2**k, 2**r, 2**k, 2**r)
    return np.einsum("arbr->ab", t)


def negativity_exact(rho: np.ndarray, b_atoms: Sequence[int], n: int) -> tuple[float, np.ndarray]:
    """Negativity of the full 2^n state, transposing the B-atom indices."""
    d = 2**n
    if rho.shape != (d, d):
        raise ValueError(f"state has wrong dimension for {n} atoms")
    b_atoms = sorted(set(int(b) for b in b_atoms))
    if any(not 0 <= b < n for b in b_atoms):
        raise ValueError("B indices outside the ensemble")
    t = rho.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for m in b_atoms:
        perm[m], perm[n + m] = perm[n + m], perm[m]
    pt = t.transpose(perm).reshape(d, d)
    spectrum = np.linalg.eigvalsh(pt)
    return float(-spectrum[spectrum < 0].sum()), spectrum


# ----------------------------------------------------------------------
# independent-atom fixed point
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiluteProductState:
    """Exact single-atom steady states, valid at any drive strength."""

    populations: np.ndarray
    coherences: np.ndarray

    def single(self, mu: int) -> np.ndarray:
        p = self.populations[mu]
        c = self.coherences[mu]
        return np.array([[1.0 - p, np.conj(c)], [c, p]], dtype=complex)

    def full(self) -> np.ndarray:
        out = np.array([[1.0 + 0j]])
        for mu in range(len(self.populations)):
            out = np.kron(out, self.single(mu))
        return out


def dilute_product_state(w: np.ndarray, delta: float, eta: float) -> DiluteProductState:
    """Populations p = eta^2 |w|^2 / (1/4 + delta^2 + 2 eta^2 |w|^2) and the
    matching coherences (i/2 - delta) p / (eta w*); dark atoms stay in the
    ground state."""
    w = np.asarray(w, dtype=complex)
    p = eta**2 * np.abs(w) ** 2 / (0.25 + delta**2 + 2.0 * eta**2 * np.abs(w) ** 2)
    c = np.zeros_like(w)
    driven = (np.abs(w) > 0) & (eta > 0)
    c[driven] = (0.5j - delta) * p[driven] / (eta * np.conj(w[driven]))
    return DiluteProductState(populations=p.real, coherences=c)


# ----------------------------------------------------------------------
# truncated amplitude propagator
# ----------------------------------------------------------------------

def amplitude_drift(coupling, delta: float, w: np.ndarray, eta: float, amps: np.ndarray) -> np.ndarray:
    """Time derivative of (a_G, a_mu, a_munu) in the two-excitation basis.

    The non-Hermitian drift combines the collective coupling with the
    laser absorption source; the ground amplitude is stationary.
    """
    n = coupling.n
    M = pair_count(n)
    a_g = amps[0]
    a1 = amps[1 : 1 + n]
    a2 = amps[1 + n :]
    out = np.empty_like(amps)
    out[0] = 0.0
    out[1 : 1 + n] = 1j * delta * a1 - coupling.apply(a1) + 1j * eta * w * a_g
    if M:
        I, J = pair_arrays(n)
        flow = pair_map_apply(coupling, 0.0, a2, n)
        out[1 + n :] = 2j * delta * a2 - flow + 1j * eta * (w[J] * a1[I] + w[I] * a1[J])
    return out


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def propagate_truncated(
    coupling,
    delta: float,
    w: np.ndarray,
    eta: float,
    t_final: float = 20.0,
    dt: float = 0.1,
    tol: float = 1e-8,
    dt_min: Optional[float] = None,
) -> PerturbState:
    """Integrate the truncated amplitude equations from the ground state and
    extract (u, v) from the late-time amplitudes.

    Embedded 5(4) stepping; a step whose local error exceeds tol is
    rejected and retried, and shrinking below the dt floor raises.
    """
    n = coupling.n
    w = np.asarray(w, dtype=complex)
    M = pair_count(n)
    if dt_min is None:
        dt_min = max(1e-12 * t_final, 1e-14)

    y = np.zeros(1 + n + M, dtype=complex)
    y[0] = 1.0
    t = 0.0
    h = min(dt, t_final)
    f = lambda state: amplitude_drift(coupling, delta, w, eta, state)
    k1 = f(y)
    while t < t_final:
        if t_final - t <= 1e-14 * t_final:
            break
        h = min(h, t_final - t)
        ks = [k1]
        for s in range(1, 7):
            ys = y + h * sum(a * k for a, k in zip(_DP_A[s], ks))
            ks.append(f(ys))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks))
        err = float(np.max(np.abs(y5 - y4)))
        if err <= tol:
            t += h
            y = y5
            k1 = ks[6]  # FSAL
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * (tol / err) ** 0.2)
            h *= max(factor, 0.2)
        else:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            if h < dt_min:
                raise PropagationError(
                    f"step size {h:.3e} under the floor {dt_min:.3e} at t={t:.3f}"
                )

    if eta == 0.0:
        u = np.zeros(n, dtype=complex)
        v = np.zeros(M, dtype=complex)
    else:
        u = y[1 : 1 + n] / eta
        if M:
            I, J = pair_arrays(n)
            v = y[1 + n :] / eta**2 - u[I] * u[J]
        else:
            v = np.zeros(0, dtype=complex)
    return PerturbState(
        u=u, v=v, w=w.copy(), delta=delta, eta=eta, atoms=tuple(range(n))
    )
