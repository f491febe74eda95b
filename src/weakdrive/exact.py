"""Exact small-system references: rotating-frame Lindblad steady states,
exact negativity, the non-perturbative single-atom state, and the truncated
amplitude propagator, exp(tA) of the linear amplitude drift A.

The rotating frame makes the generator time independent: per unit decay
rate the coherent part is H = -delta N - eta (W + W^dag) with
N = sum sigma^dag sigma and W = sum sigma_mu w_mu*, and the dissipator
carries the collective coefficients z. The drive sign is fixed by the
requirement that the perturbative amplitude equations and the
non-perturbative single-atom fixed point come out of the same generator;
both are enforced in the test suite.

The generator is kept in operator form, L = L0 + eta L1, and no
d^2 x d^2 matrix is formed to find its steady state. The drive
L1 rho = i[W + W^dag, rho] moves one excitation on either side of rho.
The undriven part is L0 = S + J: S rho = A rho + rho A^dag with
A = i delta N - D keeps every block (k, l) of excitation numbers, and the
jump J rho = sum_ab 2 Re z_ab s_a rho s_b^dag maps block (k + 1, l + 1)
to (k, l). So J is nilpotent, L0 is block triangular over the excitation
levels, and on traceless matrices L0^-1 is one Sylvester solve per block,
taken from the top level down: elementwise, 1/(lambda_i + conj lambda_j),
in the eigenbasis of A on each level (dimension C(n, k)), with the (0, 0)
entry fixed by the trace. The steady state rho = rho_G + X then solves
(I + eta K) X = eta b0 with K = L0^-1 L1 and b0 = -K rho_G, which GMRES
(Saad & Schultz 1986) solves in the real space of Hermitian matrices;
jump and drive act by bit-flip index gathers. GMRES needs more
iterations as the drive grows: about 20 at eta = 0.1 and about 390 at
eta = 2 on five atoms.

Only the shift depends on eta: the Krylov space of I + eta K from b0 is
that of K for every eta (Frommer & Glaessner 1998). So a Liouvillian
keeps its factored levels, b0 and one Arnoldi basis of K for all the
drive strengths solved on it; the basis grows as far as the slowest
point needs, and each point solves its own small least squares problem
on it. A point still unconverged after one cycle (at seven and eight
atoms, at strong drive) restarts on a private basis, dropping the shared
one; at six atoms one cycle already spans GMRES_MAXITER iterations.
Results depend neither on the order of the points nor on what was kept.

A level eigenbasis that perturbation.eigenbasis refuses (kappa above
EIG_COND_GUARD, against at most 2 on five-atom clouds) or a vanishing
Sylvester denominator (dark states, which can leave several steady states)
raises ResonantSingularityError at every n, as the pair solve
perturbation.solve_v does for a Z that eigenbasis refuses. Every returned
state passes the residual gate of the operator-form generator.

The generator is written once, in the level system: A per level, the
jump and drive gathers. Its apply(rho, eta) = L rho serves the residual
gate.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy

from .basis import pair_arrays, pair_count
from .errors import (
    CapExceededError,
    PropagationError,
    ResonantSingularityError,
    SolverConvergenceError,
)
from .perturbation import (
    COND_LIMIT,
    PerturbState,
    eigenbasis,
    pair_map_apply,
)

N_CAP = 8
NULL_TOL = 1e-10
# GMRES stops at this residual relative to the right-hand side
GMRES_RTOL = 1e-13
# GMRES iterations per steady state, and float64 entries of Krylov
# storage, the kept shared basis and a private restart basis together: up
# to five atoms a basis may grow to all d^2 directions unrestarted, so
# GMRES cannot stall there; at six atoms a cycle holds all 1024 iterations,
# so a point unconverged at its end raises; at seven and eight it restarts
# (after 256 and 64 vectors)
GMRES_MAXITER = 1024
KRYLOV_ENTRIES = 1 << 23

log = logging.getLogger("weakdrive.exact")


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Rotating-frame generator L = L0 + eta L1 in operator form, made of
    couplings, detuning and drive amplitudes, time in units of 1/Gamma;
    more than N_CAP atoms raise CapExceededError. It keeps the detuning as
    a float and read-only copies of the coupling and drive arrays, so later
    edits to the caller's arrays do not reach it. Its level system is
    factored on first use and kept for every eta solved on it: solve one
    Liouvillian from one thread at a time. Separate objects share nothing."""

    coupling: np.ndarray
    delta: float
    w: np.ndarray

    def __post_init__(self):
        n = len(self.coupling)
        if n > N_CAP:
            raise CapExceededError(f"exact solver capped at {N_CAP} atoms, got {n}")
        object.__setattr__(self, "delta", float(self.delta))
        for name in ("coupling", "w"):
            value = np.array(getattr(self, name), dtype=complex)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.coupling)

    @property
    def dim(self) -> int:
        return 2**self.n

    @functools.cached_property
    def _levels(self) -> "_LevelSystem":
        return _LevelSystem(self)


# ----------------------------------------------------------------------
# excitation levels
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _LevelTables:
    """The 2^n basis ordered by excitation number, stably, so level k holds
    positions off[k]:off[k + 1]; every table indexes that order.

    rows[k] and cols[k] (k < n) serve the jump into level k: rows[k][a] is
    the position in level k + 1 of each level-k state with atom a raised,
    counted from off[k + 1], and C(n, k + 1) where atom a is already
    excited; cols[k][a] is the same for the states of levels k..n-1, with
    the sentinel d - off[k + 1]."""

    order: np.ndarray  # natural basis index at each position
    pos: np.ndarray  # position of each natural basis index
    off: np.ndarray  # n + 2 level offsets
    excited: np.ndarray  # (n, d): atom a excited at each position
    flip: np.ndarray  # (n, d): position with atom a flipped
    rows: tuple
    cols: tuple


@functools.lru_cache(maxsize=8)
def _level_tables(n: int) -> _LevelTables:
    """Level tables of n atoms, cached and read-only."""
    d = 2**n
    bits = 1 << (n - 1 - np.arange(n))
    level = ((np.arange(d)[None, :] & bits[:, None]) != 0).sum(axis=0)
    order = np.argsort(level, kind="stable")
    pos = np.empty(d, dtype=np.intp)
    pos[order] = np.arange(d)
    off = np.concatenate([[0], np.cumsum(np.bincount(level, minlength=n + 1))])
    excited = (order[None, :] & bits[:, None]) != 0
    flip = pos[order[None, :] ^ bits[:, None]]
    up = np.where(excited, d, flip)
    rows = tuple(
        np.minimum(up[:, off[k] : off[k + 1]] - off[k + 1], off[k + 2] - off[k + 1])
        for k in range(n)
    )
    cols = tuple(up[:, off[k] : off[n]] - off[k + 1] for k in range(n))
    for t in (order, pos, off, excited, flip) + rows + cols:
        t.setflags(write=False)
    return _LevelTables(order, pos, off, excited, flip, rows, cols)


class _LevelSystem:
    """The drive-independent part of one generator on the level-ordered
    basis: A on each level, jump and drive by index gathers, L0^-1 by
    per-block Sylvester solves, the start vector b0 = -K rho_G of
    K = L0^-1 L1 and the Arnoldi basis of K grown from it, which every
    drive strength shares. Construction raises the ResonantSingularityError
    of `factor` when it refuses."""

    def __init__(self, liouv: Liouvillian):
        self.n, self.d = liouv.n, liouv.dim
        self.delta = liouv.delta
        self.t = t = _level_tables(self.n)
        Z = liouv.coupling
        self.jump = 2.0 * Z.real
        self.atoms = np.arange(self.n)[:, None]
        # V = W + W^dag has V[x, flip_a(x)] = w_a if atom a is excited in x,
        # conj(w_a) if not
        self.coef = np.where(t.excited, liouv.w[:, None], liouv.w.conj()[:, None])
        # A = i delta N - D on each level, D_k = sum_ab z_ab E_a^T E_b with
        # E_a the lowering of atom a from level k to level k - 1
        self.A = [np.zeros((1, 1), dtype=complex)]
        for k in range(1, self.n + 1):
            r = t.rows[k - 1]
            c = int(t.off[k + 1] - t.off[k])
            E = np.zeros((self.n, r.shape[1], c + 1))
            E[self.atoms, np.arange(r.shape[1]), r] = 1.0
            E = E[:, :, :c]
            D = E.reshape(-1, c).T @ np.tensordot(Z, E, axes=1).reshape(-1, c)
            self.A.append(1j * self.delta * k * np.eye(c) - D)
        self.krylov = None
        self.factor()

    @property
    def dims(self) -> list:
        return [len(a) for a in self.A]

    def factor(self) -> None:
        """Eigenbasis of A on each level, the Sylvester multipliers
        1/(lambda_i + conj lambda_j) of the blocks k <= l, and b0. Sets
        `smallest`, the smallest denominator |lambda_i + conj lambda_j|
        off the (0, 0) entry; raises ResonantSingularityError when
        eigenbasis refuses a level or a multiplier exceeds COND_LIMIT."""
        lam, self.P, self.Pinv = zip(*(eigenbasis(a, self.delta) for a in self.A))
        self.PinvH = [p.conj().T for p in self.Pinv]
        self.PH = [p.conj().T for p in self.P]
        den = [[lam[k][:, None] + lam[l].conj() for l in range(k, self.n + 1)]
               for k in range(self.n + 1)]
        # the (0, 0) entry is the undriven steady state; the trace fixes it
        den[0][0] = np.ones((1, 1))
        self.smallest = min(float(np.abs(g).min()) for row in den for g in row)
        if not self.smallest * COND_LIMIT >= 1.0:
            raise ResonantSingularityError(
                self.delta, 1.0 / self.smallest if self.smallest else np.inf
            )
        self.G = [[1.0 / g for g in row] for row in den]
        self.G[0][0] = np.zeros((1, 1))
        ground = np.zeros(2 * self.d**2)
        ground[0] = 1.0
        self.b0 = -self.operator(ground)

    def _jump_rows(self, X: np.ndarray, k: int) -> np.ndarray:
        """Rows of level k, columns of levels k..n-1, of J X; no state
        lowers into level n, so its columns vanish."""
        lo, hi = self.t.off[k + 1], self.t.off[k + 2]
        src = np.zeros((hi - lo + 1, self.d - lo + 1), dtype=complex)
        src[:-1, :-1] = X[lo:hi, lo:]
        # [b, y, i]: row i of level k + 1 at the column of y with atom b raised
        raised = src.T[self.t.cols[k]]
        mixed = (self.jump @ raised.reshape(self.n, -1).view(float)).view(complex)
        mixed = mixed.reshape(raised.shape)
        return mixed[self.atoms, :, self.t.rows[k]].sum(axis=0)

    def drive(self, X: np.ndarray) -> np.ndarray:
        """L1 X = i[V, X] for a Hermitian X, where X V = (V X)^dag."""
        VX = np.einsum("ax,axy->xy", self.coef, X[self.t.flip])
        return 1j * (VX - VX.conj().T)

    def solve_undriven(self, Y: np.ndarray) -> np.ndarray:
        """L0^-1 Y: the traceless Hermitian X with L0 X = Y for a traceless
        Hermitian Y, one row of level blocks at a time from the top down."""
        off, n = self.t.off, self.n
        X = np.empty_like(Y)
        for k in range(n, -1, -1):
            a, b = off[k], off[k + 1]
            R = Y[a:b, a:].copy()
            if k < n:
                R[:, : off[n] - a] -= self._jump_rows(X, k)
            M = self.Pinv[k] @ R
            for l in range(k, n + 1):
                s = slice(off[l] - a, off[l + 1] - a)
                M[:, s] = ((M[:, s] @ self.PinvH[l]) * self.G[k][l - k]) @ self.PH[l]
            S = self.P[k] @ M
            X[a:, a:b] = S.conj().T
            X[a:b, a:] = S
            X[a:b, a:b] = 0.5 * (S[:, : b - a] + S[:, : b - a].conj().T)
        X[0, 0] = -X.diagonal()[1:].real.sum()
        return X

    def operator(self, x: np.ndarray) -> np.ndarray:
        """K = L0^-1 L1 on the real view of a d x d Hermitian matrix."""
        X = x.view(complex).reshape(self.d, self.d)
        return self.solve_undriven(self.drive(X)).reshape(-1).view(float)

    def apply(self, rho: np.ndarray, eta: float) -> np.ndarray:
        """L rho of a Hermitian rho on the level-ordered basis."""
        off, n = self.t.off, self.n
        out = eta * self.drive(rho)
        Arho = np.concatenate([A @ rho[off[k] : off[k + 1]] for k, A in enumerate(self.A)])
        out += Arho + Arho.conj().T
        for k in range(n):
            a, b, c = off[k], off[k + 1], off[n]
            S = self._jump_rows(rho, k)
            out[a:b, a:c] += S
            out[b:c, a:b] += S[:, b - a :].conj().T
        return out

    def residual(self, rho: np.ndarray, eta: float) -> float:
        """max |L rho| of a Hermitian rho on the level-ordered basis."""
        return float(np.max(np.abs(self.apply(rho, eta))))

    def steady_state(self, eta: float) -> tuple:
        """rho_G + X with (I + eta K) X = eta b0, K = L0^-1 L1, on the
        level-ordered basis, by GMRES; returns it with the Krylov
        dimension of X (the GMRES iterations) and the residual.

        The first cycle takes the columns it needs of the shared basis;
        an unconverged point restarts from its own residual on a private
        basis, and the shared one is dropped first, so the two never hold
        more than KRYLOV_ENTRIES float64 entries together."""
        d = self.d
        restart = min(d * d, KRYLOV_ENTRIES // (2 * d * d))
        rhs = eta * self.b0
        tol = GMRES_RTOL * float(np.linalg.norm(rhs))
        x = np.zeros_like(rhs)
        r, its = rhs, 0
        beta = float(np.linalg.norm(r))
        while beta > tol:
            if its >= GMRES_MAXITER:
                raise SolverConvergenceError(beta, its, "GMRES iterations")
            if its == 0:
                if self.krylov is None:
                    self.krylov = _Arnoldi(self.b0, restart)
                basis = self.krylov
                # the shared basis starts along b0, so rhs = eta b0 has the
                # signed coefficient eta |b0| on it
                start = math.copysign(beta, eta)
            else:
                self.krylov = basis = None
                basis = _Arnoldi(r, restart)
                start = beta
            m = min(basis.size, GMRES_MAXITER - its)
            y = _shifted_gmres(self.operator, basis, eta, start, tol, m, its)
            x += y @ basis.Q[: len(y)]
            its += len(y)
            r = rhs - (x + eta * self.operator(x))
            beta = float(np.linalg.norm(r))
        ground = np.zeros((d, d), dtype=complex)
        ground[0, 0] = 1.0
        return ground + x.view(complex).reshape(d, d), its, beta


class _Arnoldi:
    """Orthonormal basis Q of the Krylov space of an operator from a real
    start vector, grown one column at a time up to `size` vectors by
    classical Gram-Schmidt run twice. H[j] holds the Hessenberg column
    of apply(Q[j]): its projections on Q[:j + 1] and the norm of the
    remainder, which is Q[j + 1] unless the space is invariant. The
    operator is passed in, not kept, so a basis held by its level system
    forms no reference cycle and is freed as soon as it is dropped."""

    def __init__(self, start: np.ndarray, size: int):
        self.size = size
        self.Q = np.empty((min(size, 32), start.size))
        self.Q[0] = start / np.linalg.norm(start)
        self.H = []

    def column(self, j: int, apply) -> tuple:
        """H[j], growing the basis with `apply` as far as it needs."""
        while len(self.H) <= j:
            k = len(self.H)
            v = apply(self.Q[k])
            h = np.zeros(k + 1)
            for _ in range(2):
                p = self.Q[: k + 1] @ v
                v -= p @ self.Q[: k + 1]
                h += p
            hn = float(np.linalg.norm(v))
            self.H.append((h, hn))
            if k + 1 < self.size and hn > 0.0:
                if k + 1 == len(self.Q):
                    grow = min(len(self.Q), self.size - len(self.Q))
                    self.Q = np.concatenate([self.Q, np.empty((grow, v.size))])
                self.Q[k + 1] = v / hn
        return self.H[j]


def _shifted_gmres(
    apply, basis: _Arnoldi, eta: float, beta: float, tol: float, m: int, its: int
) -> np.ndarray:
    """One GMRES cycle (Saad & Schultz 1986) for I + eta K, K = apply, on
    an Arnoldi basis of K whose first vector is the residual over beta
    (beta = -|r| when the basis starts against the residual). The Krylov
    space of I + eta K is that of K for every eta, with Hessenberg matrix
    I + eta H (Frommer & Glaessner 1998), so Givens rotations run on those
    columns until the residual estimate meets tol or m columns are spent.
    Returns the coefficients y of the update y Q[:len(y)]; a vanishing
    column raises SolverConvergenceError with the iterations so far, the
    `its` of earlier cycles included."""
    R = []  # columns of the triangular factor
    rot = []
    g = [beta]
    for j in range(m):
        h, hn = basis.column(j, apply)
        col = (eta * h).tolist()
        col[j] += 1.0
        sub = eta * hn
        for i, (c, s) in enumerate(rot):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rr = math.hypot(col[j], sub)
        if rr == 0.0:
            raise SolverConvergenceError(abs(g[j]), its + j + 1, "GMRES iterations")
        rot.append((col[j] / rr, sub / rr))
        col[j] = rr
        R.append(col)
        g.append(-rot[j][1] * g[j])
        g[j] *= rot[j][0]
        if abs(g[j + 1]) <= tol:
            break
    k = len(R)
    T = np.zeros((k, k))
    for i, col in enumerate(R):
        T[: i + 1, i] = col
    return np.linalg.solve(T, g[:k])


def steady_state_exact(liouv: Liouvillian, eta: float) -> np.ndarray:
    """Unit-trace Hermitian steady state of liouv at drive strength eta.

    The level route (module docstring) solves for X = rho - rho_G by GMRES
    on (I + eta L0^-1 L1) X = -eta L0^-1 L1 rho_G and never forms the dense
    generator. Its factors and Krylov basis are kept on liouv for the next
    drive strength. A level guard that trips (kappa above EIG_COND_GUARD,
    a Sylvester multiplier above COND_LIMIT) raises ResonantSingularityError;
    GMRES that does not converge raises SolverConvergenceError with its
    residual and iteration count, and every returned state has an
    operator-form residual within NULL_TOL. The route, level dimensions,
    GMRES iterations (the Krylov dimension of the solution), residual and
    smallest Sylvester denominator are logged at DEBUG on weakdrive.exact.
    """
    system = liouv._levels
    rho, iterations, res = system.steady_state(eta)
    log.debug(
        "route levels; level dims %s; gmres iterations %d, residual %.3e; "
        "smallest denominator %.3e",
        system.dims, iterations, res, system.smallest,
    )
    rho = 0.5 * (rho + rho.conj().T)
    # the diagonal of a Hermitian matrix is real
    rho = rho / np.trace(rho).real
    residual = system.residual(rho, eta)
    if not residual <= NULL_TOL:
        raise SolverConvergenceError(residual, iterations, "GMRES iterations")
    return rho[np.ix_(system.t.pos, system.t.pos)]


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
    # abs, not negation: an empty sum must give +0.0, never -0.0
    return float(abs(spectrum[spectrum < 0].sum())), spectrum


# ----------------------------------------------------------------------
# independent-atom fixed point
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
            m = 2 * len(out)
            out = (out[:, None, :, None] * self.single(mu)[None, :, None, :]).reshape(m, m)
        return out


def dilute_product_state(w: np.ndarray, delta: float, eta: float) -> DiluteProductState:
    """Populations p = eta^2 |w|^2 / (1/4 + delta^2 + 2 eta^2 |w|^2) and the
    matching coherences (i/2 - delta) p / (eta w*); dark atoms stay in the
    ground state."""
    w = np.asarray(w, dtype=complex)
    p = eta**2 * np.abs(w) ** 2 / (0.25 + delta**2 + 2.0 * eta**2 * np.abs(w) ** 2)
    c = np.zeros_like(w)
    driven = (np.abs(w) > 0) & (eta != 0)
    c[driven] = (0.5j - delta) * p[driven] / (eta * np.conj(w[driven]))
    return DiluteProductState(populations=p.real, coherences=c)


# ----------------------------------------------------------------------
# truncated amplitude propagator: exp(tA) of the linear drift
# ----------------------------------------------------------------------

def amplitude_drift(coupling, delta: float, w: np.ndarray, eta: float, amps: np.ndarray) -> np.ndarray:
    """Time derivative of (a_G, a_mu, a_munu) in the two-excitation basis.

    The non-Hermitian drift combines the collective coupling with the
    laser absorption source; the ground amplitude is stationary.
    """
    n = len(coupling)
    M = pair_count(n)
    a_g = amps[0]
    a1 = amps[1 : 1 + n]
    a2 = amps[1 + n :]
    out = np.empty_like(amps)
    out[0] = 0.0
    out[1 : 1 + n] = 1j * delta * a1 - coupling @ a1 + 1j * eta * w * a_g
    if M:
        I, J = pair_arrays(n)
        flow = pair_map_apply(coupling, 0.0, a2)
        out[1 + n :] = 2j * delta * a2 - flow + 1j * eta * (w[J] * a1[I] + w[I] * a1[J])
    return out


def propagate_truncated(
    coupling, delta: float, w: np.ndarray, eta: float, t_final: float = 20.0
) -> PerturbState:
    """Propagate the truncated amplitude equations from the ground state
    to t_final and extract (u, v) from the amplitudes there.

    The drift is linear and autonomous, y' = A y, so y(t_final) is the
    first column of exp(t_final A), which scipy.linalg.expm computes by
    scaling and squaring (Al-Mohy & Higham 2009). Column k of A is
    amplitude_drift of unit vector k. Up to N_CAP atoms; amplitudes that
    overflow raise PropagationError.
    """
    n = len(coupling)
    if n > N_CAP:
        raise CapExceededError(f"propagator capped at {N_CAP} atoms, got {n}")
    w = np.asarray(w, dtype=complex)
    M = pair_count(n)
    A = np.column_stack(
        [amplitude_drift(coupling, delta, w, eta, e) for e in np.eye(1 + n + M, dtype=complex)]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        y = scipy.linalg.expm(t_final * A)[:, 0]
    if not np.all(np.isfinite(y)):
        raise PropagationError(f"the propagated amplitudes overflow by t={t_final:g}")

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
