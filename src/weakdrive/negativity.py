"""Partial transpose, negativity, and the drive-strength model per mode.

The second-order partial transpose of an (A, B) block lives on the
truncated basis {ground, singles, pairs} of the A u B atoms, with A atoms
numbered first. Its small eigenvalues are controlled by the pair-
correlation operator V (entries v_munu with mu in A, nu in B): the
non-zero eigenvalues of V + V^dag come in +/- pairs equal to the singular
values of V, and each negative mode closes at a finite drive strength.

The pairs couple only to the ground state, through one column c, so the
spectrum is that of an (n + 2) core on [ground, singles, c/|c|] plus
exact zeros. Only eta changes along a sweep: the ground entry is
1 - eta^2 sum|u|^2, the ground row is eta times a fixed row, and the
singles block B and the border |c| are eta^2 times fixed ones. So a
PartialTransposeMatrix diagonalises B once per restricted state,
B = U diag(beta) U^dag, and rotates the phase of each column of U until the
ground row is real and non-negative on it. On [ground, rotated columns of
U, c/|c|] the core at any eta is the real symmetric arrowhead with diagonal
(1 - eta^2 s, eta^2 beta, 0) and ground border (eta |row U|, eta^2 |c|)
(O'Leary & Stewart, J. Comput. Phys. 90, 1990). PartialTransposeMatrix.cores
is the only place these formulas live. pt_negativity diagonalises the core
at the object's own eta as a stack of one, and pt_negativity_grid the
cores of a grid of drive strengths as stacked real eigvalsh calls, so both
give the same value at the same eta bit for bit.

The solved state is restricted to part.atoms (sorted A, then sorted B) with
restrict_state once per object: build_V and build_pt_matrix each restrict
it, and negativity_report restricts it once and builds V and the partial
transpose from the same restriction and pair matrix. An atom of the
partition absent from the state raises PartitionError on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import pair_arrays
from .errors import ThresholdNotApplicableError
from .geometry import Partition
from .perturbation import PerturbState, restrict_state

DEGENERACY_RTOL = 1e-8
# real entries per stack of partial-transpose cores handed to one eigvalsh
# call (256 kB), so memory grows with neither the grid nor n
PT_BLOCK = 1 << 15


@dataclass(frozen=True)
class PartialTransposeMatrix:
    """Hermitian second-order partial transpose of a restricted state.

    The drive-independent pieces are kept, each split from the power of
    eta it carries, so one object serves every drive strength (cores);
    eta is the drive strength of the state it was built from. At that eta,
    ``pair_col`` is the ground-to-pairs column c (the pair-pair and
    single-pair blocks vanish at second order) and ``core`` is the (n + 2)
    real symmetric arrowhead that carries the rest of the spectrum, on the
    basis [ground, columns of ``singles_basis``, c/|c|]. ``singles_basis``
    holds the eigenvectors of the singles block as columns, each
    phase-rotated so that the ground row is real and non-negative on it;
    ``core`` has the block's eigenvalues on its diagonal, the ground row and
    |c| on its first row and column, and zeros elsewhere.
    """

    eta: float
    s: float  # sum |u|^2: the ground entry is 1 - eta^2 s
    beta: np.ndarray  # eigenvalues of the singles block, scaled by eta^2
    reach: np.ndarray  # |ground row| on singles_basis, scaled by eta
    singles_basis: np.ndarray
    unit_pair_col: np.ndarray  # c, scaled by eta^2
    border: float  # |c|, scaled by eta^2

    def __post_init__(self):
        for a in (self.beta, self.reach, self.singles_basis, self.unit_pair_col):
            a.setflags(write=False)

    def cores(self, etas: np.ndarray) -> np.ndarray:
        """Stack of the real (n + 2) arrowheads on [ground, singles_basis,
        c/|c|], one per eta."""
        n = len(self.beta)
        e2 = etas**2
        diag = np.arange(1, n + 1)
        out = np.zeros((len(etas), n + 2, n + 2))
        out[:, 0, 0] = 1.0 - e2 * self.s
        out[:, 0, 1 : n + 1] = out[:, 1 : n + 1, 0] = etas[:, None] * self.reach
        out[:, diag, diag] = e2[:, None] * self.beta
        out[:, 0, n + 1] = out[:, n + 1, 0] = e2 * self.border
        return out

    @property
    def core(self) -> np.ndarray:
        return self.cores(np.array([self.eta]))[0]

    @property
    def pair_col(self) -> np.ndarray:
        return self.eta**2 * self.unit_pair_col

    @property
    def dim(self) -> int:
        return 1 + len(self.beta) + len(self.unit_pair_col)

    @property
    def matrix(self) -> np.ndarray:
        """The full dim x dim matrix on the original truncated basis,
        built on demand."""
        k = len(self.beta) + 1
        W = self.singles_basis
        core = self.core
        P = np.zeros((self.dim, self.dim), dtype=complex)
        P[0, 0] = core[0, 0]
        P[0, 1:k] = W.conj() @ core[0, 1:k]
        P[1:k, 0] = np.conj(P[0, 1:k])
        P[1:k, 1:k] = (W * np.diagonal(core)[1:k]) @ W.conj().T
        P[0, k:] = self.pair_col
        P[k:, 0] = np.conj(P[0, k:])
        return P


def _restricted_pt(sub: PerturbState, vmat: np.ndarray, na: int) -> PartialTransposeMatrix:
    """Partial transpose over the atoms after the first na of sub; vmat is
    sub.v_matrix()."""
    n = sub.n
    u = sub.u
    in_a = np.arange(n) < na
    # same-group coherences u_a u_b^*, cross-group u_a u_b + v_ab; rows in B
    # are conjugated
    block = np.where(in_a[:, None] == in_a[None, :], np.outer(u, np.conj(u)), np.outer(u, u) + vmat)
    beta, U = np.linalg.eigh(np.where(in_a[:, None], block, np.conj(block)))
    row = np.where(in_a, np.conj(u), u) @ U
    reach = np.abs(row)
    # rotate each eigenvector so the ground row is real and >= 0 on it
    phase = np.divide(np.conj(row), reach, out=np.ones(n, dtype=complex), where=reach > 0)
    I, J = pair_arrays(n)
    amp = u[I] * u[J] + sub.v
    pair_col = np.where(J < na, np.conj(amp), np.where(I >= na, amp, np.conj(u[I]) * u[J]))
    return PartialTransposeMatrix(
        eta=sub.eta,
        s=float(np.sum(np.abs(u) ** 2)),
        beta=beta,
        reach=reach,
        singles_basis=U * phase,
        unit_pair_col=pair_col,
        border=float(np.linalg.norm(pair_col)),
    )


def build_pt_matrix(state: PerturbState, part: Partition) -> PartialTransposeMatrix:
    """Partial transpose over group B at the state's drive strength.

    The state is restricted to part.atoms (sorted A, then sorted B) first, so
    embedding the partition in a larger solved ensemble keeps the
    full-ensemble u and v. An atom absent from the state raises
    PartitionError.
    """
    sub = restrict_state(state, part.atoms)
    return _restricted_pt(sub, sub.v_matrix(), len(part.group_a))


def pt_negativity(pt: PartialTransposeMatrix) -> tuple[float, np.ndarray]:
    """Negativity (absolute sum of negative eigenvalues) and the spectrum.

    The pairs couple only to the ground state, through c, so the spectrum is
    that of the arrowhead core plus M - 1 exact zeros; it is returned in
    full, ascending. The core is diagonalised as a stack of one, as
    pt_negativity_grid diagonalises its blocks, so both agree bit for bit.
    """
    spectra = np.linalg.eigvalsh(pt.core[None])
    zeros = np.zeros(len(pt.unit_pair_col) - 1)
    return float(_negativities(spectra)[0]), np.sort(np.concatenate([spectra[0], zeros]))


def pt_negativity_grid(pt: PartialTransposeMatrix, etas) -> np.ndarray:
    """N_pt at every drive strength of a grid (pt.eta is not used).

    The real (n + 2) arrowheads of the grid are stacked and diagonalised in
    blocks of at most PT_BLOCK entries, one eigvalsh call per block. Each
    point is computed alone, so its value does not depend on the grid's
    order or length.
    """
    etas = np.asarray(etas, dtype=float)
    k = len(pt.beta) + 2
    step = max(1, PT_BLOCK // (k * k))
    spectra = np.empty((len(etas), k))
    for lo in range(0, len(etas), step):
        spectra[lo : lo + step] = np.linalg.eigvalsh(pt.cores(etas[lo : lo + step]))
    return _negativities(spectra)


def _negativities(spectra: np.ndarray) -> np.ndarray:
    # abs, not negation: an empty sum must give +0.0, never -0.0
    return np.abs(np.where(spectra < 0, spectra, 0.0).sum(axis=-1))


# ----------------------------------------------------------------------
# pair-correlation operator between the groups
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VOperator:
    """n_A x n_B block of pair correlations v between the two groups."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n_a(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_b(self) -> int:
        return self.matrix.shape[1]

    def embed(self) -> np.ndarray:
        """Hermitian embedding [[0, V], [V^dag, 0]] on the singles of A u B."""
        na, nb = self.n_a, self.n_b
        H = np.zeros((na + nb, na + nb), dtype=complex)
        H[:na, na:] = self.matrix
        H[na:, :na] = self.matrix.conj().T
        return H

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)


def build_V(state: PerturbState, part: Partition) -> VOperator:
    """A x B block of the pair correlations of the state restricted to
    part.atoms; an atom absent from the state raises PartitionError."""
    na = len(part.group_a)
    vmat = restrict_state(state, part.atoms).v_matrix()
    return VOperator(matrix=vmat[:na, na:].copy())


def lambda2_spectrum(V: VOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of V + V^dag, descending, with a fixed vector phase.

    Each eigenvector column is rotated so its largest-magnitude component
    is real and positive, keeping reports reproducible.
    """
    vals, vecs = np.linalg.eigh(V.embed())
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    piv = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    # hypot, as abs() of one complex scalar computes it
    mag = np.hypot(piv.real, piv.imag)
    phase = np.divide(np.conj(piv), mag, out=np.ones(len(mag), dtype=complex), where=mag > 0)
    return vals, vecs * phase


def lambda4_dilute(phi: np.ndarray, w: np.ndarray, delta: float) -> float | np.ndarray:
    """Quartic eigenvalue coefficient in the dilute asymptotic form.

    phi is a single-excitation eigenvector over the A u B atoms, or a block
    of them as columns, and w the matching drive amplitudes; masked atoms
    drop out through |w|^4. Returns a float for one vector and an array with
    one coefficient per column for a block.
    """
    phi = np.asarray(phi, dtype=complex)
    norm = np.linalg.norm(phi, axis=0)
    if np.any(norm == 0):
        raise ValueError("zero eigenvector")
    w4 = np.abs(np.asarray(w, dtype=complex)) ** 4
    l4 = (0.25 + delta**2) ** -2 * (w4 @ np.abs(phi / norm) ** 2)
    return float(l4) if phi.ndim == 1 else l4


def threshold_omega(lambda2: float, lambda4: float) -> float:
    """Closing drive per mode, sqrt(|lambda2| / lambda4), as the drive ratio
    eta = Omega / (2 Gamma), i.e. Omega in units of 2 Gamma; twice it is
    Omega / Gamma. Defined only for a negative quadratic and positive
    quartic coefficient."""
    if lambda2 >= 0 or lambda4 <= 0:
        raise ThresholdNotApplicableError(
            f"no sign change for lambda2={lambda2}, lambda4={lambda4}"
        )
    return float(np.sqrt(-lambda2 / lambda4))


def eta_sign_change(lambda2: float, lambda4: float) -> Optional[float]:
    """Drive ratio eta where the modelled eigenvalue crosses zero, or None.

    Same closed form and units as threshold_omega.
    """
    try:
        return threshold_omega(lambda2, lambda4)
    except ThresholdNotApplicableError:
        return None


# ----------------------------------------------------------------------
# per-mode drive model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModelCurve:
    """N(eta) from the per-mode model lambda_q = eta^2 l2 + eta^4 l4.

    n_max is 0.0 when no mode is negative, and None, with eta_max, when a
    negative mode has l4 <= 0: that mode never closes, so the model has no
    maximum.
    """

    etas: np.ndarray
    values: np.ndarray
    eta_max: Optional[float]
    n_max: Optional[float]
    eta_threshold: Optional[float]

    @property
    def omega_threshold(self) -> Optional[float]:
        return None if self.eta_threshold is None else 2.0 * self.eta_threshold


def model_negativity_at(lambda2: np.ndarray, lambda4: np.ndarray, eta) -> np.ndarray:
    x = np.atleast_1d(np.asarray(eta, dtype=float)) ** 2
    lam = x[:, None] * lambda2[None, :] + (x**2)[:, None] * lambda4[None, :]
    return np.sum(np.where(lam < 0, -lam, 0.0), axis=1)


def negativity_model(
    lambda2: Sequence[float], lambda4: Sequence[float], eta_grid: Sequence[float]
) -> ModelCurve:
    """Model curve plus its exact extremum and threshold.

    The extremum is found from one-variable calculus in x = eta^2: on each
    interval between mode-closing points the active set is fixed and the
    stationary point is sum|l2| / (2 sum l4); the best candidate wins.
    A negative mode with l4 <= 0 never closes, so the model grows without
    bound: n_max, eta_max and the threshold are then None. The grid must
    be non-negative and strictly increasing; at eta = 0 the model value
    is 0.
    """
    l2 = np.asarray(lambda2, dtype=float)
    l4 = np.asarray(lambda4, dtype=float)
    etas = np.asarray(eta_grid, dtype=float)
    if len(etas) and (np.any(etas < 0) or np.any(np.diff(etas) <= 0)):
        raise ValueError("eta grid must be non-negative and strictly increasing")
    values = model_negativity_at(l2, l4, etas)

    neg = l2 < 0
    eta_thr: Optional[float] = None
    eta_max: Optional[float] = None
    n_max: Optional[float] = 0.0
    if not np.all(l4[neg] > 0):
        n_max = None
    elif np.any(neg):
        closing = np.zeros(len(l2))  # per-mode closing point in x = eta^2
        closing[neg] = -l2[neg] / l4[neg]
        eta_thr = float(np.sqrt(closing.max()))
        candidates = set(closing[neg].tolist())
        lo = 0.0
        for hi in sorted(candidates):
            active = closing >= hi
            xstar = float(np.sum(-l2[active]) / (2.0 * np.sum(l4[active])))
            if lo < xstar <= hi:
                candidates.add(xstar)
            lo = hi
        for x in candidates:
            val = float(model_negativity_at(l2, l4, np.sqrt(x))[0])
            if val > n_max:
                n_max = val
                eta_max = float(np.sqrt(x))
    return ModelCurve(
        etas=etas, values=values, eta_max=eta_max, n_max=n_max, eta_threshold=eta_thr
    )


# ----------------------------------------------------------------------
# full report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModeEntry:
    lambda2: float
    lambda4: float
    threshold_omega: Optional[float]
    eta_zero: Optional[float]
    omega_zero: Optional[float]
    degenerate: bool
    dilute_extrapolated: bool

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass(frozen=True)
class NegativityReport:
    eta: float
    negativity2: float
    lambda2: np.ndarray
    lambda4: np.ndarray
    modes: list[ModeEntry]
    curve: ModelCurve
    pt: PartialTransposeMatrix
    pt_spectrum: np.ndarray
    negativity_pt: float
    entanglement: str
    dilute_extrapolated: bool

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "negativity2": self.negativity2,
            "modes": [m.to_dict() for m in self.modes],
            "curve": {
                "eta": self.curve.etas.tolist(),
                "negativity_model": self.curve.values.tolist(),
            },
            "eta_max": self.curve.eta_max,
            "n_max": self.curve.n_max,
            "eta_threshold": self.curve.eta_threshold,
            "omega_threshold": self.curve.omega_threshold,
            "entanglement": self.entanglement,
            "dilute_extrapolated": self.dilute_extrapolated,
            "pt_spectrum": self.pt_spectrum.tolist(),
            "negativity_pt": self.negativity_pt,
        }


def _default_grid(eta_thr: Optional[float]) -> np.ndarray:
    if eta_thr is not None and np.isfinite(eta_thr) and eta_thr > 0:
        return np.geomspace(eta_thr / 30.0, 2.0 * eta_thr, 121)
    return np.geomspace(1e-3, 1.0, 61)


def negativity_report(
    state: PerturbState,
    part: Partition,
    eta_grid: Optional[Sequence[float]] = None,
    dilute_ok: Optional[bool] = None,
) -> NegativityReport:
    """Everything downstream of the solved amplitudes for one partition.

    The state is restricted once; V and the partial transpose (kept as
    ``pt``, for a grid of drive strengths) are built from that restriction's
    one pair matrix. When diluteness was not established the per-mode
    thresholds keep the asymptotic quartic coefficient and are flagged
    dilute_extrapolated. A zero negativity is reported as entanglement
    "undetected", never as separability.
    """
    sub = restrict_state(state, part.atoms)
    vmat = sub.v_matrix()
    na = len(part.group_a)
    V = VOperator(matrix=vmat[:na, na:].copy())
    l2, vecs = lambda2_spectrum(V)
    l4 = lambda4_dilute(vecs, sub.w, state.delta)

    scale = max(1.0, float(np.max(np.abs(l2))) if len(l2) else 1.0)
    close = np.abs(np.diff(l2)) <= DEGENERACY_RTOL * scale
    degenerate = np.append(close, False) | np.insert(close, 0, False)

    flag = dilute_ok is False
    modes = []
    for a, b, deg in zip(l2.tolist(), l4.tolist(), degenerate.tolist()):
        ez = eta_sign_change(a, b)
        modes.append(ModeEntry(lambda2=a, lambda4=b, threshold_omega=ez, eta_zero=ez,
                               omega_zero=None if ez is None else 2.0 * ez,
                               degenerate=deg, dilute_extrapolated=flag))

    curve = negativity_model(l2, l4, _default_grid(
        max((m.eta_zero for m in modes if m.eta_zero), default=None)
    ) if eta_grid is None else eta_grid)

    negativity2 = float(state.eta**2 * V.singular_values().sum())
    pt = _restricted_pt(sub, vmat, na)
    neg_pt, pt_spectrum = pt_negativity(pt)

    return NegativityReport(
        eta=float(state.eta),
        negativity2=negativity2,
        lambda2=l2,
        lambda4=l4,
        modes=modes,
        curve=curve,
        pt=pt,
        pt_spectrum=pt_spectrum,
        negativity_pt=neg_pt,
        entanglement="detected" if negativity2 > 0.0 else "undetected",
        dilute_extrapolated=flag,
    )
