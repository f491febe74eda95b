"""Partial transpose, negativity, and the drive-strength model per mode.

The second-order partial transpose of an (A, B) block lives on the
truncated basis {ground, singles, pairs} of the A u B atoms, with A atoms
numbered first. Its small eigenvalues are controlled by the pair-
correlation operator V (entries v_munu with mu in A, nu in B): the
non-zero eigenvalues of V + V^dag come in +/- pairs equal to the singular
values of V, and each negative mode closes at a finite drive strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import pair_arrays
from .errors import PartitionError, ThresholdNotApplicableError
from .geometry import Partition
from .perturbation import PerturbState, restrict_state

DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class PartialTransposeMatrix:
    """Hermitian second-order partial transpose on the truncated basis.

    Only the non-zero blocks are stored: ``core``, the [ground, singles]
    block, and ``pair_col``, the ground-to-pairs column c. The pair-pair and
    single-pair blocks vanish at second order.
    """

    core: np.ndarray
    pair_col: np.ndarray
    n_a: int
    n_b: int
    atoms: tuple[int, ...]

    def __post_init__(self):
        self.core.setflags(write=False)
        self.pair_col.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.core.shape[0] + len(self.pair_col)

    @property
    def matrix(self) -> np.ndarray:
        """The full dim x dim matrix, built on demand."""
        k = self.core.shape[0]
        P = np.zeros((self.dim, self.dim), dtype=complex)
        P[:k, :k] = self.core
        P[0, k:] = self.pair_col
        P[k:, 0] = np.conj(self.pair_col)
        return P


def build_pt_matrix(state: PerturbState, part: Partition) -> PartialTransposeMatrix:
    """Partial transpose over group B.

    The state is restricted to sorted(A) + sorted(B) first, so embedding the
    partition in a larger solved ensemble keeps the full-ensemble u and v.
    """
    atoms_a = tuple(sorted(part.group_a))
    atoms_b = tuple(sorted(part.group_b))
    for a in atoms_a + atoms_b:
        if a not in state.atoms:
            raise PartitionError(f"atom {a} not present in the solved state")
    sub = restrict_state(state, atoms_a + atoms_b)
    na, nb = len(atoms_a), len(atoms_b)
    n = na + nb
    e2 = sub.eta**2
    u = sub.u
    in_a = np.arange(n) < na

    core = np.empty((n + 1, n + 1), dtype=complex)
    core[0, 0] = 1.0 - e2 * float(np.sum(np.abs(u) ** 2))
    core[0, 1:] = sub.eta * np.where(in_a, np.conj(u), u)
    core[1:, 0] = np.conj(core[0, 1:])
    # same-group coherences u_a u_b^*, cross-group u_a u_b + v_ab; rows in B
    # are conjugated
    block = np.where(
        in_a[:, None] == in_a[None, :],
        np.outer(u, np.conj(u)),
        np.outer(u, u) + sub.v_matrix(),
    )
    core[1:, 1:] = e2 * np.where(in_a[:, None], block, np.conj(block))

    I, J = pair_arrays(n)
    amp = e2 * (u[I] * u[J] + sub.v)
    pair_col = np.where(J < na, np.conj(amp), np.where(I >= na, amp, e2 * np.conj(u[I]) * u[J]))
    return PartialTransposeMatrix(
        core=core, pair_col=pair_col, n_a=na, n_b=nb, atoms=atoms_a + atoms_b
    )


def pt_negativity(pt: PartialTransposeMatrix) -> tuple[float, np.ndarray]:
    """Negativity (absolute sum of negative eigenvalues) and the spectrum.

    The pairs couple only to the ground state, through c, so the spectrum is
    that of the (n + 2) core on [ground, singles, c/|c|] (the stored block
    bordered by |c|) plus M - 1 exact zeros; it is returned in full,
    ascending.
    """
    k = pt.core.shape[0]
    bordered = np.zeros((k + 1, k + 1), dtype=complex)
    bordered[:k, :k] = pt.core
    bordered[0, k] = bordered[k, 0] = np.linalg.norm(pt.pair_col)
    spectrum = np.sort(
        np.concatenate([np.linalg.eigvalsh(bordered), np.zeros(len(pt.pair_col) - 1)])
    )
    neg = float(-spectrum[spectrum < 0].sum())
    return neg, spectrum


# ----------------------------------------------------------------------
# pair-correlation operator between the groups
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VOperator:
    """n_A x n_B block of pair correlations v between the two groups."""

    matrix: np.ndarray
    atoms_a: tuple[int, ...]
    atoms_b: tuple[int, ...]

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
    atoms_a = tuple(sorted(part.group_a))
    atoms_b = tuple(sorted(part.group_b))
    la = [state.local_index(a) for a in atoms_a]
    lb = [state.local_index(b) for b in atoms_b]
    vmat = state.v_matrix()
    V = vmat[np.ix_(la, lb)]
    return VOperator(matrix=np.array(V, dtype=complex), atoms_a=atoms_a, atoms_b=atoms_b)


def lambda2_spectrum(V: VOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of V + V^dag, descending, with a fixed vector phase.

    Each eigenvector column is rotated so its largest-magnitude component
    is real and positive, keeping reports reproducible.
    """
    H = V.embed()
    vals, vecs = np.linalg.eigh(H)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        j = int(np.argmax(np.abs(col)))
        if abs(col[j]) > 0:
            vecs[:, k] = col * (np.conj(col[j]) / abs(col[j]))
    return vals, vecs


def lambda4_dilute(phi: np.ndarray, w: np.ndarray, delta: float) -> float:
    """Quartic eigenvalue coefficient in the dilute asymptotic form.

    phi is a single-excitation eigenvector over the A u B atoms and w the
    matching drive amplitudes; masked atoms drop out through |w|^4.
    """
    phi = np.asarray(phi, dtype=complex)
    norm = np.linalg.norm(phi)
    if norm == 0:
        raise ValueError("zero eigenvector")
    phi = phi / norm
    w = np.asarray(w, dtype=complex)
    return float((0.25 + delta**2) ** -2 * np.sum(np.abs(w) ** 4 * np.abs(phi) ** 2))


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
    """N(eta) from the per-mode model lambda_q = eta^2 l2 + eta^4 l4."""

    etas: np.ndarray
    values: np.ndarray
    eta_max: Optional[float]
    n_max: float
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
    """
    l2 = np.asarray(lambda2, dtype=float)
    l4 = np.asarray(lambda4, dtype=float)
    etas = np.asarray(eta_grid, dtype=float)
    if len(etas) and (np.any(etas <= 0) or np.any(np.diff(etas) <= 0)):
        raise ValueError("eta grid must be positive and strictly increasing")
    values = model_negativity_at(l2, l4, etas)

    neg = l2 < 0
    eta_thr: Optional[float] = None
    eta_max: Optional[float] = None
    n_max = 0.0
    if np.any(neg) and np.all(l4[neg] > 0):
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
    modes: list[ModeEntry]
    curve: ModelCurve
    eta_max: Optional[float]
    n_max: float
    pt_spectrum: Optional[np.ndarray]
    negativity_pt: Optional[float]
    entanglement: str
    dilute_extrapolated: bool

    def to_dict(self) -> dict:
        d = {
            "eta": self.eta,
            "negativity2": self.negativity2,
            "modes": [m.to_dict() for m in self.modes],
            "curve": {
                "eta": self.curve.etas.tolist(),
                "negativity_model": self.curve.values.tolist(),
            },
            "eta_max": self.eta_max,
            "n_max": self.n_max,
            "eta_threshold": self.curve.eta_threshold,
            "omega_threshold": self.curve.omega_threshold,
            "entanglement": self.entanglement,
            "dilute_extrapolated": self.dilute_extrapolated,
        }
        if self.pt_spectrum is not None:
            d["pt_spectrum"] = self.pt_spectrum.tolist()
            d["negativity_pt"] = self.negativity_pt
        return d


def _default_grid(eta_thr: Optional[float]) -> np.ndarray:
    if eta_thr is not None and np.isfinite(eta_thr) and eta_thr > 0:
        return np.geomspace(eta_thr / 30.0, 2.0 * eta_thr, 121)
    return np.geomspace(1e-3, 1.0, 61)


def negativity_report(
    state: PerturbState,
    part: Partition,
    eta: Optional[float] = None,
    eta_grid: Optional[Sequence[float]] = None,
    include_pt: bool = True,
    dilute_ok: Optional[bool] = None,
) -> NegativityReport:
    """Everything downstream of the solved amplitudes for one partition.

    When diluteness was not established the per-mode thresholds keep the
    asymptotic quartic coefficient and are flagged dilute_extrapolated.
    A zero negativity is reported as entanglement "undetected", never as
    separability.
    """
    if eta is None:
        eta = state.eta
    sub = restrict_state(state, tuple(sorted(part.group_a)) + tuple(sorted(part.group_b)))
    V = build_V(state, part)
    l2, vecs = lambda2_spectrum(V)
    l4 = np.array([lambda4_dilute(vecs[:, k], sub.w, state.delta) for k in range(len(l2))])

    scale = max(1.0, float(np.max(np.abs(l2))) if len(l2) else 1.0)
    degenerate = np.zeros(len(l2), dtype=bool)
    for k in range(len(l2) - 1):
        if abs(l2[k] - l2[k + 1]) <= DEGENERACY_RTOL * scale:
            degenerate[k] = degenerate[k + 1] = True

    flag = dilute_ok is False
    modes = []
    for k in range(len(l2)):
        ez = eta_sign_change(float(l2[k]), float(l4[k]))
        modes.append(
            ModeEntry(
                lambda2=float(l2[k]),
                lambda4=float(l4[k]),
                threshold_omega=ez,
                eta_zero=ez,
                omega_zero=(2.0 * ez if ez is not None else None),
                degenerate=bool(degenerate[k]),
                dilute_extrapolated=flag,
            )
        )

    curve = negativity_model(l2, l4, _default_grid(
        max((m.eta_zero for m in modes if m.eta_zero), default=None)
    ) if eta_grid is None else eta_grid)

    negativity2 = float(eta**2 * V.singular_values().sum())

    pt_spectrum_vals = None
    neg_pt = None
    if include_pt:
        pt = build_pt_matrix(state, part)
        neg_pt, pt_spectrum_vals = pt_negativity(pt)

    return NegativityReport(
        eta=float(eta),
        negativity2=negativity2,
        modes=modes,
        curve=curve,
        eta_max=curve.eta_max,
        n_max=curve.n_max,
        pt_spectrum=pt_spectrum_vals,
        negativity_pt=neg_pt,
        entanglement="detected" if negativity2 > 0.0 else "undetected",
        dilute_extrapolated=flag,
    )
