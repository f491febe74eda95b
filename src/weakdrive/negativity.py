"""Partial transpose, negativity, and the drive-strength model per mode.

The second-order partial transpose of an (A, B) block lives on the
truncated basis {ground, singles, pairs} of the A u B atoms, with A atoms
numbered first. Its small eigenvalues are controlled by the pair-
correlation operator V (entries v_munu with mu in A, nu in B): the
non-zero eigenvalues of V + V^dag come in +/- pairs equal to the singular
values of V, and each negative mode closes at a finite drive strength.

The partial transpose is assembled in one place, _UnitCore: the pieces
that do not depend on the drive (u, v, sum|u|^2, the coherence row, the
group-conjugated singles block and |c|) are built once per state, and the
(n + 2) core at any eta is those pieces scaled by 1, eta or eta^2. A grid
of drive strengths costs one stacked eigvalsh per block of cores
(pt_negativity_grid); build_pt_matrix and negativity_report take the same
route at the state's own eta.

build_V, build_pt_matrix, pt_negativity_grid and negativity_report all
restrict the solved state to part.atoms (sorted A, then sorted B) with
restrict_state, so a partition atom absent from the state raises
PartitionError on every path.
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
# complex entries per stack of partial-transpose cores handed to one
# eigvalsh call (512 kB), so memory grows with neither the grid nor n
PT_BLOCK = 1 << 15


@dataclass(frozen=True)
class PartialTransposeMatrix:
    """Hermitian second-order partial transpose on the truncated basis.

    Only the non-zero blocks are stored: ``core``, the [ground, singles]
    block, and ``pair_col``, the ground-to-pairs column c. The pair-pair and
    single-pair blocks vanish at second order.
    """

    core: np.ndarray
    pair_col: np.ndarray

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
    """Partial transpose over group B at the state's drive strength.

    The state is restricted to part.atoms (sorted A, then sorted B) first, so
    embedding the partition in a larger solved ensemble keeps the
    full-ensemble u and v. An atom absent from the state raises
    PartitionError.
    """
    unit = _unit_core(restrict_state(state, part.atoms), len(part.group_a))
    k = len(unit.row) + 1
    return PartialTransposeMatrix(
        core=unit.cores(np.array([state.eta]))[0, :k, :k],
        pair_col=state.eta**2 * unit.pair_col,
    )


def pt_negativity(pt: PartialTransposeMatrix) -> tuple[float, np.ndarray]:
    """Negativity (absolute sum of negative eigenvalues) and the spectrum.

    The pairs couple only to the ground state, through c, so the spectrum is
    that of the (n + 2) core on [ground, singles, c/|c|] (the stored block
    bordered by |c|) plus M - 1 exact zeros; it is returned in full,
    ascending.
    """
    k = pt.core.shape[0]
    bordered = np.zeros((1, k + 1, k + 1), dtype=complex)
    bordered[0, :k, :k] = pt.core
    bordered[0, 0, k] = bordered[0, k, 0] = np.linalg.norm(pt.pair_col)
    spectra = np.linalg.eigvalsh(bordered)
    return float(_negativities(spectra)[0]), _full_spectrum(spectra[0], len(pt.pair_col))


def pt_negativity_grid(state: PerturbState, part: Partition, etas) -> np.ndarray:
    """N_pt at every drive strength of a grid (state.eta is not used).

    The drive-independent pieces are built once; the (n + 2) cores of the
    grid are then stacked and diagonalised in blocks of at most PT_BLOCK
    complex entries, one eigvalsh call per block. Each point is computed
    alone, so its value does not depend on the grid's order or length.
    """
    unit = _unit_core(restrict_state(state, part.atoms), len(part.group_a))
    return _negativities(_core_spectra(unit, np.asarray(etas, dtype=float)))


@dataclass(frozen=True)
class _UnitCore:
    """The partial transpose of a restricted state at unit drive, split by
    the power of eta each piece carries."""

    s: float  # sum |u|^2: the ground entry is 1 - eta^2 s
    row: np.ndarray  # ground-to-singles row, scaled by eta
    block: np.ndarray  # singles block, scaled by eta^2
    pair_col: np.ndarray  # ground-to-pairs column c, scaled by eta^2
    border: float  # |c|

    def cores(self, etas: np.ndarray) -> np.ndarray:
        """Stack of the (n + 2) cores on [ground, singles, c/|c|], one per eta."""
        n = len(self.row)
        e2 = etas**2
        out = np.zeros((len(etas), n + 2, n + 2), dtype=complex)
        out[:, 0, 0] = 1.0 - e2 * self.s
        out[:, 0, 1 : n + 1] = etas[:, None] * self.row
        out[:, 1 : n + 1, 0] = np.conj(out[:, 0, 1 : n + 1])
        # in place: a broadcast temporary would cost several times the product
        np.multiply(e2[:, None, None], self.block, out=out[:, 1 : n + 1, 1 : n + 1])
        out[:, 0, n + 1] = out[:, n + 1, 0] = e2 * self.border
        return out


def _unit_core(sub: PerturbState, na: int) -> _UnitCore:
    """Unit-drive pieces of the partial transpose over the atoms after the
    first na of sub."""
    n = sub.n
    u = sub.u
    in_a = np.arange(n) < na
    # same-group coherences u_a u_b^*, cross-group u_a u_b + v_ab; rows in B
    # are conjugated
    block = np.where(
        in_a[:, None] == in_a[None, :],
        np.outer(u, np.conj(u)),
        np.outer(u, u) + sub.v_matrix(),
    )
    I, J = pair_arrays(n)
    amp = u[I] * u[J] + sub.v
    pair_col = np.where(J < na, np.conj(amp), np.where(I >= na, amp, np.conj(u[I]) * u[J]))
    return _UnitCore(
        s=float(np.sum(np.abs(u) ** 2)),
        row=np.where(in_a, np.conj(u), u),
        block=np.where(in_a[:, None], block, np.conj(block)),
        pair_col=pair_col,
        border=float(np.linalg.norm(pair_col)),
    )


def _core_spectra(unit: _UnitCore, etas: np.ndarray) -> np.ndarray:
    """Ascending core eigenvalues at every eta, one row per point."""
    k = len(unit.row) + 2
    step = max(1, PT_BLOCK // (k * k))
    out = np.empty((len(etas), k))
    for lo in range(0, len(etas), step):
        out[lo : lo + step] = np.linalg.eigvalsh(unit.cores(etas[lo : lo + step]))
    return out


def _negativities(spectra: np.ndarray) -> np.ndarray:
    # abs, not negation: an empty sum must give +0.0, never -0.0
    return np.abs(np.where(spectra < 0, spectra, 0.0).sum(axis=-1))


def _full_spectrum(core_spectrum: np.ndarray, pairs: int) -> np.ndarray:
    """Core eigenvalues plus the pairs - 1 exact zeros, ascending."""
    return np.sort(np.concatenate([core_spectrum, np.zeros(pairs - 1)]))


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
    The grid must be non-negative and strictly increasing; at eta = 0 the
    model value is 0.
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
            "eta_max": self.curve.eta_max,
            "n_max": self.curve.n_max,
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
    sub = restrict_state(state, part.atoms)
    V = build_V(state, part)
    l2, vecs = lambda2_spectrum(V)
    l4 = lambda4_dilute(vecs, sub.w, state.delta)

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

    negativity2 = float(state.eta**2 * V.singular_values().sum())

    pt_spectrum_vals = None
    neg_pt = None
    if include_pt:
        spectra = _core_spectra(_unit_core(sub, len(part.group_a)), np.array([state.eta]))
        neg_pt = float(_negativities(spectra)[0])
        pt_spectrum_vals = _full_spectrum(spectra[0], len(sub.v))

    return NegativityReport(
        eta=float(state.eta),
        negativity2=negativity2,
        modes=modes,
        curve=curve,
        pt_spectrum=pt_spectrum_vals,
        negativity_pt=neg_pt,
        entanglement="detected" if negativity2 > 0.0 else "undetected",
        dilute_extrapolated=flag,
    )
