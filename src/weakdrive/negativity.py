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
B = U diag(beta) U^dag. A phase on each column of U makes the ground row
real and non-negative on it, so on [ground, those columns, c/|c|] the core
at any eta is the real symmetric arrowhead with diagonal
(1 - eta^2 s, eta^2 beta, 0) and ground border (eta |row U|, eta^2 |c|)
(O'Leary & Stewart, J. Comput. Phys. 90, 1990); only s, beta, |row U|, |c|
and the pair count are kept. PartialTransposeMatrix.cores is the only place
these formulas live, and pt_negativity the only route to their spectra: it
diagonalises the cores of a grid of drive strengths as stacked real
eigvalsh calls, each point alone, so a point's value does not depend on the
grid around it (negativity_report passes the grid [state.eta]).

The solved state is restricted to part.atoms (sorted A, then sorted B) with
restrict_state once per object: build_V and build_pt_matrix each restrict
it, and negativity_report restricts it once and builds V and the partial
transpose from the same restriction and pair matrix. V is a plain read-only
n_A x n_B complex array. An atom of the partition absent from the state
raises PartitionError on every path.

V is decomposed once, by the SVD in lambda2_spectrum: it gives lambda2, the
mode weights |phi|^2 that lambda4_dilute reads, and negativity2.
negativity_model is the only place that turns the per-mode coefficients
(lambda2, lambda4) into drive numbers: each mode's closing drive, the model
curve N(eta), its threshold and extremum, and the grid estimate of the
threshold that sweeps report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import pair_arrays
from .geometry import Partition
from .perturbation import PerturbState, restrict_state

DEGENERACY_RTOL = 1e-8
# real entries per stack of partial-transpose cores handed to one eigvalsh
# call (256 kB), so memory grows with neither the grid nor n
PT_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class PartialTransposeMatrix:
    """Hermitian second-order partial transpose of a restricted state, kept
    as the pieces of its real arrowhead core.

    Only the drive-independent pieces are kept, each split from the power
    of eta it carries, so one object serves every drive strength (cores).
    The core at eta is the (n + 2) real symmetric arrowhead whose diagonal
    holds 1 - eta^2 s, the singles block eigenvalues and a zero, and whose
    first row and column hold the reach of the ground row onto each
    eigenvector and the border |c| of the ground-to-pairs column (the
    pair-pair and single-pair blocks vanish at second order). The full
    matrix of dimension dim has the core's spectrum plus pairs - 1 exact
    zeros.
    """

    s: float  # sum |u|^2: the ground entry is 1 - eta^2 s
    beta: np.ndarray  # eigenvalues of the singles block, scaled by eta^2
    reach: np.ndarray  # |ground row| on the eigenvectors, scaled by eta
    border: float  # |c|, scaled by eta^2
    pairs: int  # pair count n(n - 1)/2

    def __post_init__(self):
        for a in (self.beta, self.reach):
            a.setflags(write=False)

    def cores(self, etas: np.ndarray) -> np.ndarray:
        """Stack of the real (n + 2) arrowheads, one per eta."""
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
    def dim(self) -> int:
        return 1 + len(self.beta) + self.pairs


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
    # the column c is u_i u_j + v_ij within a group (conjugated within A,
    # which leaves |c| unchanged) and u_i^* u_j across; only |c| enters
    I, J = pair_arrays(n)
    col = np.where((I < na) & (J >= na), np.conj(u[I]) * u[J], u[I] * u[J] + sub.v)
    return PartialTransposeMatrix(
        s=float(np.sum(np.abs(u) ** 2)),
        beta=beta,
        reach=np.abs(np.where(in_a, np.conj(u), u) @ U),
        border=float(np.linalg.norm(col)),
        pairs=len(col),
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


def pt_negativity(pt: PartialTransposeMatrix, etas) -> tuple[np.ndarray, np.ndarray]:
    """N_pt (absolute sum of the negative eigenvalues) and the ascending
    core spectrum at every drive strength of a 1-D grid.

    The real (n + 2) arrowheads of the grid are stacked and diagonalised in
    blocks of at most PT_BLOCK entries, one eigvalsh call per block. Each
    point is computed alone, so its values do not depend on the grid's
    order or length. The full spectrum at a point is its core spectrum
    plus pt.pairs - 1 exact zeros.
    """
    etas = np.asarray(etas, dtype=float)
    k = len(pt.beta) + 2
    step = max(1, PT_BLOCK // (k * k))
    spectra = np.empty((len(etas), k))
    for lo in range(0, len(etas), step):
        spectra[lo : lo + step] = np.linalg.eigvalsh(pt.cores(etas[lo : lo + step]))
    # abs, not negation: an empty sum must give +0.0, never -0.0
    return np.abs(np.where(spectra < 0, spectra, 0.0).sum(axis=-1)), spectra


# ----------------------------------------------------------------------
# pair-correlation operator between the groups
# ----------------------------------------------------------------------

def build_V(state: PerturbState, part: Partition) -> np.ndarray:
    """Read-only A x B block of the pair correlations of the state restricted
    to part.atoms; an atom absent from the state raises PartitionError."""
    na = len(part.group_a)
    V = restrict_state(state, part.atoms).v_matrix()[:na, na:].copy()
    V.setflags(write=False)
    return V


def lambda2_spectrum(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modes of V + V^dag from one SVD of the n_A x n_B block V.

    The Hermitian embedding [[0, V], [V^dag, 0]] has the eigenvalues +/- s,
    s the singular values of V, plus |n_A - n_B| zeros; lambda2 is s, the
    zeros, then -s reversed, so it descends. Returned with it are the mode
    weights |phi|^2 over the A-then-B atoms, one column per mode: the
    eigenvectors for +/- s_i are (u_i, +/- w_i)/sqrt(2) in the singular
    vectors u_i, w_i, so both weigh |u_i|^2/2 on A and |w_i|^2/2 on B, and
    the zero modes are the singular vectors of the larger group that s
    leaves over.
    """
    na, nb = V.shape
    k = min(na, nb)
    U, s, Wh = np.linalg.svd(V)
    pair = np.concatenate([np.abs(U[:, :k]) ** 2, np.abs(Wh[:k].T) ** 2]) / 2
    # n_A - k or n_B - k is 0, so one of the two blocks is empty
    rest = np.zeros((na + nb, abs(na - nb)))
    rest[:na, : na - k] = np.abs(U[:, k:]) ** 2
    rest[na:, na - k :] = np.abs(Wh[k:].T) ** 2
    lambda2 = np.concatenate([s, np.zeros(abs(na - nb)), -s[::-1]])
    return lambda2, np.hstack([pair, rest, pair[:, ::-1]])


def lambda4_dilute(weights: np.ndarray, w: np.ndarray, delta: float) -> np.ndarray:
    """Dilute asymptotic quartic coefficient of each mode: weights holds the
    modes' |phi|^2 over the A u B atoms as columns (from lambda2_spectrum),
    w the matching drive amplitudes; masked atoms drop out through |w|^4."""
    return (0.25 + delta**2) ** -2 * (np.abs(np.asarray(w, dtype=complex)) ** 4 @ weights)


# ----------------------------------------------------------------------
# per-mode drive model
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModelCurve:
    """The per-mode model lambda_q = eta^2 l2 + eta^4 l4 of one partition.

    eta_zero holds each mode's closing drive sqrt(-l2 / l4) as the drive
    ratio eta = Omega / (2 Gamma), None unless l2 < 0 and l4 > 0; values is
    N(eta) on etas. n_max is 0.0 when no mode is negative, and None, with
    eta_max, eta_threshold and eta_sweep_estimate, when the model grows
    without bound.
    """

    etas: np.ndarray
    values: np.ndarray
    eta_zero: tuple[Optional[float], ...]
    eta_max: Optional[float]
    n_max: Optional[float]
    eta_threshold: Optional[float]
    eta_sweep_estimate: Optional[float]

    @property
    def omega_threshold(self) -> Optional[float]:
        return None if self.eta_threshold is None else 2.0 * self.eta_threshold


def _interp_last_sign_change(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    """Linear zero of y in the last cell where it goes from below 0 to >= 0."""
    idx = np.flatnonzero((y[:-1] < 0) & (y[1:] >= 0))
    if len(idx) == 0:
        return None
    k = idx[-1]
    return float(x[k] - y[k] * (x[k + 1] - x[k]) / (y[k + 1] - y[k]))


def negativity_model(
    lambda2: Sequence[float],
    lambda4: Sequence[float],
    eta_grid: Optional[Sequence[float]] = None,
) -> ModelCurve:
    """Model curve, closing drives, exact extremum and grid threshold.

    The extremum is found from one-variable calculus in x = eta^2: on each
    interval between mode-closing points the active set is fixed and the
    stationary point is sum|l2| / (2 sum l4); the best candidate wins.
    A negative mode with l4 <= 0 never closes, and a mode with l2 >= 0 and
    l4 < 0 opens at eta^2 = l2/|l4| and never closes: the model then grows
    without bound. The grid must be non-negative and strictly increasing;
    by default it spans 1/30 to 2 times the largest closing drive, or 1e-3
    to 1. lambda_q is evaluated once, on the grid and the candidates, with
    float_power (libm pow, as the scalar eta**2 and eta**4 are). The grid
    threshold is where the smallest lambda_q last turns non-negative; a
    zero mode (l2 = 0) never changes sign, and its rounding-level eta^4 l4
    would pin that point to the grid, so it is left out.
    """
    l2 = np.asarray(lambda2, dtype=float)
    l4 = np.asarray(lambda4, dtype=float)
    closes = (l2 < 0) & (l4 > 0)
    x_zero = np.divide(-l2, l4, out=np.zeros(len(l2)), where=closes)
    eta_zero = tuple(e if c else None for e, c in zip(np.sqrt(x_zero).tolist(), closes.tolist()))
    top = float(np.sqrt(x_zero.max())) if closes.any() else None
    unbounded = bool(np.any(l4 < 0) or np.any((l2 < 0) & ~closes))
    eta_thr = None if unbounded else top

    if eta_grid is None:
        eta_grid = (np.geomspace(top / 30.0, 2.0 * top, 121) if top and top < np.inf
                    else np.geomspace(1e-3, 1.0, 61))
    etas = np.asarray(eta_grid, dtype=float)
    if len(etas) and (np.any(etas < 0) or np.any(np.diff(etas) <= 0)):
        raise ValueError("eta grid must be non-negative and strictly increasing")

    candidates: list = []
    if eta_thr is not None:
        found = set(x_zero[closes].tolist())
        lo = 0.0
        for hi in sorted(found):
            active = x_zero >= hi
            xstar = float(np.sum(-l2[active]) / (2.0 * np.sum(l4[active])))
            if lo < xstar <= hi:
                found.add(xstar)
            lo = hi
        candidates = list(found)

    e = np.concatenate([etas, np.sqrt(candidates)])[:, None]
    lam = np.float_power(e, 2) * l2 + np.float_power(e, 4) * l4
    n_model = np.sum(np.where(lam < 0, -lam, 0.0), axis=1)
    values, at_candidates = n_model[: len(etas)], n_model[len(etas) :]

    eta_max: Optional[float] = None
    n_max: Optional[float] = None if unbounded else 0.0
    estimate: Optional[float] = None
    if candidates:
        k = int(np.argmax(at_candidates))
        if at_candidates[k] > 0.0:
            n_max, eta_max = float(at_candidates[k]), float(np.sqrt(candidates[k]))
        estimate = _interp_last_sign_change(etas, lam[: len(etas), l2 != 0].min(axis=1))
    return ModelCurve(
        etas=etas, values=values, eta_zero=eta_zero, eta_max=eta_max, n_max=n_max,
        eta_threshold=eta_thr, eta_sweep_estimate=estimate,
    )


# ----------------------------------------------------------------------
# full report
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NegativityReport:
    """Per-mode columns (lambda2, lambda4, degenerate) and the model curve
    they give, the partial transpose and its negativity."""

    eta: float
    negativity2: float
    lambda2: np.ndarray
    lambda4: np.ndarray
    degenerate: np.ndarray
    curve: ModelCurve
    pt: PartialTransposeMatrix
    pt_spectrum: np.ndarray
    negativity_pt: float
    entanglement: str
    dilute_extrapolated: bool

    def to_dict(self) -> dict:
        modes = [
            {"lambda2": a, "lambda4": b, "threshold_omega": ez, "eta_zero": ez,
             "omega_zero": None if ez is None else 2.0 * ez, "degenerate": deg,
             "dilute_extrapolated": self.dilute_extrapolated}
            for a, b, ez, deg in zip(self.lambda2.tolist(), self.lambda4.tolist(),
                                     self.curve.eta_zero, self.degenerate.tolist())
        ]
        return {
            "eta": self.eta,
            "negativity2": self.negativity2,
            "modes": modes,
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


def negativity_report(
    state: PerturbState,
    part: Partition,
    eta_grid: Optional[Sequence[float]] = None,
    dilute_ok: bool = True,
) -> NegativityReport:
    """Everything downstream of the solved amplitudes for one partition.

    The state is restricted once; V and the partial transpose (kept as
    ``pt``, for a grid of drive strengths) are built from that restriction's
    one pair matrix, and the one SVD of V gives lambda2, the mode weights
    and negativity2. A lambda2 with |lambda2| <= (n_A + n_B) eps max|lambda2|
    is reported as 0.0, with no closing drive. Each mode row reads its
    closing drive from the model curve (negativity_model). When diluteness
    was not established the per-mode thresholds keep the asymptotic quartic
    coefficient and are flagged dilute_extrapolated. A zero negativity is
    reported as entanglement "undetected", never as separability.
    """
    sub = restrict_state(state, part.atoms)
    vmat = sub.v_matrix()
    na, nb = len(part.group_a), len(part.group_b)
    l2, weights = lambda2_spectrum(vmat[:na, na:])
    # the leading min(n_A, n_B) entries of lambda2 are the singular values
    negativity2 = float(state.eta**2 * l2[: min(na, nb)].sum())
    l4 = lambda4_dilute(weights, sub.w, state.delta)
    # V has rank at most min(n_A, n_B); a mode within the SVD's backward error
    # of zero has the sign of its rounding, so it is zero and never closes
    l2 = np.where(np.abs(l2) <= len(l2) * np.finfo(float).eps * np.max(np.abs(l2)), 0.0, l2)

    scale = max(1.0, float(np.max(np.abs(l2))))
    close = np.abs(np.diff(l2)) <= DEGENERACY_RTOL * scale
    degenerate = np.append(close, False) | np.insert(close, 0, False)

    pt = _restricted_pt(sub, vmat, na)
    neg_pt, core = pt_negativity(pt, [state.eta])

    return NegativityReport(
        eta=float(state.eta),
        negativity2=negativity2,
        lambda2=l2,
        lambda4=l4,
        degenerate=degenerate,
        curve=negativity_model(l2, l4, eta_grid),
        pt=pt,
        pt_spectrum=np.sort(np.concatenate([core[0], np.zeros(pt.pairs - 1)])),
        negativity_pt=float(neg_pt[0]),
        entanglement="detected" if negativity2 > 0.0 else "undetected",
        dilute_extrapolated=not dilute_ok,
    )
