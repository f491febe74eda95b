"""Closed-form dilute and far-field results for two distant groups.

In the dilute regime the pair correlation reduces to
v = -4 z (1 - 2 i delta)^-3 (w_mu^2 + w_nu^2); between two groups whose
separation D (k0 units) dominates the squared group size the inter-group
coupling is a single spherical wave and the correlation operator becomes
rank two. Its four non-zero eigenvalues solve a biquadratic controlled by
y = n_A n_B |x|^2 and the group phase sums s_A, s_B. The entanglement
length scale D0 = sqrt(n_A n_B) sin^2(theta) (k0 units) sets both the
guaranteed-entanglement drive window and the peak negativity.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import IlluminatedAtomError, ThresholdNotApplicableError
from .geometry import Drive, Ensemble, Partition, _unit, check_count


def v_dilute(z_pair: complex, w_mu: complex, w_nu: complex, delta: float) -> complex:
    """Leading pair correlation for well-separated atoms."""
    return -4.0 * z_pair * (1.0 - 2j * delta) ** -3 * (w_mu**2 + w_nu**2)


def v_dark(coupling, w: np.ndarray, delta: float, mu: int, nu: int) -> complex:
    """Second-order correlation of two unilluminated atoms.

    Both atoms couple to the beam only through the illuminated ones:
    v = 8 (1 - 2 i delta)^-4 sum_xi z_muxi z_nuxi w_xi^2. The prefactor
    follows from eliminating the illuminated-dark pairs at second order
    and is cross-checked against the full solver in the test suite.
    """
    w = np.asarray(w, dtype=complex)
    if abs(w[mu]) > 0 or abs(w[nu]) > 0:
        raise IlluminatedAtomError(f"atoms {mu}, {nu} must both be dark")
    # diagonal terms carry w = 0, so the full sum is safe
    total = np.sum(coupling[mu] * coupling[nu] * w**2)
    return complex(8.0 * (1.0 - 2j * delta) ** -4 * total)


@dataclass(frozen=True, eq=False)
class FarFieldConfig:
    """Geometry summary of two distant groups under one plane wave.

    distance and d0 are in k0 units; e is the unit vector from the A
    centroid to the B centroid (default: the x axis); theta is the angle
    between the dipole and e. distance, theta and delta are kept as floats,
    the phase sums as complex numbers. The group sizes n_a and n_b must be
    integers >= 1 and e a unit 3-vector (ValueError otherwise). It keeps a
    read-only copy of e, so the caller's array stays writable.
    """

    distance: float
    theta: float
    n_a: int
    n_b: int
    delta: float = 0.0
    s_a: complex = 0j
    s_b: complex = 0j
    e: np.ndarray = (1.0, 0.0, 0.0)

    def __post_init__(self):
        for name, kind in (("distance", float), ("theta", float), ("delta", float),
                           ("s_a", complex), ("s_b", complex)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if not np.all(np.isfinite([self.distance, self.theta, self.delta, self.s_a, self.s_b])):
            raise ValueError("distance, theta, delta and the phase sums must be finite")
        if not self.distance > 0:
            raise ValueError("distance must be positive")
        if abs(self.s_a) > 1 + 1e-12 or abs(self.s_b) > 1 + 1e-12:
            raise ValueError("group phase sums must have modulus <= 1")
        for name in ("n_a", "n_b"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        e = _unit(self.e, "e").copy()
        e.setflags(write=False)
        object.__setattr__(self, "e", e)

    @property
    def x(self) -> complex:
        return (
            3j
            * np.sin(self.theta) ** 2
            * np.exp(1j * self.distance)
            / (self.distance * (1.0 - 2j * self.delta) ** 3)
        )

    @property
    def y(self) -> float:
        return float(self.n_a * self.n_b * abs(self.x) ** 2)

    @property
    def d0(self) -> float:
        return float(np.sqrt(self.n_a * self.n_b) * np.sin(self.theta) ** 2)


def farfield_config(ens: Ensemble, part: Partition, drive: Drive) -> FarFieldConfig:
    """Config measured from an ensemble: centroids, dipole angle, phase sums.

    The closed forms assume that every atom of A u B is lit, so a masked
    one raises ValueError; masked atoms outside the groups are allowed.
    """
    part.check_range(ens.n)
    masked = sorted(drive.beam.mask.intersection(part.atoms))
    if masked:
        raise ValueError(f"masked atoms {masked} in A u B: the far-field forms need them lit")
    khat = drive.beam.direction
    pa = ens.positions[list(part.group_a)]
    pb = ens.positions[list(part.group_b)]
    ca, cb = pa.mean(axis=0), pb.mean(axis=0)
    dvec = cb - ca
    distance = float(np.linalg.norm(dvec))
    if distance == 0:
        raise ValueError("group centroids coincide")
    e = dvec / distance
    cos_t = float(np.clip(ens.dipole @ e, -1.0, 1.0))
    theta = float(np.arccos(cos_t))
    s_a = complex(np.mean(np.exp(2j * (pa @ khat))))
    s_b = complex(np.mean(np.exp(2j * (pb @ khat))))
    return FarFieldConfig(
        distance=distance,
        theta=theta,
        e=e,
        n_a=len(part.group_a),
        n_b=len(part.group_b),
        delta=drive.delta,
        s_a=s_a,
        s_b=s_b,
    )


def build_V_farfield(
    cfg: FarFieldConfig,
    positions_a: np.ndarray,
    positions_b: np.ndarray,
    khat: np.ndarray,
) -> np.ndarray:
    """Rank-two correlation operator of the spherical-wave limit, as a
    read-only n_A x n_B array.

    Entries x e^{i e.(r_mu - r_nu)} (w_mu^2 + w_nu^2) with w = e^{i K.r};
    the positional phase twist is a diagonal unitary, so every spectrum
    downstream is independent of its sign convention.
    """
    pa = np.asarray(positions_a, dtype=float)
    pb = np.asarray(positions_b, dtype=float)
    w2a = np.exp(2j * (pa @ khat))
    w2b = np.exp(2j * (pb @ khat))
    pha = np.exp(1j * (pa @ cfg.e))
    phb = np.exp(-1j * (pb @ cfg.e))
    V = cfg.x * np.outer(pha, phb) * (w2a[:, None] + w2b[None, :])
    V.setflags(write=False)
    return V


def quartic_spectrum(cfg: FarFieldConfig) -> np.ndarray:
    """The four non-zero eigenvalues of V + V^dag in the far-field limit.

    Roots of l^4 - 2 y [1 + Re(s_A s_B*)] l^2 + y^2 (1 - |s_A|^2)(1 - |s_B|^2),
    solved as a quadratic in l^2 (the biquadratic never needs a general
    quartic solver); returned sorted ascending, in +/- pairs.
    """
    y = cfg.y
    if y <= 0:
        raise ValueError("far-field weight y must be positive")
    b = y * (1.0 + (cfg.s_a * np.conj(cfg.s_b)).real)
    c = y**2 * (1.0 - abs(cfg.s_a) ** 2) * (1.0 - abs(cfg.s_b) ** 2)
    disc = max(b * b - c, 0.0)
    l2_hi = b + np.sqrt(disc)
    l2_lo = c / l2_hi if l2_hi > 0 else 0.0
    r_hi, r_lo = np.sqrt(l2_hi), np.sqrt(l2_lo)
    return np.sort(np.array([-r_hi, -r_lo, r_lo, r_hi]))


def bound_omega(cfg: FarFieldConfig) -> float:
    """Drive amplitude (units of Gamma) below which the groups are
    necessarily entangled: (sqrt(3)/2) (1 + 4 delta^2)^{1/4} sqrt(D0/D)."""
    if cfg.d0 <= 0:
        raise ThresholdNotApplicableError("D0 vanishes (dipole along the group axis)")
    return float(
        np.sqrt(3.0)
        / 2.0
        * (1.0 + 4.0 * cfg.delta**2) ** 0.25
        * np.sqrt(cfg.d0 / cfg.distance)
    )


def nmax_analytic(cfg: FarFieldConfig) -> tuple[float, float]:
    """Peak negativity and the drive ratio where it occurs.

    N_max = (9/32) (1 + 4 delta^2)^-1 (D0/D)^2, reached at the guaranteed
    window edge divided by sqrt(2); equivalently
    N_max = 32 (1 + 4 delta^2)^-2 eta_max^4.
    """
    ratio = cfg.d0 / cfg.distance
    n_max = float(9.0 / 32.0 / (1.0 + 4.0 * cfg.delta**2) * ratio**2)
    eta_max = float(bound_omega(cfg) / np.sqrt(2.0) / 2.0)
    return n_max, eta_max


def lmin_bound(
    spacing: float,
    delta: float,
    k0_distance: float,
    omega_over_gamma: float,
    theta: float,
) -> tuple[float, float]:
    """Group edge length above which two distant cubic clouds are
    necessarily entangled, plus the matching atom number per group.

    spacing is the mean interatomic distance in any length unit; the
    returned edge length uses the same unit. It depends on theta through
    |sin(theta)|, as D0 does through sin^2(theta), and diverges for a dipole
    along the group axis.
    """
    if not np.all(np.isfinite([spacing, delta, k0_distance, omega_over_gamma, theta])):
        raise ValueError("spacing, delta, k0_distance, omega_over_gamma and theta must be finite")
    if not (spacing > 0 and k0_distance > 0):
        raise ValueError("spacing and k0_distance must be positive")
    if not omega_over_gamma >= 0:
        raise ValueError("omega_over_gamma must be non-negative")
    s = abs(np.sin(theta))
    if s == 0:
        raise ThresholdNotApplicableError("bound diverges for sin(theta) = 0")
    L = (
        spacing
        * (1.0 + 4.0 * delta**2) ** (-1.0 / 6.0)
        * k0_distance ** (1.0 / 3.0)
        * (2.0 * omega_over_gamma / (np.sqrt(3.0) * s)) ** (2.0 / 3.0)
    )
    return float(L), float((L / spacing) ** 3)
