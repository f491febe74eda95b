"""Vacuum-mediated pair coefficients and the collective coupling matrix.

For two atoms separated by r (k0 units) with shared dipole orientation
d and c = d . r_hat, the dimensionless coefficient is

    z(r, c) = (3/4) (e^{ir} / r^3) { [1 - 3 c^2] (i + r) - i [1 - c^2] r^2 },

with z = 1/2 on the diagonal. The real part is the collective decay
matrix (positive semidefinite); the imaginary part carries the
dipole-dipole shifts. No short-distance regularisation is applied:
zero separation is an error, not a limit.

The matrix is always stored densely, whatever the ensemble size: the pair
solve decomposes it, and every application of the pair map forms an
n x n matrix product anyway, so evaluating Z lazily would save no memory.
coupling_matrix returns that matrix as a plain read-only complex array,
and every solver takes an n x n array under its ``coupling`` parameter:
a hand-made one works as well as a computed one.
"""

from __future__ import annotations

import numpy as np

from .errors import CoincidentAtomsError
from .geometry import Ensemble


def pair_values(separations: np.ndarray, dipole: np.ndarray) -> np.ndarray:
    """Vectorised z for an (..., 3) array of separation vectors."""
    sep = np.asarray(separations, dtype=float)
    r = np.linalg.norm(sep, axis=-1)
    if np.any(r == 0.0):
        raise CoincidentAtomsError("zero separation in coupling evaluation")
    c = (sep @ dipole) / r
    c2 = c * c
    return (
        0.75
        * np.exp(1j * r)
        / r**3
        * ((1.0 - 3.0 * c2) * (1j + r) - 1j * (1.0 - c2) * r * r)
    )


def pair_coupling(separation, dipole) -> complex:
    """Coefficient z for a single separation vector (k0 units)."""
    sep = np.asarray(separation, dtype=float)
    if sep.shape != (3,):
        raise ValueError("separation must be a 3-vector")
    return complex(pair_values(sep[None, :], np.asarray(dipole, dtype=float))[0])


def coupling_matrix(ens: Ensemble) -> np.ndarray:
    """Dense n x n coupling matrix of an ensemble, read-only, z_ii = 1/2.

    Assembled from the upper triangle and mirrored, so symmetry holds
    bitwise.
    """
    n = ens.n
    Z = np.full((n, n), 0.5 + 0j)
    if n > 1:
        I, J = np.triu_indices(n, 1)
        sep = ens.positions[I] - ens.positions[J]
        vals = pair_values(sep, ens.dipole)
        Z[I, J] = vals
        Z[J, I] = vals
    Z.setflags(write=False)
    return Z
