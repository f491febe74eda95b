"""Indexing helpers for the truncated basis {ground, singles, unordered pairs}.

Pairs (i, j) with i < j are enumerated lexicographically; the truncated
basis of an n-atom block has dimension 1 + n + n(n-1)/2.
"""

import functools

import numpy as np


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def basis_dim(n: int) -> int:
    return 1 + n + pair_count(n)


@functools.lru_cache(maxsize=8)
def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index arrays (I, J) with I < J, lexicographic order.

    The cached arrays are shared by every caller, hence read-only."""
    I, J = np.triu_indices(n, 1)
    I.setflags(write=False)
    J.setflags(write=False)
    return I, J


def pair_index(i, j, n: int):
    """Position of the pair {i, j}, i != j, in the lexicographic order of
    pair_arrays(n); i and j are integers or integer arrays, in either order."""
    a, b = np.minimum(i, j), np.maximum(i, j)
    return a * (2 * n - a - 1) // 2 + b - a - 1


def scatter_pairs(values: np.ndarray, n: int) -> np.ndarray:
    """Symmetric zero-diagonal (n, n) matrix from a pair-ordered vector."""
    I, J = pair_arrays(n)
    S = np.zeros((n, n), dtype=complex)
    S[I, J] = values
    S[J, I] = values
    return S

