"""Hypothesis checks of algebraic invariants that hold for any input."""

import numpy as np
from hypothesis import given, settings, strategies as st

from weakdrive.coupling import pair_coupling
from weakdrive.farfield import farfield_parameters, quartic_spectrum
from weakdrive.negativity import lambda2_spectrum, negativity_model

FINITE = dict(allow_nan=False, allow_infinity=False)
COORD = st.floats(min_value=-50.0, max_value=50.0, **FINITE)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _unit(vec):
    v = np.asarray(vec, dtype=float)
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.array([0.0, 0.0, 1.0])


@SETTINGS
@given(
    st.tuples(COORD, COORD, COORD).filter(lambda s: np.linalg.norm(s) > 1e-3),
    st.tuples(COORD, COORD, COORD).filter(lambda s: np.linalg.norm(s) > 1e-3),
)
def test_pair_coupling_inversion_symmetry(sep, dip):
    d = _unit(dip)
    s = np.asarray(sep)
    assert pair_coupling(s, d) == pair_coupling(-s, d)


@SETTINGS
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_embedding_spectrum_pairs(n_a, n_b, seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n_a, n_b)) + 1j * rng.normal(size=(n_a, n_b))
    vals, _ = lambda2_spectrum(V)
    assert abs(vals.sum()) <= 1e-10 * max(1.0, np.abs(vals).max())
    assert np.max(np.abs(np.sort(vals) + np.sort(vals)[::-1])) <= 1e-10 * max(
        1.0, np.abs(vals).max()
    )
    sv = np.sort(np.linalg.svd(V, compute_uv=False))[::-1]
    assert np.allclose(np.sort(vals)[::-1][: len(sv)], sv, atol=1e-10 * max(1.0, sv.max()))


@SETTINGS
@given(
    st.floats(min_value=0.0, max_value=0.99, **FINITE),
    st.floats(min_value=0.0, max_value=0.99, **FINITE),
    st.floats(min_value=0.0, max_value=6.28, **FINITE),
    st.floats(min_value=0.0, max_value=6.28, **FINITE),
    st.floats(min_value=-1.0, max_value=1.0, **FINITE),
)
def test_quartic_roots_pair_up(ra, rb, pa, pb, delta):
    cfg = farfield_parameters(
        1e5, 1.0, 7, 9, delta=delta,
        s_a=ra * np.exp(1j * pa), s_b=rb * np.exp(1j * pb),
    )
    roots = quartic_spectrum(cfg)
    assert np.max(np.abs(roots + roots[::-1])) <= 1e-12 * max(1.0, np.abs(roots).max())
    # roots are real solutions of the biquadratic: check directly
    y = cfg.y
    b = y * (1 + (cfg.s_a * np.conj(cfg.s_b)).real)
    c = y**2 * (1 - abs(cfg.s_a) ** 2) * (1 - abs(cfg.s_b) ** 2)
    for lam in roots:
        poly = lam**4 - 2 * b * lam**2 + c
        assert abs(poly) <= 1e-8 * max(y**2, 1e-30)


@SETTINGS
@given(
    st.lists(st.floats(min_value=-2.0, max_value=2.0, **FINITE), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_model_curve_nonnegative_and_vanishing(l2s, seed):
    rng = np.random.default_rng(seed)
    l4s = rng.uniform(0.5, 20.0, size=len(l2s))
    grid = np.geomspace(1e-6, 1.0, 25)
    curve = negativity_model(l2s, l4s, grid)
    assert np.all(curve.values >= 0.0)
    assert curve.n_max >= 0.0
    # second-order dominance at vanishing drive
    expected_small = sum(-l2 for l2 in l2s if l2 < 0) * grid[0] ** 2
    assert curve.values[0] <= expected_small * 1.0000001
