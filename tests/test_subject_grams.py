"""
Bit guard for the per-subject Grams K_i = X_i'X_i, ``estimator._subject_grams``.

K is summed over a subject-innermost block, a fixed number of subjects at a
time, while X stays (N, T, q+p) for everything else.  K must equal, bit for
bit, the n-major einsum ``"nti,ntj->nij"`` over X that it replaced, and stay
a C-contiguous (N, q+p, q+p) array.  The cases cross the block boundary
(a last block of one subject included), reach T = 1 and the paper's
T = 210, and hold subjects that are never available, whose rows of X are
signed zeros.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mrtpower import NumericError
from mrtpower.design import FeaturePaths, TrialDesign, build_quadratic_features
from mrtpower.estimator import _GRAM_BLOCK, _stack, _subject_grams

EDGES = sorted({1, 2, 3, _GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1,
                2 * _GRAM_BLOCK, 2 * _GRAM_BLOCK + 1})
SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5e-300, -7.0e12, 3.0e-5])


@st.composite
def cases(draw):
    n = draw(st.one_of(st.sampled_from(EDGES), st.integers(1, 3 * _GRAM_BLOCK)))
    T = draw(st.one_of(st.integers(1, 12), st.sampled_from([64, 210])))
    p = draw(st.integers(1, min(3, T)))
    q = draw(st.integers(1, min(3, T)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def paths(k):
        cols = rng.standard_normal((T, k)) * 10.0 ** rng.integers(-3, 4, (T, k))
        cols[:, 0] = 1.0  # a constant column, as the quadratic features have
        for _ in range(draw(st.integers(0, 3))):
            cols[rng.integers(T), rng.integers(k)] = draw(SIGNED)
        return cols

    try:
        features = FeaturePaths(Z=paths(p), B=paths(q))
    except NumericError:
        reject()  # a drawn feature Gram is singular
    avail = (rng.random((n, T)) < draw(st.floats(0.0, 1.0))).astype(np.int8)
    action = (rng.random((n, T)) < 0.5).astype(np.int8)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=4)):
        avail[i] = 0  # never available: its rows of X are signed zeros
        action[i] = draw(st.integers(0, 1))  # A - rho of one sign throughout
    prob = (np.broadcast_to(0.4, (n, T)) if draw(st.booleans())
            else rng.uniform(0.01, 0.99, (n, T)))
    return avail, action, prob, features


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=cases())
def test_block_grams_equal_the_n_major_einsum(case):
    avail, action, prob, features = case
    X = _stack(avail, action, prob, features)
    K = _subject_grams(X)
    k = features.q + features.p
    assert K.shape == (avail.shape[0], k, k)
    assert K.dtype == np.float64 and K.flags.c_contiguous
    assert K.tobytes() == np.einsum("nti,ntj->nij", X, X).tobytes()


@pytest.mark.parametrize("n", [1, _GRAM_BLOCK + 1, 2 * _GRAM_BLOCK + 1, 400])
def test_paper_design_grams_equal_the_n_major_einsum(n):
    # 42 days x 5 decisions: a last block of one subject at T = 210
    features = build_quadratic_features(TrialDesign(days=42, decisions_per_day=5, rho=0.4))
    rng = np.random.default_rng(n)
    avail = (rng.random((n, features.T)) < 0.5).astype(np.int8)
    action = (rng.random((n, features.T)) < 0.4).astype(np.int8)
    X = _stack(avail, action, np.broadcast_to(0.4, avail.shape), features)
    assert _subject_grams(X).tobytes() == np.einsum("nti,ntj->nij", X, X).tobytes()
