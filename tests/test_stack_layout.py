"""
Layout guard for the estimator's design tensor, ``estimator._stack``.

The fit and the sandwich variance read X through einsums that sum over t in
order and through BLAS, which sees X as one (N*T, q+p) matrix, so their
output bits rest on X's values and on its layout.  X must stay a
C-contiguous float64 (N, T, q+p) array equal, bit for bit, to the broadcast
formula it replaced: [avail * B | avail * (A - rho) * Z] per subject and time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtpower.design import FeaturePaths, TrialDesign, build_quadratic_features
from mrtpower.estimator import Dataset, _stack


def _formula(dataset, features):
    avail = dataset.avail.astype(np.float64)
    centered = avail * (dataset.action - dataset.prob)
    return np.concatenate(
        [avail[:, :, None] * features.B[None], centered[:, :, None] * features.Z[None]],
        axis=2,
    )


@st.composite
def cases(draw):
    design = TrialDesign(
        days=draw(st.integers(3, 6)),
        decisions_per_day=draw(st.integers(1, 3)),
        rho=draw(st.floats(0.05, 0.95)),
    )
    Z = build_quadratic_features(design).Z
    q = draw(st.integers(1, 3))  # nuisance features: the first q quadratic columns
    features = FeaturePaths(Z=Z, B=Z[:, :q].copy()) if q < 3 else FeaturePaths(Z=Z, B=Z)
    n = draw(st.integers(1, 6))
    shape = (n, design.T)
    bits = st.lists(st.integers(0, 1), min_size=n * design.T, max_size=n * design.T)
    avail = np.reshape(draw(bits), shape)
    for i in draw(st.sets(st.integers(0, n - 1))):
        avail[i] = 0  # a subject never available
    per_time = draw(st.booleans())
    prob = (np.broadcast_to(design.rho, shape) if per_time else np.reshape(
        draw(st.lists(st.floats(0.01, 0.99), min_size=n * design.T, max_size=n * design.T)),
        shape))
    dataset = Dataset(
        avail=avail,
        action=np.reshape(draw(bits), shape),
        prob=prob,
        outcome=np.where(avail == 1, 1.0, np.nan),
    )
    return dataset, features


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=cases())
def test_design_tensor_layout_and_bits(case):
    dataset, features = case
    X = _stack(dataset.avail, dataset.action, dataset.prob, features)
    n, t_len = dataset.avail.shape
    assert X.shape == (n, t_len, features.q + features.p)
    assert X.dtype == np.float64 and X.flags.c_contiguous
    assert X.tobytes() == _formula(dataset, features).tobytes()
