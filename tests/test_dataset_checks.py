"""
Accept/reject verdicts of the ``Dataset`` 0/1 indicator checks.

Tolerance strategy
------------------
None: each input is either accepted, with the indicators stored as int8
0/1, or rejected with the field's ``ConfigError``.  The inputs are the
dtypes and values where an equality test and a set-membership test could
part ways: bools, floats with NaN or -0.0, non-integral and out-of-range
values, digit strings, an object array holding ``None``, and complex.
"""

import warnings

import numpy as np
import pytest

from mrtpower.estimator import Dataset
from mrtpower.exceptions import ConfigError

VERDICTS = {
    "int8": (np.array([[0, 1]], dtype=np.int8), [[0, 1]]),
    "bool": (np.array([[True, False]]), [[1, 0]]),
    "float with NaN": (np.array([[0.0, np.nan]]), None),
    "-0.0": (np.array([[-0.0, 1.0]]), [[0, 1]]),
    "0.5": (np.array([[0.5, 1.0]]), None),
    "2": (np.array([[2, 0]]), None),
    "digit strings": (np.array([["0", "1"]]), None),
    "object holding None": (np.array([[None, 1]], dtype=object), None),
    "complex": (np.array([[1 + 0j, 0j]]), [[1, 0]]),
}
MESSAGES = {
    "avail": "availability indicators must be 0 or 1",
    "action": "action indicators must be 0 or 1",
}


@pytest.mark.parametrize("field", MESSAGES)
@pytest.mark.parametrize("name", VERDICTS)
def test_indicator_verdict(name, field):
    values, stored = VERDICTS[name]
    columns = dict(avail=[[1, 1]], action=[[0, 1]], prob=[[0.5, 0.5]], outcome=[[1.0, 2.0]])
    columns[field] = values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # complex input warns when cast to int8
        if stored is None:
            with pytest.raises(ConfigError, match=MESSAGES[field]):
                Dataset(**columns)
            return
        data = Dataset(**columns)
    got = getattr(data, field)
    assert got.dtype == np.int8
    assert got.tolist() == stored
