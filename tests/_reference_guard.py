"""Raw-trace Gram guards: the test oracle for the equilibrated guard.

These are the checks ``mrtpower.design`` (``_check_invertible``, for the
feature and projection Grams) and ``samplesize.compute_q_matrix`` made before
every Gram went through ``design._equilibrated_eigh``, kept unchanged: the
smallest eigenvalue of the raw matrix against 1e-12 times its trace.  The
raw test rejects long quadratic designs, whose u^2 column dominates the
trace, so the equilibrated guard must accept every matrix these accept.
"""

import numpy as np

from mrtpower.design import _SINGULAR_REL_TOL
from mrtpower.exceptions import NumericError


def reference_check_invertible(gram, what):
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] <= _SINGULAR_REL_TOL * np.trace(gram):
        raise NumericError(f"{what} is singular or nearly singular")


def reference_q_matrix(tau, rho, Z):
    """``compute_q_matrix`` with its raw inline check, on a bare (T, p) Z."""
    rho_arr = np.broadcast_to(np.asarray(rho, dtype=np.float64), (Z.shape[0],))
    w = tau * rho_arr * (1.0 - rho_arr)
    q = Z.T @ (w[:, None] * Z)
    q = 0.5 * (q + q.T)
    eigvals = np.linalg.eigvalsh(q)
    if eigvals[0] <= _SINGULAR_REL_TOL * np.trace(q):
        raise NumericError(
            "information matrix is not positive definite for this "
            "availability/feature combination"
        )
    return q
