"""The LDL^T Sturm count that guarded cyclic reduction replaced, kept as a
test reference.

`_sturm_counts` steps through the grid one row at a time, for every shift
at once.  The tests check that `oracle._sturm_counts` gives the same counts
and that `fd_spectrum` run on it gives the same eigenvalues to rounding.
"""

import numpy as np


def _sturm_counts(diag: np.ndarray, offdiag_sq: float, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift (LDL^T sign counts)."""
    shifts = np.atleast_1d(shifts).astype(float)
    q = diag[0] - shifts
    counts = (q < 0.0).astype(int)
    tiny = 1e-300
    for i in range(1, len(diag)):
        q = np.where(np.abs(q) < tiny, -tiny, q)
        q = diag[i] - shifts - offdiag_sq / q
        counts += q < 0.0
    return counts
