"""The plain LDL^T Sturm count, kept as a test reference.

`_sturm_counts` steps through the grid one row at a time, for every shift
at once, with no cyclic reduction.  The tests check that
`oracle._negative_pivots`, the count of the guarded elimination that
bisection and the verification proof share, gives the same counts, and
that `fd_spectrum` gives the eigenvalues of a multisection on these counts
to the rounding of the matrix.
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
