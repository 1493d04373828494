"""The tridiagonal solve of `_march.c` in plain Python.

`plain_tridiagonal_solve` is the one reference for the library's
`tridiagonal_solve` and for every step of the plain marches in
`tests/test_march_kernels.py`: Gaussian elimination without pivoting, one
Python float operation at a time, in the order LAPACK's dgtsv takes where it
keeps every pivot in place, then dgtsv's back substitution with its dl
term. The tests hold it to scipy's dgtsv bit for bit on every step of the
march tests' grid, and the compiled solve and marches to it. No package
module calls it.
"""

import numpy as np


def plain_tridiagonal_solve(dl, d, du, b):
    """Solve (dl, d, du) x = b, dl and du the n - 1 entries below and above
    the diagonal d, and return what scipy's dgtsv returns: (dl, d, du, x,
    info). Row by row fact = dl[i] / d[i], d[i+1] - fact du[i], b[i+1] -
    fact b[i] and dl[i] = 0 (not on the last row); info is the 1-based row
    of the first zero pivot, n when only the last one is zero, and then x is
    b as the elimination left it. Else x is b[n-1] / d[n-1], (b[n-2] -
    du[n-2] x[n-1]) / d[n-2], then (b[i] - du[i] x[i+1] - dl[i] x[i+2]) /
    d[i] upward."""
    L, D, U, B = (np.array(a, dtype=float).tolist() for a in (dl, d, du, b))
    n = len(D)
    info = 0
    for i in range(n - 1):
        if D[i] == 0.0:
            info = i + 1
            break
        fact = L[i] / D[i]
        D[i + 1] = D[i + 1] - fact * U[i]
        B[i + 1] = B[i + 1] - fact * B[i]
        if i < n - 2:
            L[i] = 0.0
    else:
        if D[n - 1] == 0.0:
            info = n
    if info == 0:
        B[n - 1] = B[n - 1] / D[n - 1]
        if n > 1:
            B[n - 2] = (B[n - 2] - U[n - 2] * B[n - 1]) / D[n - 2]
        for i in range(n - 3, -1, -1):
            B[i] = (B[i] - U[i] * B[i + 1] - L[i] * B[i + 2]) / D[i]
    return np.array(L), np.array(D), np.array(U), np.array(B), info
