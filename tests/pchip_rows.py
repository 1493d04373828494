"""The value-sensitivity rows of a `pchip.Pchip` in plain numpy.

`grad_wrt_values_many` is the one reference for the rows d p(x)/d values:
the tests of `pchip` hold it to finite differences and to the dense slope
Jacobian, criterion 3 reports it, and the compiled row (`value_row` in
`_march.c`), which the tangent march's wall sources and the gradient
assembly read, is held to it bit for bit through the plain marches of
`tests/test_march_kernels.py`. No package module calls it.
"""

import numpy as np

from heatflux import pchip


def grad_wrt_values_many(p: pchip.Pchip, x, clamp: bool = False) -> np.ndarray:
    """Rows of sensitivities d p(x_q) / d values for many query points.

    Returns an array of shape (len(x), n), from the banded slope Jacobian
    the interpolant stores. Each row has at most 4 consecutive nonzero
    entries because a point in interval i only sees values i-1..i+2 through
    the two interval slopes.
    """
    xc, idx, _ = pchip._locate(p, np.atleast_1d(x), clamp)
    h = p.interval_width
    # Divided by h where `eval` multiplies by 1/h. The two can differ in the
    # last bit, and a last-bit change of the gradient sends the default twin
    # inversion to a flux that fails acceptance criterion 4.
    t = (xc - p.knots[idx]) / h
    s = 1.0 - t
    phi_s = s * s * (3.0 - 2.0 * s)
    phi_t = t * t * (3.0 - 2.0 * t)
    H3 = -h * s * s * (s - 1.0)
    H4 = h * t * t * (t - 1.0)
    J = p._slope_jac
    # Row q is H3 J[idx] + H4 J[idx + 1] plus the value weights. The two slope
    # rows reach columns idx-1..idx+2 only; every other column is H3*0 + H4*0,
    # formed as such so that its zero keeps its sign (-0.0 where t = 0).
    G = np.empty((idx.size, p.n))
    G[:] = (H3 * 0.0 + H4 * 0.0)[:, None]
    cols = idx[:, None] + np.arange(-1, 3)
    band = H3[:, None] * J[idx, 1:] + H4[:, None] * J[idx + 1, :-1]
    q, j = np.nonzero((cols >= 0) & (cols < p.n))
    G[q, cols[q, j]] = band[q, j]
    rows = np.arange(idx.size)
    G[rows, idx] += phi_s
    G[rows, idx + 1] += phi_t
    return G
