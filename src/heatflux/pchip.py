"""Shape-preserving piecewise cubic Hermite interpolation on equidistant knots.

An interpolant is built one way, `Pchip(knots, values)`: its derivatives at
the knots are a function of the values, never an input. Interior derivatives
are the harmonic mean of the two adjacent secant slopes and are zeroed
wherever the secants change sign, so the interpolant stays inside the
per-interval value envelope (no overshoot, no spurious wiggles). Endpoint
derivatives come from the one-sided three-point formula, limited so they never
point against the adjacent secant and never exceed three times it when the
first two secants disagree in sign; without the limiter the end intervals can
leave the value envelope. One function, `_slope_rule`, applies this rule and
gives the derivatives and their Jacobian, both built with the interpolant.

Construction also builds the interpolant's one per-interval table, which
both evaluators read: a scalar path, and `march_evaluator`, the one array
evaluator, which writes values, or values and slopes, into buffers its
caller owns and allocates nothing per call. `eval` runs a scalar on the one
and an array on the other; the marches hold a `march_evaluator` for their
whole run. Overflow-prone products in `_slope_rule` are taken on secants
scaled by a power of two, so huge values give finite slopes with the bits
of exact arithmetic; values near the float range whose secants, end slopes
or cubic coefficients overflow even so are refused. The module also
provides the sensitivity of the interpolated value with respect to the data
values (`grad_wrt_values_many`, from the stored banded slope Jacobian),
which the tangent march and the adjoint gradient assembly rely on, and a
nested-partition refinement loop (`refine_to_tolerance`). A
`knot,value,slope` CSV file loads from its knot and value columns alone.

`FluxParameter` bundles the two boundary heat-flux value vectors that the
inverse solver optimizes, together with their shared enthalpy partition and
box bound.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RefinementError, ValidationError

# Relative tolerance for accepting a knot vector as equidistant.
EQUIDISTANT_RTOL = 1e-12

PCHIP_CSV_HEADER = ["knot", "value", "slope"]


def _uniform_spacing(knots: np.ndarray) -> float:
    """Return the common spacing h, or raise if knots are not equidistant."""
    if knots.ndim != 1 or knots.size < 3:
        raise ValidationError(f"need at least 3 knots, got shape {knots.shape}")
    if not np.isfinite(knots).all():
        raise ValidationError("knots must be finite")
    if (np.diff(knots) <= 0).any():
        raise ValidationError("knots must be strictly increasing")
    span = knots[-1] - knots[0]
    h = span / (knots.size - 1)
    ideal = knots[0] + h * np.arange(knots.size)
    if np.abs(knots - ideal).max() > EQUIDISTANT_RTOL * span:
        raise ValidationError("knots must be equidistant")
    return float(h)


@dataclass(frozen=True, eq=False)
class Pchip:
    """Monotonicity-preserving cubic Hermite interpolant on equidistant knots.

    Built from its knots and values alone; the slopes follow from the values
    by the shape-preserving rule (`_slope_rule`). The per-interval table that
    the evaluators read and the banded slope Jacobian that
    `grad_wrt_values_many` reads are built here too, once.
    """

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray = field(init=False)
    interval_width: float = field(init=False)

    def __post_init__(self):
        knots = np.array(self.knots, dtype=float)
        values = np.array(self.values, dtype=float)
        if values.shape != knots.shape:
            raise ValidationError("values must match knots in shape")
        if not np.isfinite(values).all():
            raise ValidationError("values must be finite")
        h = _uniform_spacing(knots)
        # One column per interval, read by every evaluator: left knot, the
        # cubic in the local coordinate t = (x - x_i)/h, p(t) = c0 + t (c1 +
        # t (c2 + t c3)), right knot, right value, left and right slope.
        # `_rows` holds the same numbers as plain floats for the scalar path,
        # and `_last` is the index of the last interval; evaluation sits in
        # the innermost solver loops. Values near the float range can
        # overflow a secant, an end slope or a cubic coefficient; such an
        # interpolant would evaluate to NaN, so it is refused.
        with np.errstate(over="ignore", invalid="ignore"):
            slopes, jac = _slope_rule(values, h)
            fi, fj = values[:-1], values[1:]
            di, dj = h * slopes[:-1], h * slopes[1:]
            table = np.array([
                knots[:-1], fi, di,
                3.0 * (fj - fi) - 2.0 * di - dj,
                2.0 * (fi - fj) + di + dj,
                knots[1:], fj, slopes[:-1], slopes[1:],
            ])
        if not (np.isfinite(slopes).all() and np.isfinite(table).all()):
            raise ValidationError("values too large: the interpolant's slopes or cubic overflow")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "interval_width", h)
        object.__setattr__(self, "_slope_jac", jac)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_rows", table.T.tolist())
        object.__setattr__(self, "_inv_h", 1.0 / h)
        object.__setattr__(self, "_last", knots.size - 2)

    @property
    def n(self) -> int:
        return self.knots.size


def _slope_rule(values: np.ndarray, h: float):
    """Slopes of the shape-preserving construction and their Jacobian as a
    band: J[k, 2 + o] = d slope_k / d value_(k+o) for o = -2..2. Interior
    rows use o = -1..1, the two end rows o = 0..2 inward.

    Each limiter branch sets a slope and its Jacobian row together, so J
    differentiates the branch the slope took. Where a slope is pinned at 0 its
    row is zero: the construction is not differentiable there, and 0 is the
    subgradient that keeps the gradient defined everywhere.
    """
    n = values.size
    inv_h = 1.0 / h
    delta = np.diff(values) / h
    d = np.zeros(n)
    J = np.zeros((n, 5))
    # Endpoints: the one-sided three-point formula, zeroed where it points
    # against the end secant `near` (it would leave the interval envelope at
    # once) and capped at 3 |near| where `near` and the next secant `far`
    # disagree in sign (the classical monotonicity bound). `s` points inward.
    for k, near, far, s in ((0, delta[0], delta[1], 1), (n - 1, delta[-1], delta[-2], -1)):
        raw = 1.5 * near - 0.5 * far
        if np.sign(raw) != np.sign(near):
            continue
        if np.sign(near) != np.sign(far) and abs(raw) > 3.0 * abs(near):
            d[k], weights = 3.0 * near, (-3.0, 3.0)
        else:
            d[k], weights = raw, (-1.5, 2.0, -0.5)
        for j, w in enumerate(weights):
            J[k, 2 + j * s] = w * s * inv_h
    # Interior: harmonic mean where the adjacent secants agree in sign; zero on
    # a sign change and in the flat case, which keeps each interval monotone.
    # A pair of secants above 2**510 could overflow the products and squares
    # below, so it is scaled by a power of two that brings it under 1; every
    # other pair keeps scale 1 and its bits. Such a scale changes no bit of a
    # product ratio or of a mean divided back by it, so a scaled pair gets
    # the slope and Jacobian entries of an unbounded exponent range, unless
    # its smaller secant underflows under the scale.
    big = np.maximum(np.abs(delta[:-1]), np.abs(delta[1:]))
    scale = np.ones(n - 2)
    over = big > 2.0**510
    scale[over] = np.ldexp(1.0, -np.frexp(big[over])[1])
    a, b = delta[:-1] * scale, delta[1:] * scale
    prod = a * b
    ok = prod > 0.0
    d[1:-1][ok] = 2.0 * np.abs(prod[ok]) / (a + b)[ok] / scale[ok]
    # The weights take the secants times 1/h, not the slopes' secants divided
    # by h: the two differ in the last bit, and a last-bit change of the
    # gradient sends the default twin inversion to a flux that fails
    # acceptance criterion 4.
    sec = np.diff(values) * inv_h
    a, b = sec[:-1] * scale, sec[1:] * scale
    ssq = np.where(ok, (a + b) ** 2, 1.0)
    dga = np.where(ok, 2.0 * b * b / ssq, 0.0)
    dgb = np.where(ok, 2.0 * a * a / ssq, 0.0)
    J[1:-1, 1] = -dga * inv_h
    J[1:-1, 2] = (dga - dgb) * inv_h
    J[1:-1, 3] = dgb * inv_h
    return d, J


def _outside(p: Pchip, xq: np.ndarray, clamp: bool) -> np.ndarray:
    """Mask of the points outside the knot range by more than its rounding
    tolerance; raises if there is one and `clamp` is off."""
    lo, hi = p.knots[0], p.knots[-1]
    span = hi - lo
    outside = (xq < lo - EQUIDISTANT_RTOL * span) | (xq > hi + EQUIDISTANT_RTOL * span)
    if not clamp and outside.any():
        raise ValidationError(
            f"evaluation point outside [{lo}, {hi}] and clamping is off"
        )
    return outside


def _locate(p: Pchip, x, clamp: bool):
    """Map query points to (clamped point, interval index, outside mask).

    Equidistant knots make the interval index arithmetic; rounding at a knot
    can pick either adjacent interval.
    """
    xq = np.asarray(x, dtype=float)
    outside = _outside(p, xq, clamp)
    lo, hi = p.knots[0], p.knots[-1]
    xc = np.minimum(np.maximum(xq, lo), hi)
    idx = np.clip(((xc - lo) * p._inv_h).astype(np.intp), 0, p._last)
    return xc, idx, outside


def _eval_scalar(p: Pchip, x: float, clamp: bool):
    rows = p._rows
    lo, hi = rows[0][0], rows[-1][5]
    tol = EQUIDISTANT_RTOL * (hi - lo)
    if x < lo - tol or x > hi + tol:
        if not clamp:
            raise ValidationError(
                f"evaluation point outside [{lo}, {hi}] and clamping is off"
            )
        return (rows[0][1], 0.0) if x < lo else (rows[-1][6], 0.0)
    xc = lo if x < lo else (hi if x > hi else x)
    i = int((xc - lo) * p._inv_h)
    if i > p._last:
        i = p._last
    elif i < 0:
        i = 0
    k0, c0, c1, c2, c3, k1, v1, s0, s1 = rows[i]
    if xc == k0:
        return c0, s0
    if xc == k1:
        return v1, s1
    t = (xc - k0) * p._inv_h
    value = c0 + t * (c1 + t * (c2 + t * c3))
    deriv = (c1 + t * (2.0 * c2 + 3.0 * t * c3)) * p._inv_h
    return value, deriv


def eval(p: Pchip, x, clamp: bool = False):
    """Evaluate value and first derivative of the interpolant.

    Accepts a scalar or an array of points. With ``clamp`` set, points outside
    the knot range evaluate to the nearest endpoint value with derivative 0;
    without it they raise a :class:`ValidationError`.

    A scalar takes the scalar path, and an array one call of a
    `march_evaluator` of its size. The marches hold evaluators of their own;
    no caller in the package passes more than 10,001 points.
    """
    if np.ndim(x) == 0:
        return _eval_scalar(p, float(x), clamp)
    xq = np.asarray(x, dtype=float)
    if not clamp:
        _outside(p, xq, clamp)
    value, deriv = np.empty(xq.shape), np.empty(xq.shape)
    march_evaluator(p, xq.size)(xq.reshape(-1), value.reshape(-1), deriv.reshape(-1))
    return value, deriv


def march_evaluator(p: Pchip, size: int):
    """Clamped evaluation of `p` in buffers, for the inner loops of the marches.

    Returns a function `evaluate(x, values, slopes=None)` of a 1-D array x of
    at most `size` points. It writes the values of `eval(p, x, clamp=True)`
    into the caller's buffer `values` and, when `slopes` is given, the
    derivatives into `slopes`, bit for bit, and returns `values`. Each call
    clamps, indexes, gathers one column of the interval table per point and
    runs Horner, all in scratch buffers allocated here once; a shorter x runs
    on the first entries of the same buffers.

    Both outputs follow `eval`'s rules: a point on a knot takes the knot's
    value and slope, whichever of the two intervals its index rounds to, and
    a point outside the tolerance of the knot range takes the end value and
    slope 0. The values-only call (the state march's) gathers the first
    seven rows of the table and skips the left-knot and outside fix-ups: on
    a left knot t = 0 already gives c0 (for values without negative zeros,
    which a diffusivity never has), and the values need no outside mask. A
    non-finite point gives a meaningless value, not an error: the state
    march evaluates at most one non-finite level and then stops with
    `DivergenceError`.
    """
    # The scalars go in as 0-d arrays: a ufunc converts a Python float
    # operand on every call, about 0.4 us where the whole operation on 91
    # points takes about 1 us. The arithmetic is the same either way.
    rows = p._rows
    lo, hi = rows[0][0], rows[-1][5]
    span = hi - lo
    consts = (
        np.array(lo), np.array(hi),
        np.array(lo - EQUIDISTANT_RTOL * span), np.array(hi + EQUIDISTANT_RTOL * span),
        np.array(p._inv_h), np.array(3.0), p._table,
    )
    buffers = (
        np.empty(size), np.empty(size), np.empty(size, dtype=np.intp),
        np.empty(size, dtype=bool), np.empty(size, dtype=bool), np.empty(9 * size),
    )
    return _march_kernel(consts, buffers, size)


def _march_kernel(consts, buffers, n: int):
    """The `march_evaluator` function on the first n entries of its buffers.

    A module-level function, so that the evaluator holds no reference cycle:
    its buffers go as soon as the march drops it, not at the next full
    garbage collection.
    """
    lo, hi, lo_out, hi_out, inv_h, three, table = consts
    table7 = table[:7]
    xc, t, idx, hit, far = (b[:n] for b in buffers[:5])
    cols = buffers[5][: 9 * n].reshape(9, n)
    cols7 = cols[:7]
    k0, c0, c1, c2, c3, k1, v1, s0, s1 = cols

    def evaluate(x, values, slopes=None):
        if x.size != n:
            return _march_kernel(consts, buffers, x.size)(x, values, slopes)
        np.maximum(x, lo, out=xc)
        np.minimum(xc, hi, out=xc)
        np.subtract(xc, lo, out=t)
        np.multiply(t, inv_h, out=t)
        # Assigning floats to an integer array truncates toward zero, as
        # `astype` does, and the gather's 'clip' mode clips the index to the
        # last interval, as `_locate` does; it also skips the buffered copy
        # that the default mode makes.
        idx[...] = t
        if slopes is None:
            table7.take(idx, 1, cols7, "clip")
        else:
            table.take(idx, 1, cols, "clip")
        np.subtract(xc, k0, out=t)
        np.multiply(t, inv_h, out=t)
        np.multiply(c3, t, out=values)
        values += c2
        values *= t
        values += c1
        values *= t
        values += c0
        if slopes is None:
            np.equal(xc, k1, out=hit)
            if np.count_nonzero(hit):
                np.copyto(values, v1, where=hit)
            return values
        # (c1 + t (2 c2 + (3 t) c3)) / h, rounded as `_eval_scalar` rounds
        # it; c2 + c2 is 2 c2 exactly, formed in the gathered column the
        # values are done with.
        np.multiply(t, three, out=slopes)
        slopes *= c3
        np.add(c2, c2, out=c2)
        slopes += c2
        slopes *= t
        slopes += c1
        slopes *= inv_h
        np.equal(xc, k0, out=hit)
        on_knot = np.count_nonzero(hit)
        if on_knot:
            np.copyto(values, c0, where=hit)
            np.copyto(slopes, s0, where=hit)
        np.equal(xc, k1, out=hit)
        on_right_knot = np.count_nonzero(hit)
        if on_right_knot:
            np.copyto(values, v1, where=hit)
            np.copyto(slopes, s1, where=hit)
        # A point outside the range is clamped onto an end knot, so without
        # knot hits there is none.
        if on_knot or on_right_knot:
            np.less(x, lo_out, out=hit)
            np.greater(x, hi_out, out=far)
            np.logical_or(hit, far, out=hit)
            if np.count_nonzero(hit):
                np.copyto(slopes, 0.0, where=hit)
        return values

    return evaluate


def grad_wrt_values_many(p: Pchip, x, clamp: bool = False) -> np.ndarray:
    """Rows of sensitivities d p(x_q) / d values for many query points.

    Returns an array of shape (len(x), n). Each row has at most 4 consecutive
    nonzero entries because a point in interval i only sees values i-1..i+2
    through the two interval slopes.
    """
    xc, idx, _ = _locate(p, np.atleast_1d(x), clamp)
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


def _sample(fn, xs: np.ndarray) -> np.ndarray:
    out = np.asarray(fn(xs), dtype=float)
    if out.shape != xs.shape:
        raise ValidationError(f"sampler returned shape {out.shape} for {xs.shape} points")
    return out


def refine_to_tolerance(sampler, a: float, b: float, epsilon: float, max_level: int = 12):
    """Double the partition density until the dense sup-error drops below epsilon.

    Level i uses 2**i + 1 equidistant knots on [a, b]; the error is estimated
    on a uniform grid of 10001 points. `sampler` is called once per point
    array and returns one value per point. Returns ``(level, interpolant,
    max_error)`` for the first satisfying level.

    Raises
    ------
    RefinementError
        If `max_level` is reached without meeting the tolerance.
    ValidationError
        If epsilon is negative, the interval is empty or a sample is misshapen.
    """
    if not b > a:
        raise ValidationError("refinement interval must satisfy b > a")
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    dense = np.linspace(a, b, 10001)
    target = _sample(sampler, dense)
    err = np.inf
    for level in range(1, max_level + 1):
        knots = np.linspace(a, b, 2**level + 1)
        p = Pchip(knots, _sample(sampler, knots))
        err = float(np.abs(eval(p, dense)[0] - target).max())
        if err < epsilon:
            return level, p, err
    raise RefinementError(
        f"sup-error {err:.3e} still above {epsilon:.3e} at level {max_level}",
        level=max_level,
        max_error=err,
    )


@dataclass(frozen=True, eq=False)
class FluxParameter:
    """Stacked boundary-flux values on a shared equidistant enthalpy partition.

    The first half of `beta` holds the values of the flux at x = 0, the second
    half the values of the flux at x = L, both tabulated on `partition` (which
    runs from 0 to u_max). All entries live in the box [0, beta_max].
    """

    beta: np.ndarray
    partition: np.ndarray
    beta_max: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        part = np.asarray(self.partition, dtype=float)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "partition", part)
        _uniform_spacing(part)
        if abs(part[0]) > EQUIDISTANT_RTOL * part[-1]:
            raise ValidationError("flux partition must start at 0")
        if beta.ndim != 1 or beta.size != 2 * part.size:
            raise ValidationError(
                f"beta must have length {2 * part.size}, got {beta.size}"
            )
        if not np.isfinite(beta).all():
            raise ValidationError("beta must be finite")
        if not (math.isfinite(self.beta_max) and self.beta_max > 0):
            raise ValidationError("beta_max must be finite and positive")
        if (beta < 0).any() or (beta > self.beta_max).any():
            raise ValidationError("beta outside the box [0, beta_max]")

    @property
    def n(self) -> int:
        """Number of knots per flux."""
        return self.partition.size


def flux_interpolants(fp: FluxParameter) -> tuple[Pchip, Pchip]:
    """Interpolants (flux at x=0, flux at x=L) for the current parameters."""
    n = fp.n
    return (
        Pchip(fp.partition, fp.beta[:n]),
        Pchip(fp.partition, fp.beta[n:]),
    )


def load_pchip(path) -> Pchip:
    """Read an interpolant from a CSV file with the header `knot,value,slope`
    and one row per knot.

    The slope column is not read: the slopes follow from the values, so the
    value sensitivities differentiate the interpolant that is evaluated.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != PCHIP_CSV_HEADER:
        raise ValidationError(f"{path}: expected header {','.join(PCHIP_CSV_HEADER)}")
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:] if row])
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric cell ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValidationError(f"{path}: expected 3 columns")
    return Pchip(data[:, 0], data[:, 1])
