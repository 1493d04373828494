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
the one evaluator in each language reads: `eval` here, for a scalar or an
array of points, and `march_eval` in the compiled loops (`_march.c`),
which give the state march its diffusivity and boundary flux values and
the linearized marches the diffusivity and flux slopes, operation for
operation as `eval` gives them.
Overflow-prone products in `_slope_rule` are taken on secants scaled by a
power of two, so huge values give finite slopes with the bits of exact
arithmetic; values near the float range whose secants, end slopes or cubic
coefficients overflow even so are refused. Construction also stores the
slopes' banded Jacobian with respect to the values, from which the compiled
row (`value_row` in `_march.c`) forms the sensitivity of the interpolated
value to the data values for the tangent march's wall sources and the
adjoint gradient assembly; its plain numpy reference lives with the tests
(`tests/pchip_rows.py`). The module also provides a nested-partition
refinement loop (`refine_to_tolerance`).

`FluxParameter` bundles the two boundary heat-flux value vectors that the
inverse solver optimizes, together with their shared enthalpy partition and
box bound, and builds their two interpolants with `Pchip` when it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RefinementError, ValidationError

# Relative tolerance for accepting a knot vector as equidistant.
EQUIDISTANT_RTOL = 1e-12


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
    the evaluators read and the banded slope Jacobian that the compiled value
    row reads are built here too, once.
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
        # One column per interval, read by both evaluators: left knot, the
        # cubic in the local coordinate t = (x - x_i)/h, p(t) = c0 + t (c1 +
        # t (c2 + t c3)), right knot, right value, left and right slope.
        # Values near the float range can overflow a secant, an end slope or
        # a cubic coefficient; such an interpolant would evaluate to NaN, so
        # it is refused. The last two rows hold every slope, so the table's
        # check covers the slopes.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slopes, jac = _slope_rule(values, h)
            fi, fj = values[:-1], values[1:]
            di, dj = h * slopes[:-1], h * slopes[1:]
            table = np.array([
                knots[:-1], fi, di,
                3.0 * (fj - fi) - 2.0 * di - dj,
                2.0 * (fi - fj) + di + dj,
                knots[1:], fj, slopes[:-1], slopes[1:],
            ])
        if not np.isfinite(table).all():
            raise ValidationError("values too large: the interpolant's slopes or cubic overflow")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "interval_width", h)
        object.__setattr__(self, "_slope_jac", jac)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_inv_h", 1.0 / h)

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
    secants = values[1:] - values[:-1]
    delta = secants / h
    d = np.zeros(n)
    J = np.zeros((n, 5))
    # Endpoints: the one-sided three-point formula, zeroed where it points
    # against the end secant `near` (it would leave the interval envelope at
    # once) and capped at 3 |near| where `near` and the next secant `far`
    # disagree in sign (the classical monotonicity bound). `s` points inward.
    # On Python floats, which round as numpy's float64 scalars do.
    first, second, last, before = delta[[0, 1, -1, -2]].tolist()
    for k, near, far, s in ((0, first, second, 1), (n - 1, last, before, -1)):
        raw = 1.5 * near - 0.5 * far
        if _sign(raw) != _sign(near):
            continue
        if _sign(near) != _sign(far) and abs(raw) > 3.0 * abs(near):
            d[k], weights = 3.0 * near, (-3.0, 3.0)
        else:
            d[k], weights = raw, (-1.5, 2.0, -0.5)
        for j, w in enumerate(weights):
            J[k, 2 + j * s] = w * s * inv_h
    # Interior: harmonic mean where the adjacent secants agree in sign; zero on
    # a sign change and in the flat case, which keeps each interval monotone.
    # A pair of secants above 2**510 could overflow the products and squares
    # below, so it is scaled by a power of two that brings it under 1; every
    # other pair keeps scale 1 and its bits, and where no secant is that
    # large the products are taken unscaled. Such a scale changes no bit of a
    # product ratio or of a mean divided back by it, so a scaled pair gets
    # the slope and Jacobian entries of an unbounded exponent range, unless
    # its smaller secant underflows under the scale.
    # The weights take the secants times 1/h, not the slopes' secants divided
    # by h: the two differ in the last bit, and a last-bit change of the
    # gradient sends the default twin inversion to a flux that fails
    # acceptance criterion 4.
    sec = secants * inv_h
    a, b, sa, sb = delta[:-1], delta[1:], sec[:-1], sec[1:]
    scale = 1.0
    if np.abs(delta).max() > 2.0**510:
        big = np.maximum(np.abs(a), np.abs(b))
        scale = np.ones(n - 2)
        over = big > 2.0**510
        scale[over] = np.ldexp(1.0, -np.frexp(big[over])[1])
        a, b, sa, sb = a * scale, b * scale, sa * scale, sb * scale
    prod = a * b
    ok = prod > 0.0
    d[1:-1] = np.where(ok, 2.0 * np.abs(prod) / (a + b) / scale, 0.0)
    ssq = np.where(ok, (sa + sb) ** 2, 1.0)
    dga = np.where(ok, 2.0 * sb * sb / ssq, 0.0)
    dgb = np.where(ok, 2.0 * sa * sa / ssq, 0.0)
    J[1:-1, 1] = -dga * inv_h
    J[1:-1, 2] = (dga - dgb) * inv_h
    J[1:-1, 3] = dgb * inv_h
    return d, J


def _sign(x: float) -> float:
    """`np.sign` of a Python float: -1, 0 or 1, NaN for NaN."""
    return float((x > 0.0) - (x < 0.0)) if x == x else math.nan


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
    idx = np.clip(((xc - lo) * p._inv_h).astype(np.intp), 0, p.n - 2)
    return xc, idx, outside


def eval(p: Pchip, x, clamp: bool = False):
    """Evaluate value and first derivative of the interpolant.

    Accepts a scalar, which gives a pair of floats, or an array of points.
    With ``clamp`` set, points outside the knot range evaluate to the
    nearest endpoint value with derivative 0; without it they raise a
    :class:`ValidationError`.

    Each point gathers its interval's column of the table and runs Horner
    in t = (x - x_i) (1/h); a point on a knot takes the knot's value and
    slope, whichever of the two intervals its index rounds to. A NaN point
    gives NaN, with numpy's warning from the cast of its index.
    """
    xc, idx, outside = _locate(p, x, clamp)
    k0, c0, c1, c2, c3, k1, v1, s0, s1 = p._table[:, idx]
    t = (xc - k0) * p._inv_h
    value = c0 + t * (c1 + t * (c2 + t * c3))
    slope = (c1 + t * (2.0 * c2 + 3.0 * t * c3)) * p._inv_h
    at_lo, at_hi = xc == k0, xc == k1
    value = np.where(at_lo, c0, np.where(at_hi, v1, value))
    slope = np.where(outside, 0.0, np.where(at_lo, s0, np.where(at_hi, s1, slope)))
    if value.ndim == 0:
        return float(value), float(slope)
    return value, slope


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
    runs from 0 to u_max). All entries live in the box [0, beta_max]. Both
    arrays are read-only copies. The two interpolants (`flux_interpolants`)
    are built here with `Pchip(partition, values)`, whose checks prove the
    partition a knot vector, so a parameter whose values cannot be
    interpolated is refused when it is made.
    """

    beta: np.ndarray
    partition: np.ndarray
    beta_max: float

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        part = np.array(self.partition, dtype=float)
        beta.setflags(write=False)
        part.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "partition", part)
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
        n = part.size
        object.__setattr__(self, "_interpolants", (Pchip(part, beta[:n]), Pchip(part, beta[n:])))
        if abs(part[0]) > EQUIDISTANT_RTOL * part[-1]:
            raise ValidationError("flux partition must start at 0")

    @property
    def n(self) -> int:
        """Number of knots per flux."""
        return self.partition.size


def flux_interpolants(fp: FluxParameter) -> tuple[Pchip, Pchip]:
    """Interpolants (flux at x=0, flux at x=L) for the current parameters.

    `fp` built them when it was made, so the forward march, the adjoint march
    and the gradient assembly at one parameter share one pair (about 0.05 ms
    each at 20-41 knots).
    """
    return fp._interpolants
