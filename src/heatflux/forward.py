"""Finite-difference state march for the quasilinear cooling problem.

State equation: u_t = (alpha'(u) u_x)_x on (0, L), with enthalpy-dependent
boundary extraction alpha'(u) u_x = beta0(u) at x = 0 and -alpha'(u) u_x =
betaL(u) at x = L. Time stepping is backward Euler on the diffusion term with
diffusivity and boundary fluxes frozen at the previous level, so every step
is one tridiagonal solve and the linearized step is unconditionally stable.

Space discretization is conservative: interior nodes use interface
diffusivities averaged between neighbours, boundary nodes use half-cell
balances (the centered ghost-point rows written in flux form). Summed with
trapezoid weights the scheme satisfies the discrete energy identity

    (E^{n+1} - E^n) / dt = -beta0(u^n_0) - betaL(u^n_L)

exactly, which mirrors the continuous energy balance of the model.

The step loop runs compiled (`marchlib`, `_march.c`). Per step it
evaluates the diffusivity as `pchip.march_evaluator` does (clamped, from
the interval table the interpolant was built with), sums neighbouring
diffusivities, fills the bands as `_diffusion_bands` does, evaluates the two
boundary fluxes as `pchip._eval_scalar` does, forms the right-hand side in
the next level of the output field and solves it there with scipy's LAPACK
dgtsv: the numpy march's operations in its order, so every level keeps its
bits. Its linearization, the tangent march and its transpose, lives in
`adjoint`: the tangent march fills the bands of a block of steps at once
with `_diffusion_bands`, and the compiled adjoint march fills each step's
as the state march does.

All three marches solve alike: each right-hand side is formed in the row of
the output it is solved for and solved there by dgtsv, and one function,
`_check_levels`, raises `DivergenceError` at the step a per-step test of
every solved level would give. The state march calls it when a wall value
of a level is not finite (its compiled loop stops there, before any flux
is evaluated on it), on a singular step and once after its last step; the
linearized marches on a singular step and once per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import marchlib
from .errors import DivergenceError, ValidationError
from .material import MaterialModel
from .pchip import FluxParameter, flux_interpolants

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid on [0, L] x [0, T]."""

    L: float
    T: float
    nx: int
    nt: int

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.L, self.T)):
            raise ValidationError("grid extents L and T must be finite and positive")
        if self.nx < 3:
            raise ValidationError("grid needs at least 3 space nodes")
        if self.nt < 1:
            raise ValidationError("grid needs at least 1 time step")

    @property
    def dx(self) -> float:
        return self.L / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.T / self.nt


@dataclass(frozen=True, eq=False)
class EnthalpyField:
    """Grid plus the (nt+1) x nx matrix of nodal enthalpies."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        expected = (self.grid.nt + 1, self.grid.nx)
        if vals.shape != expected:
            raise ValidationError(f"field shape {vals.shape} != grid shape {expected}")


def _check_levels(levels: np.ndarray, first_step: int, singular: int | None = None) -> None:
    """Raise `DivergenceError` for the solved levels of a march, `levels` in
    march order, row i solved by step first_step + i: at the first non-finite
    row, else at step `singular` (whose step matrix was singular) when it is
    given; else return.

    All three marches check here. One BLAS reduction clears a finite run:
    NaN and inf propagate through it, and a non-finite dot of huge finite
    levels falls back to the exact elementwise scan. The adjoint hands in a
    block it solved backward in time as a reversed view; the reduction runs
    over its rows as stored, so the finite path copies nothing, and only the
    scan reads the rows in march order.
    """
    stored = levels[::-1] if levels.strides[0] < 0 else levels
    if not math.isfinite(np.vdot(stored, stored)):
        bad = np.flatnonzero(~np.isfinite(levels).all(axis=1))
        if bad.size:
            step = first_step + int(bad[0])
            raise DivergenceError(f"solution became non-finite at time step {step}", step=step)
    if singular is not None:
        raise DivergenceError(f"singular step matrix at time step {singular}", step=singular)


def _diffusion_bands(S: np.ndarray, off: np.ndarray, diag: np.ndarray, r: float):
    """Return `fill()`, the one-pass fill of the bands of the implicit
    operator I + r*K from `S` into `off` and `diag`; r = dt/dx^2.

    `S` holds the nx - 1 sums s_j = alpha_j + alpha_(j+1) of neighbouring
    nodal diffusivities with each end sum repeated, nx + 1 entries:
    S = (s[0], s, s[-1]). One product s*(-r/2) fills both off-diagonals:
    `off[0]` is the super-diagonal A[j, j+1] and `off[1]` the sub-diagonal
    A[j+1, j], and the half-cell wall rows take s*(-r) at A[0, 1] and
    A[nx-1, nx-2]. The diagonal is (S[j] + S[j+1])*(r/2) + 1. Interior rows
    balance the two adjacent interface fluxes with the interface means
    amid = s/2; the first and last rows are half-cell balances, equivalent
    to centered ghost points. Each call of `fill` is four ufunc calls on
    views made here once, and writes every entry in place.

    These are the bands written from amid (-r*amid off the diagonal, doubled
    on the walls, and 1 + r*(amid[j-1] + amid[j]) on it, with amid[0] and
    amid[-1] doubled on the walls) bit for bit: halving and doubling are
    exact, so s*(r/2), (s/2)*r and 2*((s/2)*r)/2 round alike. The identity
    fails only where half a sum of diffusivities, or of two such sums, is
    subnormal, or where the sum of two sums overflows. The matrix is
    symmetric under the half-cell volume weighting, so it is also the
    implicit operator of the adjoint march. Leading axes on `S`
    (levels, nx + 1), `off` (levels, 2, nx - 1) and `diag` (levels, nx) fill
    many time levels at once, each a contiguous row, with the same
    arithmetic per entry; the linearized marches fill a block of steps so.
    The state march's compiled loop fills one step's bands with the same
    operations.
    """
    coef = np.full((2, S.shape[-1] - 2), -0.5 * r)
    coef[0, 0] = coef[1, -1] = -r
    half_r, one = np.array(0.5 * r), np.array(1.0)
    s, S_lo, S_hi = S[..., None, 1:-1], S[..., :-1], S[..., 1:]

    def fill():
        np.multiply(s, coef, out=off)
        np.add(S_lo, S_hi, out=diag)
        np.multiply(diag, half_r, out=diag)
        np.add(diag, one, out=diag)

    return fill


def solve_ibvp(m: MaterialModel, fp: FluxParameter, u0, g: Grid) -> EnthalpyField:
    """March the nonlinear state equation forward over the whole grid.

    `u0` is the initial enthalpy profile (length nx, finite, inside the
    material's enthalpy range). Boundary fluxes and diffusivities are
    evaluated on the previous level with clamped interpolation, so transient
    excursions beyond the tabulated ranges stay well defined. The march
    stops with `DivergenceError` at the first non-finite level, and the
    boundary fluxes are only ever evaluated at finite wall values.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (g.nx,):
        raise ValidationError(f"u0 must have shape ({g.nx},)")
    if not np.isfinite(u0).all():
        raise ValidationError("u0 must be finite")
    umin, umax = m.u_range
    if (u0 < umin - 1e-9 * umax).any() or (u0 > umax * (1 + 1e-12)).any():
        raise ValidationError("u0 outside the material enthalpy range")

    b0, bL = flux_interpolants(fp)
    r = g.dt / g.dx**2
    c = 2.0 * g.dt / g.dx

    U = np.empty((g.nt + 1, g.nx))
    U[0] = u0
    # The compiled loop stops at a level with a non-finite wall value and at
    # a singular step; `_check_levels` raises at the step a per-step check
    # would give, and after the last step it finds a non-finite level the
    # walls never showed.
    interps = [marchlib.interpolant(p) for p in (m.diffusivity, b0, bL)]
    stop, n = marchlib.forward_march(U, r, c, *interps)
    if stop != marchlib.DONE:
        _check_levels(U[1 : n + 1], 1, singular=n + 1 if stop == marchlib.SINGULAR else None)
    _check_levels(U[1:], 1)
    return EnthalpyField(g, U)


def total_enthalpy(f: EnthalpyField, step: int) -> float:
    """Trapezoidal space integral of the field at one time level."""
    if not 0 <= step <= f.grid.nt:
        raise ValidationError(f"step {step} outside [0, {f.grid.nt}]")
    return float(_trapz(f.values[step], dx=f.grid.dx))
