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
fills the bands of I + r K from the sums of neighbouring diffusivities,
evaluates the two boundary fluxes as `pchip.eval` does (clamped, from the
interval table the interpolant was built with), forms the right-hand side
in the next level of the output field and solves it there with the
library's port of LAPACK's dgtsv, whose back substitution evaluates the
diffusivity of each node of the new level as soon as the node is solved,
for the next step: the numpy march's operations in its order, so every
level keeps its bits. Its linearization, the tangent march and its
transpose, lives in `adjoint`; both of those compiled marches fill each
step's bands with the state march's band fill.

All three marches solve alike and stop alike: each right-hand side is
formed in the buffer it is solved in and solved there by the dgtsv port,
whose back substitution tests every entry it solves, and the march stops
at a singular step or at its first non-finite solved level, where
`marchlib` raises `DivergenceError`. So the state march evaluates the
boundary fluxes on finite wall values only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import marchlib
from .errors import ValidationError
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


def solve_ibvp(m: MaterialModel, fp: FluxParameter, u0, g: Grid) -> EnthalpyField:
    """March the nonlinear state equation forward over the whole grid.

    `u0` is the initial enthalpy profile (length nx, finite, inside the
    material's enthalpy range). Boundary fluxes and diffusivities are
    evaluated on the previous level with clamped interpolation, so transient
    excursions beyond the tabulated ranges stay well defined. The march
    stops with `DivergenceError` at a singular step or at the first
    non-finite level, so the boundary fluxes are only ever evaluated at
    finite wall values.
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
    marchlib.forward_march(U, r, c, *(marchlib.interpolant(p) for p in (m.diffusivity, b0, bL)))
    return EnthalpyField(g, U)


def total_enthalpy(f: EnthalpyField, step: int) -> float:
    """Trapezoidal space integral of the field at one time level."""
    if not 0 <= step <= f.grid.nt:
        raise ValidationError(f"step {step} outside [0, {f.grid.nt}]")
    return float(_trapz(f.values[step], dx=f.grid.dx))
