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

The step loop runs compiled (`marchlib`, `_march.c`): `solve_ibvp`
validates the initial level and hands `marchlib` the field, the step
constants and the interpolants of the diffusivity and the two fluxes. Per
step the loop fills the bands of I + r K from the sums of neighbouring
diffusivities, evaluates the two boundary fluxes as `pchip.eval` does
(clamped, from the interval table the interpolant was built with), forms
the right-hand side in the next level of the output field and solves it
there with the library's one elimination, LAPACK dgtsv's operations in
dgtsv's order without pivoting, which I + r K never needs; its back
substitution evaluates the diffusivity of each node of the new level as
soon as the node is solved, for the next step: the numpy march's
operations in its order, so every level keeps its bits wherever dgtsv
kept its pivots in place, as on every grid a default run solves. Its
linearization, the tangent march and its transpose, lives in `adjoint`;
both of those compiled marches fill each step's bands with the state
march's band fill.

The tangent and adjoint marches solve, level by level, the matrices the
state march eliminated, and they solve only on its pivots. Asked to
(`solve_ibvp(..., pivots=True)`, which `adjoint.objective` does for every
solve that may take a gradient), the march keeps each step's pivots, the
diagonal its elimination leaves, in nt more rows of the block it solves
the field in, and the field carries them (`EnthalpyField.pivots`, with
the diffusivity and the fluxes it marched with) for both linearized
marches to solve on at every step and to linearize at; they take the
field alone and refuse one without that record. Such a field's values
and pivots are read-only, so the two cannot part. Other solves,
`simulate`'s and `gradcheck`'s difference solves among them, keep no
pivots: they would take as much memory again as the field, and nothing
linearizes about those fields.

All three marches stop alike: each right-hand side is formed in the
buffer it is solved in and solved there, by the one elimination in the
state march and on the recorded pivots in the linearized ones, and the
back substitution tests every entry it solves. A march stops at its
first non-finite solved level, and the state march also at a singular
step, where `marchlib` raises `DivergenceError`. So the state march
evaluates the boundary fluxes on finite wall values only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import marchlib
from .errors import ValidationError
from .pchip import FluxParameter, Pchip, flux_interpolants

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

    @property
    def r(self) -> float:
        """dt/dx^2, the diffusion number of every march step."""
        return self.dt / self.dx**2

    @property
    def c(self) -> float:
        """2 dt/dx, the boundary number of every march step."""
        return 2.0 * self.dt / self.dx


class Pivots(NamedTuple):
    """The nt x nx pivots a state march recorded (`rows`: row n the pivots
    of step n), with the diffusivity whose bands they eliminate and the
    fluxes it marched with: the point the linearized marches linearize at."""

    diffusivity: Pchip
    fluxes: FluxParameter
    rows: np.ndarray


@dataclass(frozen=True, eq=False)
class EnthalpyField:
    """Grid plus the (nt+1) x nx matrix of nodal enthalpies, and the
    pivots of the march that computed them when it recorded them
    (`solve_ibvp` makes both read-only then, so the two cannot part)."""

    grid: Grid
    values: np.ndarray
    pivots: Pivots | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        expected = (self.grid.nt + 1, self.grid.nx)
        if vals.shape != expected:
            raise ValidationError(f"field shape {vals.shape} != grid shape {expected}")


def solve_ibvp(alpha: Pchip, fp: FluxParameter, u0, g: Grid, *,
               pivots: bool = False) -> EnthalpyField:
    """March the nonlinear state equation forward over the whole grid.

    `alpha` is the diffusivity over enthalpy (`material.build_material`).
    `u0` is the initial enthalpy profile (length nx, finite, inside the
    diffusivity's knot range). Boundary fluxes and diffusivities are
    evaluated on the previous level with clamped interpolation, so transient
    excursions beyond the tabulated ranges stay well defined. The march
    stops with `DivergenceError` at a singular step or at the first
    non-finite level, so the boundary fluxes are only ever evaluated at
    finite wall values.

    With `pivots`, the field also carries each step's pivots, with `alpha`
    and `fp` (`Pivots`), for the tangent and adjoint marches along it
    (`adjoint.solve_sensitivity`, `adjoint.solve_adjoint`) to solve on and
    linearize at; those refuse a field without them. The pivots take nt
    more levels, allocated with the field in one block.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (g.nx,):
        raise ValidationError(f"u0 must have shape ({g.nx},)")
    if not np.isfinite(u0).all():
        raise ValidationError("u0 must be finite")
    umin, umax = alpha.knots[0], alpha.knots[-1]
    if (u0 < umin - 1e-9 * umax).any() or (u0 > umax * (1 + 1e-12)).any():
        raise ValidationError("u0 outside the material enthalpy range")

    block = np.empty((2 * g.nt + 1 if pivots else g.nt + 1, g.nx))
    U, rows = block[: g.nt + 1], block[g.nt + 1 :]
    U[0] = u0
    marchlib.forward_march(U, g.r, g.c, alpha, *flux_interpolants(fp),
                           rows if pivots else None)
    if not pivots:
        return EnthalpyField(g, U)
    U.flags.writeable = rows.flags.writeable = False
    return EnthalpyField(g, U, Pivots(alpha, fp, rows))


def total_enthalpy(f: EnthalpyField, step: int) -> float:
    """Trapezoidal space integral of the field at one time level."""
    if not 0 <= step <= f.grid.nt:
        raise ValidationError(f"step {step} outside [0, {f.grid.nt}]")
    return float(_trapz(f.values[step], dx=f.grid.dx))
