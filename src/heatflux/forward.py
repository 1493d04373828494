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

The march reads the diffusivity through `pchip.march_evaluator` (values only,
from the interval table the interpolant was built with, equal to `pchip.eval`
bit for bit) and the boundary fluxes through `pchip._eval_scalar`. Its
linearization, the tangent march and its transpose, lives in `adjoint`, which
fills its step bands with this module's `_diffusion_bands`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import pchip
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


def _step_tridiagonal(ab: np.ndarray, rhs: np.ndarray, step: int) -> np.ndarray:
    # Direct LAPACK tridiagonal solve; the bands are rebuilt every step, so
    # letting the factorization overwrite them costs nothing.
    _, _, _, out, info = dgtsv(
        ab[2, :-1], ab[1], ab[0, 1:], rhs,
        overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
    )
    # A single BLAS reduction detects NaN and inf anywhere in the solution
    # (both propagate through the dot product) far cheaper than an
    # elementwise isfinite scan in this per-step hot path. The dot can also
    # overflow for huge yet finite solutions, so a non-finite dot falls back
    # to the exact elementwise check before declaring divergence.
    if info != 0 or (not math.isfinite(np.dot(out, out)) and not np.isfinite(out).all()):
        raise DivergenceError(f"solution became non-finite at time step {step}", step=step)
    return out


def _diffusion_bands(ab: np.ndarray, amid: np.ndarray, r: float) -> np.ndarray:
    """Fill the banded implicit operator I + r*K for interface means `amid`.

    Banded layout: ab[0, j] = A[j-1, j], ab[1, j] = A[j, j], ab[2, j] = A[j+1, j].
    Interior rows balance the two adjacent interface fluxes; the first and
    last rows are half-cell balances, equivalent to centered ghost points.
    The matrix is symmetric under the half-cell volume weighting, so it is
    also the implicit operator of the adjoint march. A trailing axis on `ab`
    (3, nx, levels) and `amid` (nx - 1, levels) fills many time levels at
    once, with the same arithmetic per entry.
    """
    # Both off-diagonals hold -r*amid; the boundary rows double it, which is
    # exact, so they equal -2r*amid bit for bit.
    off = -r * amid
    ab[0, 1:] = off
    ab[2, :-1] = off
    ab[0, 1] *= 2.0
    ab[2, -2] *= 2.0
    ab[1, 0] = 1.0 + 2.0 * r * amid[0]
    ab[1, 1:-1] = 1.0 + r * (amid[:-1] + amid[1:])
    ab[1, -1] = 1.0 + 2.0 * r * amid[-1]
    return ab


def solve_ibvp(m: MaterialModel, fp: FluxParameter, u0, g: Grid) -> EnthalpyField:
    """March the nonlinear state equation forward over the whole grid.

    `u0` is the initial enthalpy profile (length nx, finite, inside the
    material's enthalpy range). Boundary fluxes and diffusivities are
    evaluated on the previous level with clamped interpolation, so transient
    excursions beyond the tabulated ranges stay well defined; every solved
    level is checked finite, so the evaluators only ever see finite input.
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
    ab = np.zeros((3, g.nx))
    diffusivity = pchip.march_evaluator(m.diffusivity)
    for n in range(g.nt):
        un = U[n]
        alpha = diffusivity(un)
        amid = 0.5 * (alpha[:-1] + alpha[1:])
        beta0 = pchip._eval_scalar(b0, float(un[0]), True)[0]
        betaL = pchip._eval_scalar(bL, float(un[-1]), True)[0]

        _diffusion_bands(ab, amid, r)
        rhs = un.copy()
        rhs[0] -= c * beta0
        rhs[-1] -= c * betaL
        U[n + 1] = _step_tridiagonal(ab, rhs, n + 1)
    return EnthalpyField(g, U)


def total_enthalpy(f: EnthalpyField, step: int) -> float:
    """Trapezoidal space integral of the field at one time level."""
    if not 0 <= step <= f.grid.nt:
        raise ValidationError(f"step {step} outside [0, {f.grid.nt}]")
    return float(_trapz(f.values[step], dx=f.grid.dx))
