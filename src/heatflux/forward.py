"""Finite-difference solvers for the quasilinear cooling problem.

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

`solve_sensitivity` integrates the linearization of the parameter-to-state
map: w_t = (alpha'(u) w)_xx with boundary terms beta'(u) w + grad_beta(u) . h,
along a stored trajectory u. The diffusive part (alpha'(u) w_x)_x reuses the
implicit interface-mean stencil of the state march; the transport part
(alpha''(u) u_x w)_x and the flux linearization are frozen at the previous
level, exactly like the coefficients they derive from. The step is therefore
the exact derivative of the discrete state step, which is what makes
adjoint-based gradients agree with finite differences of the objective.

The marches are kept lean without changing a bit of their output. The state
march reads the diffusivity through `pchip.march_evaluator` (values only,
from the interval table the interpolant was built with, equal to `pchip.eval`
bit for bit) and the boundary fluxes through `pchip._eval_scalar`. The
linearized marches take their grid from the trajectory they linearize about.
All three marches fill their bands with `_diffusion_bands`: the state march
one level per step, the tangent and adjoint marches every level at once in
the one pass over the trajectory that also gives their frozen coefficients
(`_trajectory_coefficients`). The adjoint takes its transport factors from
`_transport_factors`, formed once per march in the order the per-step
products used, so every product rounds as it would inside the step.
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

# Nodes per block when the diffusivity is evaluated along a whole trajectory.
_EVAL_BLOCK = 16384


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

    def xs(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx)

    def ts(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)


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


def _transport_apply(
    ap: np.ndarray, du_new: np.ndarray, w: np.ndarray, r: float
) -> np.ndarray:
    """Advective part of the linearized step applied to a perturbation w.

    Differentiating the implicit diffusion term with respect to its lagged
    coefficients gives, per row, interface products of d(alpha')/du (`ap`),
    the new-level state increments `du_new`, and w. `_transport_apply_t` is
    the exact transpose of this map under the half-cell volume weights; the
    pair keeps sensitivity and adjoint marches exactly dual.
    """
    pw = ap * w
    pw2 = pw[:-1] + pw[1:]
    out = np.empty_like(w)
    out[0] = -r * du_new[0] * pw2[0]
    out[1:-1] = 0.5 * r * (du_new[:-1] * pw2[:-1] - du_new[1:] * pw2[1:])
    out[-1] = r * du_new[-1] * pw2[-1]
    return out


def _transport_factors(du: np.ndarray, ap: np.ndarray, r: float):
    """Per-level factors of `_transport_apply_t` along a whole trajectory.

    Row s holds the factors of the step from level s to s + 1: (0.5 r) ap at
    the interior nodes and (r du_new) ap at the two walls, with du_new the
    increments at level s + 1. Each product is formed in the order a
    per-step evaluation of the transpose would use, so it rounds the same.
    """
    half_ap = (0.5 * r) * ap[:-1, 1:-1]
    wall0 = (r * du[1:, 0]) * ap[:-1, 0]
    wallL = (r * du[1:, -1]) * ap[:-1, -1]
    return half_ap, wall0, wallL


def _transport_apply_t(
    half_ap: np.ndarray, wall0: float, wallL: float, du_new: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Volume-weighted transpose of `_transport_apply`, for adjoint marches.

    Takes one level of the factors `_transport_factors` hoists out of the
    march.
    """
    dq = q[1:] - q[:-1]
    pd = du_new * dq
    out = np.empty_like(q)
    out[0] = wall0 * dq[0]
    out[1:-1] = half_ap * (pd[:-1] + pd[1:])
    out[-1] = wallL * dq[-1]
    return out


def _trajectory_coefficients(
    u: EnthalpyField, m: MaterialModel, b0: pchip.Pchip, bL: pchip.Pchip
):
    """Frozen coefficients of the linearized step at every level of `u`.

    Returns (du, ap, bands, b0p, bLp): the state increments between
    neighbouring nodes, d(alpha')/du at the nodes, the implicit operator of
    each step (`bands[k]`, for the step from level k, in `_diffusion_bands`
    layout; the solve overwrites it, so each is used once), and the two
    boundary flux slopes. The tangent march (`solve_sensitivity`) and the
    adjoint march (`adjoint.solve_adjoint`) both read them from here, so one
    is the transpose of the other on the same numbers. Every evaluation is
    row-wise, so each level gets the values a per-step evaluation would give.
    """
    du = np.diff(u.values, axis=1)
    # The diffusivity is evaluated in blocks of levels whose temporaries stay
    # small and cache-resident; one call on the whole trajectory spends most
    # of its time allocating and faulting in trajectory-sized temporaries.
    alpha, ap = np.empty_like(u.values), np.empty_like(u.values)
    rows = max(1, _EVAL_BLOCK // u.grid.nx)
    for i in range(0, u.grid.nt + 1, rows):
        alpha[i:i + rows], ap[i:i + rows] = pchip.eval(
            m.diffusivity, u.values[i:i + rows], clamp=True
        )
    amid = 0.5 * (alpha[:-1, :-1] + alpha[:-1, 1:])
    # One contiguous (3, nx) block per step, filled through a view that puts
    # the levels last.
    bands = np.empty((u.grid.nt, 3, u.grid.nx))
    _diffusion_bands(bands.transpose(1, 2, 0), amid.T, u.grid.dt / u.grid.dx**2)
    b0p = pchip.eval(b0, u.values[:, 0], clamp=True)[1]
    bLp = pchip.eval(bL, u.values[:, -1], clamp=True)[1]
    return du, ap, bands, b0p, bLp


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


def solve_sensitivity(
    u: EnthalpyField, m: MaterialModel, fp: FluxParameter, h
) -> EnthalpyField:
    """Directional derivative of the state with respect to the flux values.

    Solves the linear problem w_t = (alpha'(u) w)_xx with w(0, .) = 0 and
    boundary conditions (alpha'(u) w)_x = beta'(u) w + grad_beta(u) . h at
    x = 0 (mirrored at x = L), along the stored trajectory `u`. Each step is
    the exact derivative of the corresponding state step: implicit diffusion
    with the same interface means, advective coefficient feedback and flux
    linearization frozen at the previous level. Linearity in `h` is exact.
    The field lives on the trajectory's grid.
    """
    g = u.grid
    h = np.asarray(h, dtype=float)
    n = fp.n
    if h.shape != (2 * n,):
        raise ValidationError(f"direction must have shape ({2 * n},)")
    b0, bL = flux_interpolants(fp)
    h0, hL = h[:n], h[n:]

    r = g.dt / g.dx**2
    c = 2.0 * g.dt / g.dx

    W = np.zeros((g.nt + 1, g.nx))
    du, ap, bands, b0p, bLp = _trajectory_coefficients(u, m, b0, bL)
    G0 = pchip.grad_wrt_values_many(b0, u.values[:, 0], clamp=True)
    GL = pchip.grad_wrt_values_many(bL, u.values[:, -1], clamp=True)
    for k in range(g.nt):
        wn = W[k]
        src0 = float(G0[k] @ h0)
        srcL = float(GL[k] @ hL)

        rhs = wn - _transport_apply(ap[k], du[k + 1], wn, r)
        rhs[0] -= c * (b0p[k] * wn[0] + src0)
        rhs[-1] -= c * (bLp[k] * wn[-1] + srcL)
        W[k + 1] = _step_tridiagonal(bands[k], rhs, k + 1)
    return EnthalpyField(g, W)

