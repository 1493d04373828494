"""Objective evaluation and adjoint-state gradient assembly.

The misfit functional is f(beta) = 0.5 * ||observe(S(beta)) - data||_F^2.
Its gradient is obtained from the continuous adjoint problem

    phi_t = -alpha'(u) phi_xx - v,   phi(T, .) = 0,
    alpha'(u) phi_x = beta0'(u) phi   at x = 0,
   -alpha'(u) phi_x = betaL'(u) phi   at x = L,

where v is the residual injected through the transposed observation
operator. After the substitution tau = T - t this is a forward parabolic
problem and is marched with the same semi-implicit tridiagonal stencil as
the state equation; coefficients along the stored trajectory are taken at
the original interval's earlier time level and the source at its later one,
which picks up the residual at t = T. Diffusion, transport correction, and
Robin terms are arranged as the exact volume-weighted transposes of their
sensitivity counterparts, so the assembled gradient is the gradient of the
discrete objective up to rounding.

The gradient itself is the time integral of the boundary traces:

    grad f = -int_0^T grad_beta0(u(t, 0)) phi(t, 0)
                    + grad_betaL(u(t, L)) phi(t, L) dt,

evaluated with per-step left-rectangle weights so that the assembly is the
exact transpose of the lagged-flux march; the first half of the vector
belongs to the flux at x = 0, the second half to the flux at x = L.
"""

from __future__ import annotations

import numpy as np

from . import forward, pchip
from .errors import ValidationError
from .forward import EnthalpyField, Grid, _step_tridiagonal, solve_ibvp
from .material import MaterialModel
from .observation import Measurement, adjoint_source, observe
from .pchip import FluxParameter, flux_interpolants


def objective(
    fp: FluxParameter, data: Measurement, m: MaterialModel, u0, g: Grid
) -> tuple[float, np.ndarray, EnthalpyField]:
    """Misfit value plus the residual matrix and state field for reuse."""
    field = solve_ibvp(m, fp, u0, g)
    residual = observe(field, data.spec) - data.data
    f = 0.5 * float(np.sum(residual**2))
    return f, residual, field


def solve_adjoint(
    u: EnthalpyField, m: MaterialModel, fp: FluxParameter, source: np.ndarray, g: Grid
) -> np.ndarray:
    """Backward adjoint solve, returned in original time orientation.

    `source` is the (nt+1) x nx injected residual field. The returned array
    phi has the same shape with phi[nt] = 0 exactly.
    """
    if u.grid != g:
        raise ValidationError("trajectory grid does not match the requested grid")
    source = np.asarray(source, dtype=float)
    if source.shape != (g.nt + 1, g.nx):
        raise ValidationError(f"source must have shape {(g.nt + 1, g.nx)}")
    b0, bL = flux_interpolants(fp)
    r = g.dt / g.dx**2
    c = 2.0 * g.dt / g.dx

    phi = np.zeros((g.nt + 1, g.nx))
    psi = np.zeros(g.nx)
    # Everything that does not depend on the freshly solved level is hoisted
    # out of the march: weighted source rows, the tangent march's frozen
    # coefficients and step bands along the stored trajectory, and their
    # per-level products with the step constants (transport factors, Robin
    # factors c*beta').
    weighted_src = g.dt * source
    weighted_src[:, 0] *= 2.0  # source density doubles on the wall half cells
    weighted_src[:, -1] *= 2.0
    du, ap, bands, b0p, bLp = forward._trajectory_coefficients(u, m, b0, bL)
    half_ap, wall0, wallL = forward._transport_factors(du, ap, r)
    robin0 = c * b0p
    robinL = c * bLp
    for step in range(g.nt):
        s = g.nt - step - 1
        # The implicit operator is self-adjoint under the half-cell volume
        # weights, so the adjoint march solves with the state step's bands.
        q = _step_tridiagonal(bands[s], psi + weighted_src[s + 1], step + 1)
        phi[s] = q
        # Carry to the next (earlier) level: the transposed transport
        # correction and the Robin terms alpha' phi_x = beta' phi act on the
        # freshly solved level, mirroring the frozen-coefficient treatment of
        # the state march.
        psi = q - forward._transport_apply_t(half_ap[s], wall0[s], wallL[s], du[s + 1], q)
        psi[0] -= robin0[s] * q[0]
        psi[-1] -= robinL[s] * q[-1]
    return phi


def assemble_gradient(
    phi: np.ndarray, u: EnthalpyField, fp: FluxParameter, g: Grid
) -> np.ndarray:
    """Time integral of the weighted adjoint boundary traces.

    Left-rectangle weights (dt per step, nothing at t = T where phi vanishes)
    make this the exact transpose of the lagged-flux state march: each step's
    boundary term enters through the earlier time level, so pairing the trace
    at level n with the multiplier of the n -> n+1 equation reproduces the
    discrete objective's gradient to rounding, not just to quadrature order.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (g.nt + 1, g.nx) or u.values.shape != phi.shape:
        raise ValidationError("phi and u must both live on the requested grid")
    b0, bL = flux_interpolants(fp)
    w = np.full(g.nt + 1, g.dt)
    w[-1] = 0.0
    G0 = pchip.grad_wrt_values_many(b0, u.values[:, 0], clamp=True)
    GL = pchip.grad_wrt_values_many(bL, u.values[:, -1], clamp=True)
    g0 = -(G0 * (w * phi[:, 0])[:, None]).sum(axis=0)
    gL = -(GL * (w * phi[:, -1])[:, None]).sum(axis=0)
    return np.concatenate([g0, gL])


def compute_gradient(
    fp: FluxParameter,
    data: Measurement,
    m: MaterialModel,
    u0,
    g: Grid,
    field: EnthalpyField | None = None,
    residual: np.ndarray | None = None,
    obj: float | None = None,
) -> tuple[float, np.ndarray]:
    """Full chain: state solve, residual injection, adjoint solve, assembly.

    Returns (objective value, gradient). A previously computed (obj,
    residual, field) triple for the same parameters can be passed in to skip
    the state solve.
    """
    if field is None or residual is None or obj is None:
        obj, residual, field = objective(fp, data, m, u0, g)
    src = adjoint_source(residual, data.spec, g)
    phi = solve_adjoint(field, m, fp, src, g)
    return float(obj), assemble_gradient(phi, field, fp, g)
