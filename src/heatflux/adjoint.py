"""Objective, linearized marches and adjoint-state gradient assembly.

The misfit functional is f(beta) = 0.5 * ||observe(S(beta)) - data||_F^2.

`solve_sensitivity` integrates the linearization of the parameter-to-state
map: w_t = (alpha'(u) w)_xx with boundary terms beta'(u) w + grad_beta(u) . h,
along a stored trajectory u. The diffusive part (alpha'(u) w_x)_x reuses the
implicit interface-mean stencil of the state march; the transport part
(alpha''(u) u_x w)_x and the flux linearization are frozen at the previous
level, exactly like the coefficients they derive from. Each tangent step is
therefore the exact derivative of the discrete state step.

The gradient is obtained from the continuous adjoint problem

    phi_t = -alpha'(u) phi_xx - v,   phi(T, .) = 0,
    alpha'(u) phi_x = beta0'(u) phi   at x = 0,
   -alpha'(u) phi_x = betaL'(u) phi   at x = L,

where v is the residual injected through the transposed observation
operator. After the substitution tau = T - t this is a forward parabolic
problem and is marched with the same semi-implicit tridiagonal stencil as
the state equation; coefficients along the stored trajectory are taken at
the original interval's earlier time level and the source at its later one,
which picks up the residual at t = T. Each adjoint step is the exact
volume-weighted transpose of the tangent step: the implicit operator is
self-adjoint under the half-cell weights, `_transport_apply_t` transposes
`_transport_apply`, and the Robin terms mirror the flux linearization. The
assembled gradient is therefore the gradient of the discrete objective up to
rounding.

The gradient itself is the time integral of the boundary traces:

    grad f = -int_0^T grad_beta0(u(t, 0)) phi(t, 0)
                    + grad_betaL(u(t, L)) phi(t, L) dt,

evaluated with per-step left-rectangle weights so that the assembly is the
exact transpose of the lagged-flux march; the first half of the vector
belongs to the flux at x = 0, the second half to the flux at x = L.

The marches are kept lean without changing a bit of their output. Both
linearized marches take their grid from the trajectory they linearize about
and read their frozen coefficients from one pass over it
(`_trajectory_coefficients`), which also fills the bands of every step at
once with the state march's `_diffusion_bands`. The adjoint takes its
transport factors from `_transport_factors`, formed once per march in the
order the per-step products used, so every product rounds as it would inside
the step. Its steps allocate nothing: each right-hand side is formed in the
row of the output it is solved for, `_transport_apply_t` writes into buffers
of the march, and the two wall rows are updated with Python floats.
"""

from __future__ import annotations

import numpy as np

from . import pchip
from .errors import ValidationError
from .forward import EnthalpyField, Grid, _diffusion_bands, _step_tridiagonal, solve_ibvp
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
    half_ap: np.ndarray, wall0: float, wallL: float, du_new: np.ndarray, q: np.ndarray,
    out: np.ndarray, pd: np.ndarray,
) -> np.ndarray:
    """Volume-weighted transpose of `_transport_apply`, for adjoint marches.

    Takes one level of the factors `_transport_factors` hoists out of the
    march, the wall factors as Python floats. Writes the result into `out`
    (nx entries) and returns it; `pd` (nx - 1 entries) is scratch.
    """
    np.subtract(q[1:], q[:-1], out=pd)
    dq_0, dq_L = pd.item(0), pd.item(-1)
    pd *= du_new
    inner = out[1:-1]
    np.add(pd[:-1], pd[1:], out=inner)
    inner *= half_ap
    out[0] = wall0 * dq_0
    out[-1] = wallL * dq_L
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
    adjoint march (`solve_adjoint`) both read them from here, so one is the
    transpose of the other on the same numbers. Every evaluation is
    elementwise, so each level gets the values a per-step evaluation would
    give.
    """
    g = u.grid
    du = np.diff(u.values, axis=1)
    alpha, ap = pchip.eval(m.diffusivity, u.values, clamp=True)
    # The extended interface means of every step, (amid[0], amid, amid[-1]).
    e = np.empty((g.nt, g.nx + 1))
    amid = e[:, 1:-1]
    np.add(alpha[:-1, :-1], alpha[:-1, 1:], out=amid)
    amid *= 0.5
    e[:, 0], e[:, -1] = amid[:, 0], amid[:, -1]
    # One contiguous (3, nx) block per step, filled through a view that puts
    # the levels last.
    bands = np.empty((g.nt, 3, g.nx))
    _diffusion_bands(bands.transpose(1, 2, 0), e.T, g.dt / g.dx**2)
    b0p = pchip.eval(b0, u.values[:, 0], clamp=True)[1]
    bLp = pchip.eval(bL, u.values[:, -1], clamp=True)[1]
    return du, ap, bands, b0p, bLp


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


def solve_adjoint(
    u: EnthalpyField, m: MaterialModel, fp: FluxParameter, source: np.ndarray
) -> np.ndarray:
    """Backward adjoint solve along the trajectory `u`, returned in original
    time orientation.

    `source` is the (nt+1) x nx injected residual field on the trajectory's
    grid. The returned array phi has the same shape with phi[nt] = 0 exactly.
    """
    g = u.grid
    source = np.asarray(source, dtype=float)
    if source.shape != u.values.shape:
        raise ValidationError(f"source must have shape {u.values.shape}")
    b0, bL = flux_interpolants(fp)
    r = g.dt / g.dx**2
    c = 2.0 * g.dt / g.dx

    phi = np.zeros((g.nt + 1, g.nx))
    # Every step works in these buffers: the carried level psi and the
    # transpose's output and scratch. Its right-hand side is formed in the
    # row of phi it solves for and solved there.
    psi = np.zeros(g.nx)
    tq, pd = np.empty(g.nx), np.empty(g.nx - 1)
    # Everything that does not depend on the freshly solved level is hoisted
    # out of the march: weighted source rows, the tangent march's frozen
    # coefficients and step bands along the stored trajectory, and their
    # per-level products with the step constants (transport factors, Robin
    # factors c*beta'). The wall factors go to the loop as Python floats.
    weighted_src = g.dt * source
    weighted_src[:, 0] *= 2.0  # source density doubles on the wall half cells
    weighted_src[:, -1] *= 2.0
    du, ap, bands, b0p, bLp = _trajectory_coefficients(u, m, b0, bL)
    half_ap, wall0, wallL = _transport_factors(du, ap, r)
    wall0, wallL = wall0.tolist(), wallL.tolist()
    robin0, robinL = (c * b0p).tolist(), (c * bLp).tolist()
    for step in range(g.nt):
        s = g.nt - step - 1
        # The implicit operator is self-adjoint under the half-cell volume
        # weights, so the adjoint march solves with the state step's bands.
        q = phi[s]
        np.add(psi, weighted_src[s + 1], out=q)
        _step_tridiagonal(bands[s], q, step + 1)
        # Carry to the next (earlier) level: the transposed transport
        # correction and the Robin terms alpha' phi_x = beta' phi act on the
        # freshly solved level, mirroring the frozen-coefficient treatment of
        # the state march.
        _transport_apply_t(half_ap[s], wall0[s], wallL[s], du[s + 1], q, tq, pd)
        np.subtract(q, tq, out=psi)
        psi[0] = psi.item(0) - robin0[s] * q.item(0)
        psi[-1] = psi.item(-1) - robinL[s] * q.item(-1)
    return phi


def assemble_gradient(phi: np.ndarray, u: EnthalpyField, fp: FluxParameter) -> np.ndarray:
    """Time integral of the weighted adjoint boundary traces.

    Left-rectangle weights (dt per step, nothing at t = T where phi vanishes)
    make this the exact transpose of the lagged-flux state march: each step's
    boundary term enters through the earlier time level, so pairing the trace
    at level n with the multiplier of the n -> n+1 equation reproduces the
    discrete objective's gradient to rounding, not just to quadrature order.
    """
    g = u.grid
    phi = np.asarray(phi, dtype=float)
    if phi.shape != u.values.shape:
        raise ValidationError(f"phi must have the trajectory's shape {u.values.shape}")
    b0, bL = flux_interpolants(fp)
    w = np.full(g.nt + 1, g.dt)
    w[-1] = 0.0
    G0 = pchip.grad_wrt_values_many(b0, u.values[:, 0], clamp=True)
    GL = pchip.grad_wrt_values_many(bL, u.values[:, -1], clamp=True)
    g0 = -(G0 * (w * phi[:, 0])[:, None]).sum(axis=0)
    gL = -(GL * (w * phi[:, -1])[:, None]).sum(axis=0)
    return np.concatenate([g0, gL])


def compute_gradient(
    fp: FluxParameter, data: Measurement, m: MaterialModel,
    field: EnthalpyField, residual: np.ndarray,
) -> np.ndarray:
    """Gradient of the misfit at `fp` from its state `field` and sensor
    `residual`, as `objective` returns them: residual injection, adjoint
    solve along the field, and assembly. The objective value stays with the
    caller."""
    src = adjoint_source(residual, data.spec, field.grid)
    phi = solve_adjoint(field, m, fp, src)
    return assemble_gradient(phi, field, fp)
