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
operator, nonzero only at the time levels the sensor samples reach
(`observation.adjoint_source`). After the substitution tau = T - t this is a
forward parabolic problem and is marched with the same semi-implicit
tridiagonal stencil as the state equation; coefficients along the stored
trajectory are taken at the original interval's earlier time level and the
source at its later one, which picks up the residual at t = T. Each adjoint
step is the exact volume-weighted transpose of the tangent step: the
implicit operator is self-adjoint under the half-cell weights, the adjoint
step's transport correction transposes the tangent step's, and the Robin
terms mirror the flux linearization. The assembled gradient is therefore the
gradient of the discrete objective up to rounding.

The gradient itself is the time integral of the boundary traces:

    grad f = -int_0^T grad_beta0(u(t, 0)) phi(t, 0)
                    + grad_betaL(u(t, L)) phi(t, L) dt,

evaluated with per-step left-rectangle weights so that the assembly is the
exact transpose of the lagged-flux march; the first half of the vector
belongs to the flux at x = 0, the second half to the flux at x = L. Those two
traces are all of phi the gradient reads, so they are all `solve_adjoint`
keeps.

Both linearized marches run compiled (`marchlib`, `_march.c`) with the
numpy code's operations in their order, and take their grid from the
trajectory they linearize about. Each step reads its frozen coefficients
from the trajectory level it starts from, computed with the same C code in
both marches: the diffusivity and its slope, evaluated during the back
substitution of the step before (the first level's before the first step)
by the solve both marches and the state march share, a port of LAPACK's
dgtsv; then the bands of the state step and the two flux slopes, just
before the step; the increments of the later level and their products
with the step constants follow. So each adjoint step is the transpose of
the tangent step on the same numbers by construction. The tangent march
(`solve_sensitivity`; only tests call it) is one C call per solve: per
step it subtracts the transport correction, takes the linearized wall
fluxes off the wall entries, and solves in the next level of its field.
Its wall sources, grad_beta(u) . h, are numpy dots, one per level and wall,
formed before the call. The adjoint march (`solve_adjoint`) is one C call
per solve too, backward over the whole trajectory: per step it sums the
point sources of the level (`observation.adjoint_source`) into a zero row
in list order, adds the weighted row to the carried level, solves, keeps
the solved level's two wall entries and carries it through the transposed
transport correction and the two Robin walls. No level of phi is stored;
the tests read every level through the `phi` window the call fills when
given one. Both stop as the state march does, at a singular step or at
their first non-finite solved level, where `marchlib` raises
`DivergenceError`.
`assemble_gradient` sums the weighted traces over the levels in one
compiled pass per wall, one band of at most four entries per level, with
the bits of the dense rows of `pchip.grad_wrt_values_many` summed by numpy;
no (nt+1) x n matrix is built.
"""

from __future__ import annotations

import numpy as np

from . import marchlib, pchip
from .errors import ValidationError
from .forward import EnthalpyField, Grid, solve_ibvp
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
    U = np.ascontiguousarray(u.values)
    # The wall sources grad_beta(u) . h of each step: one BLAS dot per row,
    # whose summation order the C loop could not repeat. A non-finite one is
    # left to the march's stop, so it must not warn.
    G0 = pchip.grad_wrt_values_many(b0, U[:-1, 0], clamp=True)
    GL = pchip.grad_wrt_values_many(bL, U[:-1, -1], clamp=True)
    src = np.empty((g.nt, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(g.nt):
            src[k] = G0[k] @ h[:n], GL[k] @ h[n:]
    W = np.zeros((g.nt + 1, g.nx))
    interps = [marchlib.interpolant(p) for p in (m.diffusivity, b0, bL)]
    marchlib.tangent_march(W, U, src, g.dt / g.dx**2, 2.0 * g.dt / g.dx, *interps)
    return EnthalpyField(g, W)


def solve_adjoint(u: EnthalpyField, m: MaterialModel, fp: FluxParameter, source,
                  phi: np.ndarray | None = None) -> np.ndarray:
    """Backward adjoint solve along the trajectory `u`; returns the wall
    traces of phi in original time orientation.

    `source` is the injected residual as `observation.adjoint_source`
    returns it: point contributions (start, node, value) in level order,
    those of level s at start[s] <= k < start[s + 1]. The result is the
    (nt+1, 2) array of phi at x = 0 (column 0) and x = L (column 1), with
    its last row 0 exactly. `phi`, when given, is an (nt+1) x nx array that
    receives every level of phi as well.
    """
    g = u.grid
    start, node, value = map(np.asarray, source)
    b0, bL = flux_interpolants(fp)
    interps = [marchlib.interpolant(p) for p in (m.diffusivity, b0, bL)]
    traces = np.empty((g.nt + 1, 2))
    try:
        marchlib.adjoint_march(
            np.ascontiguousarray(u.values), start, node, value, g.dt / g.dx**2,
            2.0 * g.dt / g.dx, g.dt, *interps, traces, phi,
        )
    except ValueError as exc:
        raise ValidationError(
            f"source or phi does not fit the {g.nt + 1} x {g.nx} grid: {exc}"
        ) from None
    return traces


def assemble_gradient(traces: np.ndarray, u: EnthalpyField, fp: FluxParameter) -> np.ndarray:
    """Time integral of the weighted adjoint boundary traces, as
    `solve_adjoint` returns them.

    Left-rectangle weights (dt per step, nothing at t = T where phi vanishes)
    make this the exact transpose of the lagged-flux state march: each step's
    boundary term enters through the earlier time level, so pairing the trace
    at level n with the multiplier of the n -> n+1 equation reproduces the
    discrete objective's gradient to rounding, not just to quadrature order.

    The sum runs compiled (`marchlib`), one pass per wall over the levels:
    each level adds the at most four nonzero entries of its
    `pchip.grad_wrt_values_many` row, formed with that function's
    operations and times the weighted trace, to an accumulator that starts
    at +0.0, in level order. That is how numpy's axis-0 sum adds the dense
    rows, and the dense rows' other entries are zeros (NaN only on a NaN
    wall value or a non-finite trace, and then added too), which leave such
    a sum as it is; so the result has the dense reduction's bits.
    """
    g = u.grid
    traces = np.ascontiguousarray(traces, dtype=float)
    if traces.shape != (g.nt + 1, 2):
        raise ValidationError(f"traces must have shape {(g.nt + 1, 2)}")
    b0, bL = flux_interpolants(fp)
    return marchlib.assemble_gradient(
        np.ascontiguousarray(u.values), traces, g.dt, *map(marchlib.interpolant, (b0, bL))
    )


def compute_gradient(
    fp: FluxParameter, data: Measurement, m: MaterialModel,
    field: EnthalpyField, residual: np.ndarray,
) -> np.ndarray:
    """Gradient of the misfit at `fp` from its state `field` and sensor
    `residual`, as `objective` returns them: residual injection, adjoint
    solve along the field, and assembly. The objective value stays with the
    caller."""
    traces = solve_adjoint(field, m, fp, adjoint_source(residual, data.spec, field.grid))
    return assemble_gradient(traces, field, fp)
