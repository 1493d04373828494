"""Objective, linearized marches and adjoint-state gradient assembly.

The misfit functional is f(beta) = 0.5 * ||observe(S(beta)) - data||_F^2:
`misfit` of the state field S(beta), which `objective` solves with the
diffusivity interpolant `alpha` (`material.build_material`).

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
by the solve both marches and the state march share, LAPACK dgtsv's
elimination without pivoting; then the bands of the state step and the
two flux slopes, just before the step; the increments of the later level
and their products with the step constants follow. So each adjoint step is the transpose of
the tangent step on the same numbers by construction. The tangent march
(`solve_sensitivity`; only tests call it) is one C call per solve: per
step it subtracts the transport correction, takes the linearized wall
fluxes off the wall entries, and solves in the next level of its field.
It forms each wall source, grad_beta(u) . h, inside the loop: the row of
value sensitivities at the wall value, the row the gradient assembly reads
too, times h, summed in column order, so no BLAS kernel decides its bits.
The adjoint march (`solve_adjoint`) is one C call per solve too, backward
over the whole trajectory: per step it sums the point sources of the level
(`observation.adjoint_source`) into a zero row in list order, adds the
weighted row to the carried level, solves, keeps the solved level's two
wall entries and carries it through the transposed transport correction
and the two Robin walls. Its step from level s solves the matrix the state
step from level s eliminated, so along a field that carries the state
march's pivots (`objective` records them) it solves on those at every
step and skips the elimination's chain of divisions, with the same bits;
along a field without pivots, or with pivots recorded with another
diffusivity than the one given, every step eliminates as the state march
did. No level of phi is stored;
the tests read every level through the `phi` window the call fills when
given one. Both stop as the state march does, at a singular step or at
their first non-finite solved level, where `marchlib` raises
`DivergenceError`.
`assemble_gradient` sums the weighted traces over the levels in one
compiled pass per wall, one band of at most four entries per level, with
the bits of the dense value-sensitivity rows (the plain numpy reference in
`tests/pchip_rows.py`) summed by numpy.
Neither linearized boundary term builds an nt x n matrix.

Each function here hands `marchlib` the diffusivity and flux interpolants
it holds, with the field, the direction or the traces made C-contiguous;
`marchlib` refuses with `ValidationError` a direction, a source, a `phi`
or traces that do not fit the grid, so nothing here checks them again.
"""

from __future__ import annotations

import numpy as np

from . import marchlib
from .forward import EnthalpyField, Grid, solve_ibvp
from .observation import Measurement, adjoint_source, observe
from .pchip import FluxParameter, Pchip, flux_interpolants


def misfit(field: EnthalpyField, data: Measurement) -> tuple[float, np.ndarray]:
    """Misfit value of a state field against the readings, and its sensor
    residual matrix."""
    residual = observe(field, data.spec) - data.data
    return 0.5 * float(np.sum(residual**2)), residual


def objective(
    fp: FluxParameter, data: Measurement, alpha: Pchip, u0, g: Grid
) -> tuple[float, np.ndarray, EnthalpyField]:
    """Misfit value plus the residual matrix and state field for reuse; the
    field carries its march's pivots, for the gradient's adjoint solve."""
    field = solve_ibvp(alpha, fp, u0, g, pivots=True)
    return *misfit(field, data), field


def solve_sensitivity(
    u: EnthalpyField, alpha: Pchip, fp: FluxParameter, h
) -> EnthalpyField:
    """Directional derivative of the state with respect to the flux values.

    Solves the linear problem w_t = (alpha'(u) w)_xx with w(0, .) = 0 and
    boundary conditions (alpha'(u) w)_x = beta'(u) w + grad_beta(u) . h at
    x = 0 (mirrored at x = L), along the stored trajectory `u`. Each step is
    the exact derivative of the corresponding state step: implicit diffusion
    with the same interface means, advective coefficient feedback and flux
    linearization frozen at the previous level. Linearity in `h` is exact.
    The field lives on the trajectory's grid. A non-finite entry of `h`,
    in the band of the wall value or not, makes that wall's source
    non-finite, and the march stops at step 1.
    """
    g = u.grid
    W = np.zeros((g.nt + 1, g.nx))
    marchlib.tangent_march(W, np.ascontiguousarray(u.values), np.ascontiguousarray(h, dtype=float),
                           g.dt / g.dx**2, 2.0 * g.dt / g.dx, alpha,
                           *flux_interpolants(fp))
    return EnthalpyField(g, W)


def solve_adjoint(u: EnthalpyField, alpha: Pchip, fp: FluxParameter, source,
                  phi: np.ndarray | None = None) -> np.ndarray:
    """Backward adjoint solve along the trajectory `u`; returns the wall
    traces of phi in original time orientation.

    `source` is the injected residual as `observation.adjoint_source`
    returns it: point contributions (start, node, value) in level order,
    those of level s at start[s] <= k < start[s + 1]. The result is the
    (nt+1, 2) array of phi at x = 0 (column 0) and x = L (column 1), with
    its last row 0 exactly. `phi`, when given, is an (nt+1) x nx array that
    receives every level of phi as well. The march solves on the pivots
    `u` carries when they were recorded with the diffusivity `alpha`
    itself, and eliminates every step otherwise; the result is the same.
    """
    g = u.grid
    start, node, value = map(np.asarray, source)
    traces = np.empty((g.nt + 1, 2))
    piv = u.pivots
    rows = piv.rows if piv is not None and piv.diffusivity is alpha else None
    marchlib.adjoint_march(np.ascontiguousarray(u.values), start, node, value, g.dt / g.dx**2,
                           2.0 * g.dt / g.dx, g.dt, alpha, *flux_interpolants(fp),
                           traces, phi, rows)
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
    each level adds the at most four nonzero entries of its value-sensitivity
    row, formed with the operations of the plain numpy rows
    (`tests/pchip_rows.py`) and times the weighted trace, to an
    accumulator that starts at +0.0, in level order. That is how numpy's
    axis-0 sum adds the dense rows, and the dense rows' other entries are
    zeros (NaN only on a NaN wall value or a non-finite trace, and then
    added too), which leave such a sum as it is; so the result has the
    dense reduction's bits.
    """
    return marchlib.assemble_gradient(np.ascontiguousarray(u.values),
                                      np.ascontiguousarray(traces, dtype=float), u.grid.dt,
                                      *flux_interpolants(fp))


def compute_gradient(
    fp: FluxParameter, data: Measurement, alpha: Pchip,
    field: EnthalpyField, residual: np.ndarray,
) -> np.ndarray:
    """Gradient of the misfit at `fp` from its state `field` and sensor
    `residual`, as `objective` returns them: residual injection, adjoint
    solve along the field, and assembly. The objective value stays with the
    caller."""
    traces = solve_adjoint(field, alpha, fp, adjoint_source(residual, data.spec, field.grid))
    return assemble_gradient(traces, field, fp)
