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
step's transport correction transposes `_transport_apply`, and the Robin
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

The marches are kept lean without changing a bit of their output. Both
linearized marches take their grid from the trajectory they linearize about
and walk it in blocks of consecutive steps (`_step_blocks`), as many levels
as fill `_BLOCK_NODES` nodes (180 at 91 nodes): the tangent march forward
in time, the adjoint march backward. The adjoint runs each block compiled
(`marchlib`, `_march.c`): just before each step it computes that step's
frozen coefficients from the two trajectory levels of the state step (the
diffusivity and its slope as `pchip.march_evaluator` gives them, the bands
as `forward._diffusion_bands` fills them, the flux slopes, the increments
of the later level, and their products with the step constants), adds the
level's weighted source row, or 0.0 where the samples miss the level, to
the carried level in the row of the block it solves for, solves it there
with scipy's LAPACK dgtsv, and carries the solved level through the
transposed transport correction and the two Robin walls, all with the
numpy code's operations in their order. The tangent march (numpy; only
tests call it) computes a block's coefficients at once with the function
`_step_coefficients` returns, the same numbers, into buffers made once per
march, then forms each right-hand side in the next level of its field and
solves it there with dgtsv. Both check as the state march does, through
`forward._check_levels`: on a singular step, and once per block for the
finiteness of the block's solved levels, which raises at the step a
per-step check would. The adjoint march itself is `_adjoint_blocks`, which
hands out each block of solved levels once it is checked; `solve_adjoint`
keeps their wall traces, and the tests every level. `assemble_gradient`
sums the weighted traces over the levels in one compiled pass per wall,
one band of at most four entries per level, with the bits of the dense
rows of `pchip.grad_wrt_values_many` summed by numpy; no (nt+1) x n
matrix is built.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import marchlib, pchip
from .errors import ValidationError
from .forward import EnthalpyField, Grid, _check_levels, _diffusion_bands, solve_ibvp
from .material import MaterialModel
from .observation import Measurement, adjoint_source, observe
from .pchip import FluxParameter, flux_interpolants

# Nodes per block of the linearized marches: a block has as many levels as
# fill this many nodes (180 at 91 nodes), so that its coefficient buffers
# stay small and cache-resident.
_BLOCK_NODES = 16384


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
    the new-level state increments `du_new`, and w. The adjoint step applies
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


def _step_blocks(g: Grid) -> list[tuple[int, int]]:
    """The steps of a march on `g` in blocks (lo, hi) of consecutive steps.

    A block has as many levels as fit in `_BLOCK_NODES` nodes, at least
    one; the last block takes the rest.
    """
    levels = max(1, _BLOCK_NODES // g.nx)
    return [(lo, min(lo + levels, g.nt)) for lo in range(0, g.nt, levels)]


def _step_coefficients(
    u: EnthalpyField, m: MaterialModel, b0: pchip.Pchip, bL: pchip.Pchip, size: int
):
    """The frozen coefficients of the linearized steps along `u`, a block of
    at most `size` consecutive steps at a time.

    Returns a function `coefficients(lo, hi)` for a block of steps lo, ...,
    hi - 1. It fills buffers made here once, one contiguous row per step,
    and returns views of them, valid until its next call: (du, ap, off,
    diag, b0p, bLp), row i for the step from level lo + i. They are the
    state increments between neighbouring nodes at its new level, and at its
    old level d(alpha')/du at the nodes, the off-diagonals and diagonal of
    its implicit operator (`_diffusion_bands` layout; the solve overwrites
    them, so each is used once) and the two boundary flux slopes. The
    diffusivity and its slope come from one `pchip.march_evaluator` call
    per block. The tangent march (`solve_sensitivity`) reads them from here;
    the adjoint march computes the same numbers per step in its compiled
    loop, so one is the transpose of the other on the same numbers. Every
    evaluation is elementwise per level, so each level gets the values a
    per-step evaluation would give, whatever the block.
    """
    g = u.grid
    U, nx = u.values, g.nx
    alpha, ap = np.empty((size, nx)), np.empty((size, nx))
    S, du = np.empty((size, nx + 1)), np.empty((size, nx - 1))
    off, diag = np.empty((size, 2, nx - 1)), np.empty((size, nx))
    b0p, bLp, flux = np.empty(size), np.empty(size), np.empty(size)
    r = g.dt / g.dx**2
    diffusivity = pchip.march_evaluator(m.diffusivity, size * nx)
    flux0, fluxL = pchip.march_evaluator(b0, size), pchip.march_evaluator(bL, size)

    def coefficients(lo: int, hi: int):
        k = hi - lo
        diffusivity(U[lo:hi].reshape(-1), alpha[:k].reshape(-1), ap[:k].reshape(-1))
        Sk = S[:k]
        np.add(alpha[:k, :-1], alpha[:k, 1:], out=Sk[:, 1:-1])
        Sk[:, 0], Sk[:, -1] = Sk[:, 1], Sk[:, -2]
        _diffusion_bands(Sk, off[:k], diag[:k], r)()
        np.subtract(U[lo + 1 : hi + 1, 1:], U[lo + 1 : hi + 1, :-1], out=du[:k])
        flux0(U[lo:hi, 0], flux[:k], b0p[:k])
        fluxL(U[lo:hi, -1], flux[:k], bLp[:k])
        return du[:k], ap[:k], off[:k], diag[:k], b0p[:k], bLp[:k]

    return coefficients


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
    G0 = pchip.grad_wrt_values_many(b0, u.values[:, 0], clamp=True)
    GL = pchip.grad_wrt_values_many(bL, u.values[:, -1], clamp=True)
    blocks = _step_blocks(g)
    coefficients = _step_coefficients(u, m, b0, bL, blocks[0][1])
    for lo, hi in blocks:
        du, ap, off, diag, b0p, bLp = coefficients(lo, hi)
        # The block's levels are checked once, after its last step; until
        # then the arithmetic on a non-finite level must not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, k in enumerate(range(lo, hi)):
                wn, rhs = W[k], W[k + 1]
                src0 = float(G0[k] @ h0)
                srcL = float(GL[k] @ hL)

                np.subtract(wn, _transport_apply(ap[i], du[i], wn, r), out=rhs)
                rhs[0] -= c * (b0p[i] * wn[0] + src0)
                rhs[-1] -= c * (bLp[i] * wn[-1] + srcL)
                if dgtsv(off[i, 1], diag[i], off[i, 0], rhs, 1, 1, 1, 1)[-1] != 0:
                    _check_levels(W[lo + 1 : k + 1], lo + 1, singular=k + 1)
            _check_levels(W[lo + 1 : hi + 1], lo + 1)
    return EnthalpyField(g, W)


def _adjoint_blocks(u: EnthalpyField, m: MaterialModel, fp: FluxParameter, source):
    """The adjoint march along `u`, one block of steps at a time.

    Yields (lo, hi, block) for the blocks of `_step_blocks` from the last to
    the first, once `_check_levels` has passed them: `block` holds the solved
    levels lo, ..., hi - 1 of phi. `source` is as `solve_adjoint` takes it.
    """
    g = u.grid
    levels, rows = map(np.asarray, source)
    if (levels.ndim != 1 or levels.dtype.kind not in "iu" or rows.shape != (levels.size, g.nx)
            or ((levels < 0) | (levels > g.nt)).any() or (np.diff(levels) <= 0).any()):
        raise ValidationError(f"source needs ascending levels in [0, {g.nt}], a {g.nx}-row each")
    b0, bL = flux_interpolants(fp)
    r = g.dt / g.dx**2
    c = 2.0 * g.dt / g.dx
    interps = [marchlib.interpolant(p) for p in (m.diffusivity, b0, bL)]
    U = np.ascontiguousarray(u.values)
    rows = np.ascontiguousarray(rows, dtype=float)
    # The source row of each level; -1 where the samples miss the level,
    # whose step adds 0.0.
    row_of = np.full(g.nt + 1, -1, dtype=marchlib.INDEX)
    row_of[levels] = np.arange(levels.size)
    # The carried level psi.
    psi = np.zeros(g.nx)
    for lo, hi in reversed(_step_blocks(g)):
        block = np.empty((hi - lo, g.nx))
        # The step that solves level s is step nt - s, so `block[::-1]`
        # holds the block's levels in march order from step `first` on. The
        # implicit operator is self-adjoint under the half-cell volume
        # weights, so the adjoint march solves with the state step's bands.
        # Each step carries the solved level q to the next (earlier) one:
        # the transposed transport correction and the Robin terms alpha'
        # phi_x = beta' phi act on q, mirroring the frozen-coefficient
        # treatment of the state march.
        first = g.nt - hi + 1
        singular = marchlib.adjoint_block(
            psi, block, U[lo : hi + 1], r, c, g.dt, *interps, rows, row_of[lo + 1 : hi + 1]
        )
        if singular is not None:
            _check_levels(block[:singular:-1], first, singular=g.nt - lo - singular)
        _check_levels(block[::-1], first)
        yield lo, hi, block


def solve_adjoint(u: EnthalpyField, m: MaterialModel, fp: FluxParameter, source) -> np.ndarray:
    """Backward adjoint solve along the trajectory `u`; returns the wall
    traces of phi in original time orientation.

    `source` is the injected residual as `observation.adjoint_source`
    returns it: a pair (levels, rows) of ascending time levels and their
    (len(levels), nx) source rows, zero at every other level; a dense
    (nt+1) x nx source S is the pair (arange(nt + 1), S). The result is the
    (nt+1, 2) array of phi at x = 0 (column 0) and x = L (column 1), with
    its last row 0 exactly.
    """
    traces = np.zeros((u.grid.nt + 1, 2))
    for lo, hi, block in _adjoint_blocks(u, m, fp, source):
        traces[lo:hi] = block[:, [0, -1]]
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
