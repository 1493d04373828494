"""March kernels and the gradient assembly against the plain per-step code
they replace, bit for bit.

Every march runs its step loop compiled (`marchlib`, `_march.c`), and one
C evaluator gives every interpolated value and slope there with the
operations of `pchip.eval` (its knot and outside fix-ups included). Every
march solves with the library's port of LAPACK's dgtsv, whose back
substitution evaluates the diffusivity (with its slope, for the linearized
marches) on the level the next step reads; `tests/test_marchlib.py` holds
the port to scipy's dgtsv. The state march evaluates the two wall fluxes
per step, fills the bands from the sums of neighbouring diffusivities, and
solves. The tangent march (`adjoint.solve_sensitivity`) and the adjoint
march (`adjoint.solve_adjoint`), one C call per solve each, read each
step's frozen coefficients from the trajectory level the step starts from:
the diffusivity and its slope, the same band fill and the flux slopes; then
the transport, wall, Robin and source factors in the order the numpy
products used. The adjoint sums each level's point sources into a zero row
in list order. `adjoint.assemble_gradient` sums the at most four band
entries of each level's `pchip.grad_wrt_values_many` row, compiled, and
must give the bytes of the dense reduction it replaced (`dense_gradient`)
on every case, on walls on flux knots, outside the partition, with knots
no wall reaches and on non-finite input. Every march solves each step in
place and stops by one rule: its back substitution tests every entry it
solves, and the compiled loop stops at a singular step or at its first
non-finite solved level, at an interior node as on a wall, and `marchlib`
raises `DivergenceError` at that step.
The adjoint keeps only its wall traces; the tests read every level of phi
through the window `solve_adjoint` fills when given one, and feed it a
source on every level or, as the sensors do, on some levels only: every
third level, or every other block of seven levels.
The plain marches below keep the straightforward per-step form: `pchip.eval`
for every coefficient (on the whole trajectory in one call; the tests of
`pchip` hold the evaluator to plain numpy code), each band written from
`amid` inside the step, every product formed inside the step (the tangent's
transport term by `plain_transport_apply`, the numpy function the compiled
tangent step replaced), every step solved by scipy's LAPACK dgtsv, the
reference the compiled port must match, and every solved level checked at
its step (`plain_step`).
Both must give the same bytes on every case, including a steep box-corner
iterate whose boundary stability number c*beta' exceeds 2 and a profile
whose nodes sit on the diffusivity's knots and below its range, walls on
knots of the fluxes, a made-up trajectory whose every level sits on knots
where Horner's slope misses the knot's slope, and a carried adjoint level
with a negative zero where the samples miss the level, and must stop with
`DivergenceError` at the same step when a level goes non-finite, on the
first, an inner and the last step of the march, at the edge of a block of
non-finite inputs, and when a finite level's carry overflows. An adjoint or tangent step whose matrix is exactly
singular raises at its step, or at an earlier non-finite level.
The compiled marches must also leave their inputs alone and hand out a new
field on every call.

On the same cases the co-located pair is checked for duality: the adjoint
gradient of a dense random source, applied to a direction h, equals the
source's pairing with the tangent field W_h to rounding, because each adjoint
step is the volume-weighted transpose of a tangent step.
"""

import gc

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

from heatflux import adjoint, forward, material, observation, pchip
from heatflux.config import ExperimentConfig, exact_flux_parameter, inversion_partition
from heatflux.errors import DivergenceError
from heatflux.forward import Grid

# c = 2 dt/dx = 33, the inversion grid's boundary number (32.7).
GRID = Grid(L=0.05, T=3.3, nx=31, nt=120)
CFG = ExperimentConfig()


def plain_bands(ab, amid, r):
    ab[0, 1] = -2.0 * r * amid[0]
    ab[0, 2:] = -r * amid[1:]
    ab[1, 0] = 1.0 + 2.0 * r * amid[0]
    ab[1, 1:-1] = 1.0 + r * (amid[:-1] + amid[1:])
    ab[1, -1] = 1.0 + 2.0 * r * amid[-1]
    ab[2, :-2] = -r * amid[:-1]
    ab[2, -2] = -2.0 * r * amid[-1]
    return ab


def plain_step(ab, rhs, step):
    """Solve one step on bands in LAPACK's banded layout (ab[0, j] = A[j-1, j],
    ab[1, j] = A[j, j], ab[2, j] = A[j+1, j]), checked as a per-step march
    checks it."""
    _, _, _, out, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info != 0:
        raise DivergenceError(f"singular step matrix at time step {step}", step=step)
    if not np.isfinite(out).all():
        raise DivergenceError(f"solution became non-finite at time step {step}", step=step)
    return out


def plain_coefficients(u, m, b0, bL):
    du = np.diff(u.values, axis=1)
    alpha, ap = pchip.eval(m.diffusivity, u.values, clamp=True)
    amid = 0.5 * (alpha[:, :-1] + alpha[:, 1:])
    b0p = pchip.eval(b0, u.values[:, 0], clamp=True)[1]
    bLp = pchip.eval(bL, u.values[:, -1], clamp=True)[1]
    return du, ap, amid, b0p, bLp


def plain_solve_ibvp(m, fp, u0, g):
    b0, bL = pchip.flux_interpolants(fp)
    r = g.dt / g.dx**2
    c = 2.0 * g.dt / g.dx
    U = np.empty((g.nt + 1, g.nx))
    U[0] = u0
    ab = np.zeros((3, g.nx))
    for n in range(g.nt):
        un = U[n]
        alpha = pchip.eval(m.diffusivity, un, clamp=True)[0]
        amid = 0.5 * (alpha[:-1] + alpha[1:])
        beta0 = pchip.eval(b0, un[0], clamp=True)[0]
        betaL = pchip.eval(bL, un[-1], clamp=True)[0]
        plain_bands(ab, amid, r)
        rhs = un.copy()
        rhs[0] -= c * beta0
        rhs[-1] -= c * betaL
        U[n + 1] = plain_step(ab, rhs, n + 1)
    return U


def plain_transport_apply_t(ap, du_new, q, r):
    dq = np.diff(q)
    out = np.empty_like(q)
    out[0] = r * du_new[0] * ap[0] * dq[0]
    out[1:-1] = 0.5 * r * ap[1:-1] * (du_new[:-1] * dq[:-1] + du_new[1:] * dq[1:])
    out[-1] = r * du_new[-1] * ap[-1] * dq[-1]
    return out


def plain_transport_apply(
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


def plain_solve_adjoint(u, m, fp, source, g):
    b0, bL = pchip.flux_interpolants(fp)
    r = g.dt / g.dx**2
    c = 2.0 * g.dt / g.dx
    phi = np.zeros((g.nt + 1, g.nx))
    psi = np.zeros(g.nx)
    ab = np.zeros((3, g.nx))
    weighted_src = g.dt * source
    weighted_src[:, 0] *= 2.0
    weighted_src[:, -1] *= 2.0
    du, ap, amid, b0p, bLp = plain_coefficients(u, m, b0, bL)
    for step in range(g.nt):
        s = g.nt - step - 1
        plain_bands(ab, amid[s], r)
        psi = plain_step(ab, psi + weighted_src[s + 1], step + 1)
        phi[s] = psi
        psi = psi - plain_transport_apply_t(ap[s], du[s + 1], psi, r)
        psi[0] -= c * b0p[s] * phi[s, 0]
        psi[-1] -= c * bLp[s] * phi[s, -1]
    return phi


def point_sources(levels, rows, nt):
    """Source rows at `levels` (ascending) as the point contributions the
    adjoint takes: one per node of each row, in node order."""
    levels, rows = np.asarray(levels), np.asarray(rows, dtype=float)
    counts = np.zeros(nt + 1, dtype=np.intp)
    counts[levels] = rows.shape[1]
    start = np.concatenate([[0], np.cumsum(counts)])
    node = np.tile(np.arange(rows.shape[1]), len(levels))
    return observation.PointSources(start, node, rows.ravel())


def dense_pair(source):
    """A dense (nt+1) x nx source as the point contributions the adjoint
    takes."""
    return point_sources(np.arange(len(source)), source, len(source) - 1)


def rows_at(source, levels):
    """The rows of `source` at `levels` (ascending): the point
    contributions, and the dense source they stand for, zero on the other
    levels."""
    dense = np.zeros_like(source)
    dense[levels] = source[levels]
    return point_sources(levels, source[levels], len(source) - 1), dense


def sparse_pair(source):
    """Every third row of `source`, none of the last five."""
    return rows_at(source, np.arange(1, len(source) - 5, 3))


def seven_level_blocks(source):
    """The rows of `source` on every other block of seven levels, counted
    from level 0: on GRID the march starts on the empty two-level remainder
    (levels 119 and 120), then meets runs of seven rows and of seven empty
    levels."""
    levels = np.arange(len(source))
    return rows_at(source, levels[levels // 7 % 2 == 0])


def adjoint_levels(u, m, fp, source):
    """Every level of phi, as the adjoint march writes it when given a
    window onto the levels, after checking that the traces it returns are
    their wall columns."""
    phi = np.full_like(u.values, np.nan)
    traces = adjoint.solve_adjoint(u, m, fp, source, phi)
    assert traces.tobytes() == phi[:, [0, -1]].tobytes()
    assert traces.tobytes() == adjoint.solve_adjoint(u, m, fp, source).tobytes()
    return phi


def plain_solve_sensitivity(u, m, fp, h, g):
    b0, bL = pchip.flux_interpolants(fp)
    n = fp.n
    r = g.dt / g.dx**2
    c = 2.0 * g.dt / g.dx
    W = np.zeros((g.nt + 1, g.nx))
    ab = np.zeros((3, g.nx))
    du, ap, amid, b0p, bLp = plain_coefficients(u, m, b0, bL)
    G0 = pchip.grad_wrt_values_many(b0, u.values[:, 0], clamp=True)
    GL = pchip.grad_wrt_values_many(bL, u.values[:, -1], clamp=True)
    for k in range(g.nt):
        wn = W[k]
        plain_bands(ab, amid[k], r)
        rhs = wn - plain_transport_apply(ap[k], du[k + 1], wn, r)
        rhs[0] -= c * (b0p[k] * wn[0] + float(G0[k] @ h[:n]))
        rhs[-1] -= c * (bLp[k] * wn[-1] + float(GL[k] @ h[n:]))
        W[k + 1] = plain_step(ab, rhs, k + 1)
    return W


def dense_gradient(traces, u, fp, g):
    """The dense reduction `adjoint.assemble_gradient` replaced: every row
    of `pchip.grad_wrt_values_many` at the wall values of every level,
    weighted by dt times the trace (0 at the last level) and summed over the
    levels by numpy."""
    b0, bL = pchip.flux_interpolants(fp)
    w = np.full(g.nt + 1, g.dt)
    w[-1] = 0.0
    G0 = pchip.grad_wrt_values_many(b0, u.values[:, 0], clamp=True)
    GL = pchip.grad_wrt_values_many(bL, u.values[:, -1], clamp=True)
    g0 = -(G0 * (w * traces[:, 0])[:, None]).sum(axis=0)
    gL = -(GL * (w * traces[:, 1])[:, None]).sum(axis=0)
    return np.concatenate([g0, gL])


def left_knot_slope_misses(p, x):
    """Mask of the points of x that sit on the left knot of their interval
    (inside the range) where Horner's slope there, c1 (1/h), misses the
    knot's slope in the last bit."""
    xc, idx, outside = pchip._locate(p, x, True)
    k0, c1, s0 = p._table[0, idx], p._table[2, idx], p._table[7, idx]
    return (xc == k0) & ~outside & (c1 * p._inv_h != s0)


def flux_cases():
    part = inversion_partition(CFG)
    bmax = CFG.beta_max
    exact = exact_flux_parameter(CFG)
    rng = np.random.default_rng(13)
    # A box corner: each flux jumps from 0 to beta_max across one cell of
    # the partition, which the cooling boundary traces cross.
    step0 = np.where(part > 4.6e9, bmax, 0.0)
    stepL = np.where(part > 4.9e9, bmax, 0.0)
    return {
        "exact": exact,
        "random": pchip.FluxParameter(rng.uniform(0.0, bmax, 2 * part.size), part, bmax),
        "steep": pchip.FluxParameter(np.concatenate([step0, stepL]), part, bmax),
    }


def knot_material(m):
    """The diffusivity of `m` resampled on 31 knots from 0 to 5.74e9, a
    spacing at which nine knots round down into the interval on their left:
    a node there takes the evaluators' right-knot branch, and on two of them
    the cubic misses the knot's value in the last bit."""
    knots = np.linspace(0.0, 5.74e9, 31)
    values = pchip.eval(m.diffusivity, knots, clamp=True)[0]
    return material.MaterialModel(diffusivity=pchip.Pchip(knots, values))


def knot_profile(m, nx):
    """Pairs of nodes on the diffusivity's knots, hottest at x = 0, and the
    last node just below the material range (inside the tolerance
    `solve_ibvp` allows), so the evaluators clamp it. A pair's interface
    mean is its diffusivity exactly, so a last-bit change of that value
    reaches the bands."""
    u0 = np.repeat(m.diffusivity.knots[::-1], 2)[:nx]
    u0[-1] = m.diffusivity.knots[0] - 1.0
    return u0


CASES = ["exact", "random", "steep", "knots"]


@pytest.fixture(scope="module")
def marches(builtin_material):
    """name -> (material, flux, field, plain field, adjoint source)."""
    g = GRID
    flat = np.full(g.nx, CFG.u0)
    source = np.random.default_rng(5).standard_normal((g.nt + 1, g.nx))
    cases = {name: (builtin_material, fp, flat) for name, fp in flux_cases().items()}
    knot_m = knot_material(builtin_material)
    cases["knots"] = (knot_m, exact_flux_parameter(CFG), knot_profile(knot_m, g.nx))
    out = {}
    for name, (m, fp, u0) in cases.items():
        field = forward.solve_ibvp(m, fp, u0, g)
        out[name] = (m, fp, field, plain_solve_ibvp(m, fp, u0, g), source)
    return out


@pytest.mark.parametrize("name", CASES)
def test_forward_march_matches_plain_code(marches, name):
    _, _, field, plain, _ = marches[name]
    assert field.values.tobytes() == plain.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_adjoint_march_matches_plain_code(marches, name):
    m, fp, field, _, source = marches[name]
    got = adjoint_levels(field, m, fp, dense_pair(source))
    want = plain_solve_adjoint(field, m, fp, source, GRID)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_adjoint_march_on_a_sparse_source_matches_plain_code(marches, name):
    # The march adds 0.0 at the levels without a row, which must round as
    # the plain code's zero rows do.
    m, fp, field, _, source = marches[name]
    pair, dense = sparse_pair(source)
    got = adjoint_levels(field, m, fp, pair)
    assert got.tobytes() == plain_solve_adjoint(field, m, fp, dense, GRID).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_tangent_march_matches_plain_code(marches, name):
    m, fp, field, _, _ = marches[name]
    h = np.random.default_rng(9).standard_normal(2 * fp.n)
    got = adjoint.solve_sensitivity(field, m, fp, h)
    want = plain_solve_sensitivity(field, m, fp, h, GRID)
    assert got.values.tobytes() == want.tobytes()


def assert_dual(field, m, fp, pair, dense):
    """<grad, h> = sum(W_h * S) dx dt for the source S that `pair` stands
    for, on five random directions h."""
    traces = adjoint.solve_adjoint(field, m, fp, pair)
    grad = adjoint.assemble_gradient(traces, field, fp)
    rng = np.random.default_rng(21)
    for _ in range(5):
        h = rng.standard_normal(2 * fp.n)
        W = adjoint.solve_sensitivity(field, m, fp, h).values
        pairing = float(np.sum(W * dense)) * GRID.dx * GRID.dt
        assert float(grad @ h) == pytest.approx(pairing, rel=1e-12)


@pytest.mark.parametrize("name", ["exact", "random", "steep"])
def test_adjoint_gradient_is_dual_to_tangent_march(marches, name):
    # For a dense source the adjoint march and assembly are the exact
    # transpose of the tangent march, also at the box corner where
    # c*beta' > 2.
    m, fp, field, _, source = marches[name]
    assert_dual(field, m, fp, dense_pair(source), source)


@pytest.mark.parametrize("name", CASES)
def test_marches_match_plain_code_in_seven_level_blocks(marches, name):
    # The march adds runs of seven rows and runs of seven 0.0 rows, its
    # level pointer standing still across each empty run.
    m, fp, field, _, source = marches[name]
    pair, dense = seven_level_blocks(source)
    got = adjoint_levels(field, m, fp, pair)
    assert got.tobytes() == plain_solve_adjoint(field, m, fp, dense, GRID).tobytes()


@pytest.mark.parametrize("name", ["exact", "random", "steep"])
def test_duality_holds_in_seven_level_blocks(marches, name):
    m, fp, field, _, source = marches[name]
    assert_dual(field, m, fp, *seven_level_blocks(source))


def test_steep_case_reaches_the_chattering_regime(marches):
    _, fp, field, _, _ = marches["steep"]
    c = 2.0 * GRID.dt / GRID.dx
    b0, bL = pchip.flux_interpolants(fp)
    worst = max(
        np.abs(pchip.eval(b0, field.values[:, 0], clamp=True)[1]).max(),
        np.abs(pchip.eval(bL, field.values[:, -1], clamp=True)[1]).max(),
    )
    assert c * worst > 2.0


def test_knot_case_takes_the_right_knot_and_clamp_branches(marches):
    # The levels the forward march evaluated its diffusivity on: some node
    # must round down onto the right knot of its interval (the branch that
    # takes the knot's value) and some must lie below the table.
    m, _, field, _, _ = marches["knots"]
    p = m.diffusivity
    levels = field.values[:-1]
    xc, idx, _ = pchip._locate(p, levels, True)
    assert ((xc == p.knots[idx + 1]) & (idx + 1 < p.n - 1)).any()
    assert (levels < p.knots[0]).any()


def test_forward_march_takes_a_flux_knot_value_on_the_knot(builtin_material):
    # The walls start on knots 9 and 12 of their flux, which round down into
    # the interval on their left, where the cubic misses the knot's value
    # in the last bit: the march must take the knot's value there, as
    # `pchip.eval` does. The fluxes are large enough for that bit to reach
    # the next level.
    part = np.linspace(0.0, 5.74e9, 31)
    values = np.random.default_rng(0).uniform(0.0, 1e9, part.size)
    fp = pchip.FluxParameter(np.tile(values, 2), part, 1e9)
    b0 = pchip.flux_interpolants(fp)[0]
    for k in (9, 12):
        x = part[k]
        i = int((x - part[0]) * b0._inv_h)
        k0, c0, c1, c2, c3 = b0._table[:5, i]
        t = (x - k0) * b0._inv_h
        assert i == k - 1 and c0 + t * (c1 + t * (c2 + t * c3)) != values[k]
    u0 = np.full(GRID.nx, part[9])
    u0[-1] = part[12]
    got = forward.solve_ibvp(builtin_material, fp, u0, GRID)
    assert got.values.tobytes() == plain_solve_ibvp(builtin_material, fp, u0, GRID).tobytes()


def test_forward_march_takes_a_negative_zero_flux_value_on_its_knot():
    # Both fluxes are -0.0 on their first knot, where they rise, and the
    # field starts at -0.0: every wall sits on that knot, where Horner gives
    # +0.0, not the knot's value. The march must take -0.0 there, as
    # `pchip.eval` does: c beta then cancels the wall's -0.0 to +0.0, and
    # the signs of the zeros of every level follow from it.
    g = Grid(L=1.0, T=1.0, nx=5, nt=4)
    m = material.MaterialModel(diffusivity=pchip.Pchip([0.0, 1.0, 2.0], [1.0, 2.0, 1.0]))
    fp = pchip.FluxParameter([-0.0, 1.0, 2.0] * 2, np.linspace(0.0, 2.0, 3), 2.0)
    u0 = np.full(g.nx, -0.0)
    got = forward.solve_ibvp(m, fp, u0, g)
    want = plain_solve_ibvp(m, fp, u0, g)
    assert not want.any() and np.signbit(want).any() and not np.signbit(want[1, 0])
    assert got.values.tobytes() == want.tobytes()


def test_forward_divergence_step_matches_plain_code(builtin_material):
    # Both fluxes rise to 1e307 below 5.2e9, where c*beta overflows: the
    # level after the boundary cools that far is non-finite.
    exact = exact_flux_parameter(CFG)
    part = exact.partition
    beta = np.where(np.tile(part, 2) < 5.2e9, 1e307, exact.beta)
    u0 = np.full(GRID.nx, CFG.u0)
    with np.errstate(over="ignore", invalid="ignore"):
        fp = pchip.FluxParameter(beta, part, 1e307)
        with pytest.raises(DivergenceError) as got:
            forward.solve_ibvp(builtin_material, fp, u0, GRID)
        with pytest.raises(DivergenceError) as want:
            plain_solve_ibvp(builtin_material, fp, u0, GRID)
    assert got.value.step == want.value.step > 1


def test_adjoint_divergence_step_matches_plain_code(marches):
    m, fp, field, _, source = marches["exact"]
    source = source.copy()
    source[40, 3] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as got:
            adjoint.solve_adjoint(field, m, fp, dense_pair(source))
        with pytest.raises(DivergenceError) as want:
            plain_solve_adjoint(field, m, fp, source, GRID)
    assert got.value.step == want.value.step == GRID.nt - 39


def test_adjoint_march_adds_zero_on_a_negative_zero_level():
    # Three nodes, steep diffusivity, flat levels and one subnormal source
    # row at the last level: two steps later the carried level psi holds a
    # -0.0 where the samples miss the level. The march must add 0.0 there,
    # as the plain code's zero source row does (-0.0 + 0.0 is +0.0), not
    # pass psi through: the solved level then differs in the sign of a zero.
    g = Grid(L=2.0, T=4.0, nx=3, nt=4)
    m = material.MaterialModel(diffusivity=pchip.Pchip([0.0, 1.0, 2.0], [1.0, 50.0, 1.0]))
    U = np.repeat([[0.5], [2.0], [2.0], [0.0], [1.0]], 3, axis=1)
    u = forward.EnthalpyField(g, U)
    fp = pchip.FluxParameter([0.5, 1.0, 0.5, 0.5, 0.0, 0.5], np.linspace(0.0, 2.0, 3), 1.0)
    source = np.zeros((g.nt + 1, g.nx))
    source[4, 1] = -1e-323
    got = adjoint_levels(u, m, fp, point_sources([4], source[4:], g.nt))
    assert got.tobytes() == plain_solve_adjoint(u, m, fp, source, g).tobytes()


def test_adjoint_march_takes_the_knot_slopes_on_the_knots(builtin_material):
    # The knots case's forward march leaves the knots after level 0, and no
    # adjoint step reads the slopes of level 0. So on every level of this
    # made-up trajectory the nodes sit in turn on a knot where Horner's
    # slope, c1 (1/h), misses the knot's slope in the last bit, and on the
    # top knot: the large increments between the two carry that bit into the
    # transport term. The march must take the knot's slope there, as
    # `pchip.eval` does.
    m = knot_material(builtin_material)
    p = m.diffusivity
    missed = p.knots[left_knot_slope_misses(p, p.knots)]
    assert missed.size >= 5
    profile = np.resize(np.stack([missed, np.full(missed.size, p.knots[-1])], 1), GRID.nx)
    u = forward.EnthalpyField(GRID, np.tile(profile, (GRID.nt + 1, 1)))
    fp = exact_flux_parameter(CFG)
    source = np.random.default_rng(5).standard_normal((GRID.nt + 1, GRID.nx))
    got = adjoint_levels(u, m, fp, dense_pair(source))
    assert got.tobytes() == plain_solve_adjoint(u, m, fp, source, GRID).tobytes()


def test_tangent_march_takes_the_knot_slopes_on_the_knots(builtin_material):
    # The made-up trajectory above, in the tangent march: the knot's slope
    # must reach its transport term, whose large increments carry every bit
    # of it, also on the two wall rows.
    m = knot_material(builtin_material)
    p = m.diffusivity
    missed = p.knots[left_knot_slope_misses(p, p.knots)]
    profile = np.resize(np.stack([missed, np.full(missed.size, p.knots[-1])], 1), GRID.nx)
    u = forward.EnthalpyField(GRID, np.tile(profile, (GRID.nt + 1, 1)))
    fp = exact_flux_parameter(CFG)
    h = np.random.default_rng(9).standard_normal(2 * fp.n)
    got = adjoint.solve_sensitivity(u, m, fp, h)
    assert got.values.tobytes() == plain_solve_sensitivity(u, m, fp, h, GRID).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_assembly_matches_the_dense_reduction(marches, name):
    m, fp, field, _, source = marches[name]
    traces = adjoint.solve_adjoint(field, m, fp, dense_pair(source))
    got = adjoint.assemble_gradient(traces, field, fp)
    assert got.tobytes() == dense_gradient(traces, field, fp, GRID).tobytes()


def wall_case(walls):
    """A made-up trajectory on GRID whose two walls take the values `walls`
    (cycled over the levels; the interior is irrelevant to the assembly),
    and random traces, nonzero at the last level too, whose weight is 0."""
    U = np.zeros((GRID.nt + 1, GRID.nx))
    U[:, 0] = np.resize(walls, GRID.nt + 1)
    U[:, -1] = np.resize(walls[::-1], GRID.nt + 1)
    traces = np.random.default_rng(31).standard_normal((GRID.nt + 1, 2))
    return forward.EnthalpyField(GRID, U), traces


def test_assembly_matches_the_dense_reduction_on_flux_knots():
    # Walls on every knot of a 31-knot partition on which nine knots round
    # into the interval on their left (t = 1 there), while the others sit
    # at t = 0 of their own interval, where a dense row holds -0.0 off the
    # band.
    part = np.linspace(0.0, 5.74e9, 31)
    values = np.random.default_rng(0).uniform(0.0, 1e9, 2 * part.size)
    fp = pchip.FluxParameter(values, part, 1e9)
    _, idx, _ = pchip._locate(pchip.flux_interpolants(fp)[0], part, True)
    inner = np.arange(1, part.size - 1)
    assert (idx[inner] == inner).any() and (idx[inner] == inner - 1).any()
    u, traces = wall_case(part)
    got = adjoint.assemble_gradient(traces, u, fp)
    assert got.tobytes() == dense_gradient(traces, u, fp, GRID).tobytes()


def test_assembly_matches_the_dense_reduction_outside_the_partition():
    # Wall values below 0 and above u_max, by more and by less than the
    # clamping tolerance: all clamp onto an end knot.
    fp = exact_flux_parameter(CFG)
    top = fp.partition[-1]
    walls = np.array([-1e9, -1e-3, -1e-9, top + 1e-3, top + 1e9, 0.5 * top])
    u, traces = wall_case(walls)
    got = adjoint.assemble_gradient(traces, u, fp)
    assert got.tobytes() == dense_gradient(traces, u, fp, GRID).tobytes()


def test_assembly_matches_the_dense_reduction_with_zero_entries():
    # The walls stay inside two intervals of the partition, so most knots
    # get no weight: their entries are zeros, with the dense sum's sign.
    fp = exact_flux_parameter(CFG)
    part = fp.partition
    walls = np.linspace(part[10], part[12], 7)[1:-1]
    u, traces = wall_case(walls)
    got = adjoint.assemble_gradient(traces, u, fp)
    want = dense_gradient(traces, u, fp, GRID)
    assert (want == 0.0).sum() >= fp.n and got.tobytes() == want.tobytes()


def test_assembly_matches_the_dense_reduction_on_non_finite_input():
    # A NaN wall value and an infinite trace make the dense row entries of
    # their level NaN off the band, where the assembly adds no band entry.
    fp = exact_flux_parameter(CFG)
    u, traces = wall_case(fp.partition)
    u.values[5, 0] = np.nan
    traces[9, 1] = np.inf
    got = adjoint.assemble_gradient(traces, u, fp)
    with np.errstate(invalid="ignore"):
        want = dense_gradient(traces, u, fp, GRID)
    assert np.isnan(want).sum() >= 2 * fp.n - 4 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "levels, s",
    [
        (7, 119),  # the first step the march takes
        (7, 118),  # the second step
        (7, 112),
        (9, 118),
        (7, 0),  # the last step the march takes: no later step spreads the level
    ],
)
def test_adjoint_divergence_step_at_block_edges(marches, levels, s):
    # An inf in source rows s + 2 - levels .. s + 1 (those that exist): the
    # march meets the block at its top edge, row s + 1, which makes level s
    # the first non-finite one, and raises at its step, nt - s, as the
    # plain per-step code does.
    m, fp, field, _, source = marches["exact"]
    source = source.copy()
    source[max(s + 2 - levels, 0) : s + 2, 3] = np.inf
    with pytest.raises(DivergenceError, match="non-finite") as got:
        adjoint.solve_adjoint(field, m, fp, dense_pair(source))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as want:
            plain_solve_adjoint(field, m, fp, source, GRID)
    assert got.value.step == want.value.step == GRID.nt - s


def test_adjoint_divergence_from_an_overflowing_carry(marches):
    # A finite source row at level 61, 1e302 on the wall: level 60 is solved
    # finite (to about 5e300), but the transport products of its carry
    # overflow, so level 59 is the first non-finite one, a step after the
    # row's own.
    m, fp, field, _, source = marches["exact"]
    source = source.copy()
    source[61, 0] = 1e302
    phi = np.zeros_like(field.values)
    with pytest.raises(DivergenceError, match="non-finite") as got:
        adjoint.solve_adjoint(field, m, fp, dense_pair(source), phi)
    assert np.isfinite(phi[60]).all() and not np.isfinite(phi[59]).all()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as want:
            plain_solve_adjoint(field, m, fp, source, GRID)
    assert got.value.step == want.value.step == GRID.nt - 59


def test_forward_divergence_at_the_last_step_matches_plain_code(builtin_material):
    # The fluxes of the divergence case above on a grid that ends with the
    # first non-finite level: no later step reads its walls, so only the
    # check after the march finds it. (The march overflows on its way there,
    # hence the errstate.)
    exact = exact_flux_parameter(CFG)
    part = exact.partition
    beta = np.where(np.tile(part, 2) < 5.2e9, 1e307, exact.beta)
    u0 = np.full(GRID.nx, CFG.u0)
    with np.errstate(over="ignore", invalid="ignore"):
        fp = pchip.FluxParameter(beta, part, 1e307)
        with pytest.raises(DivergenceError) as full:
            plain_solve_ibvp(builtin_material, fp, u0, GRID)
        last = full.value.step
        g = Grid(L=GRID.L, T=GRID.dt * last, nx=GRID.nx, nt=last)
        with pytest.raises(DivergenceError) as got:
            forward.solve_ibvp(builtin_material, fp, u0, g)
        with pytest.raises(DivergenceError) as want:
            plain_solve_ibvp(builtin_material, fp, u0, g)
    assert got.value.step == want.value.step == g.nt


@pytest.mark.parametrize(
    "source_level, row, step, message",
    [
        # Every level solved before it is finite: the step itself raises.
        (8, [1.0, 2.0, 3.0], 4, "singular step matrix"),
        # Level 5 is non-finite, solved one step earlier: the march stops
        # there and reports that step, as a per-step check would have.
        (6, [np.inf, 0.0, 0.0], 3, "non-finite"),
    ],
)
def test_adjoint_singular_step_raises_at_its_step(
    singular_level_case, source_level, row, step, message
):
    g, m, u, fp = singular_level_case
    source = point_sources([source_level], [row], g.nt)
    with pytest.raises(DivergenceError, match=message) as got:
        adjoint.solve_adjoint(u, m, fp, source)
    assert got.value.step == step


@pytest.mark.parametrize(
    "hot_level, step, message",
    [
        # Every level solved before it is finite: the step from level 4 raises.
        (None, 5, "singular step matrix"),
        # Level 3 is non-finite, solved two steps earlier: the march reports
        # that step, as the per-step check does.
        (2, 3, "non-finite"),
    ],
)
def test_tangent_singular_step_raises_at_its_step(singular_level_case, hot_level, step, message):
    # The direction weighs only the last knot of the flux at x = 0, with a
    # weight whose boundary source c*h overflows. A wall on that knot (the
    # hot level) gives a non-finite next level; at 0 the weight drops out.
    g, m, u, fp = singular_level_case
    if hot_level is not None:
        u.values[hot_level] = 2.0
    h = np.zeros(2 * fp.n)
    h[fp.n - 1] = 1e308
    with pytest.raises(DivergenceError, match=message) as got:
        adjoint.solve_sensitivity(u, m, fp, h)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match=message) as want:
            plain_solve_sensitivity(u, m, fp, h, g)
    assert got.value.step == want.value.step == step


@pytest.mark.parametrize(
    "levels, s, node",
    [
        (7, 120, 0),  # the last step the march takes
        (7, 119, 0),
        (7, 113, 0),
        (9, 119, 0),
        (7, 120, 15),  # an interior node: no wall value of U is non-finite
        (7, 113, 15),
    ],
    ids=["7-120", "7-119", "7-113", "9-119", "7-120-interior", "7-113-interior"],
)
def test_tangent_divergence_step_at_block_edges(marches, levels, s, node):
    # An inf at `node` (the x = 0 wall or an interior node) of trajectory
    # levels s .. s + levels - 1 (those that exist): the march meets the
    # block at its lower edge, level s, which makes the state increment of
    # the step that ends there non-finite, so level s of W is the first
    # non-finite one: the tangent march raises at its step, s, as the plain
    # per-step code does.
    m, fp, field, _, _ = marches["exact"]
    U = field.values.copy()
    U[s : s + levels, node] = np.inf
    u = forward.EnthalpyField(GRID, U)
    h = np.random.default_rng(9).standard_normal(2 * fp.n)
    with pytest.raises(DivergenceError, match="non-finite") as got:
        adjoint.solve_sensitivity(u, m, fp, h)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as want:
            plain_solve_sensitivity(u, m, fp, h, GRID)
    assert got.value.step == want.value.step == s


def test_marches_leave_no_reference_cycles(marches):
    # Buffers held in a reference cycle outlive their march until a full
    # garbage collection; over an inversion they pile up in the process's
    # peak memory.
    m, fp, field, _, source = marches["exact"]
    gc.collect()
    gc.disable()
    try:
        forward.solve_ibvp(m, fp, field.values[0], GRID)
        adjoint.solve_adjoint(field, m, fp, dense_pair(source))
        adjoint.solve_sensitivity(field, m, fp, np.ones(2 * fp.n))
        pchip.eval(m.diffusivity, field.values, clamp=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_adjoint_march_leaves_its_inputs_alone(marches):
    m, fp, field, _, source = marches["steep"]
    before = (source.tobytes(), field.values.tobytes())
    adjoint.solve_adjoint(field, m, fp, dense_pair(source))
    assert (source.tobytes(), field.values.tobytes()) == before


def test_forward_marches_return_independent_fields(marches):
    # The march solves into its own output: a second call must not write
    # into the field the first one returned.
    m, fp, _, plain, _ = marches["exact"]
    steep_fp = marches["steep"][1]
    first = forward.solve_ibvp(m, fp, np.full(GRID.nx, CFG.u0), GRID)
    second = forward.solve_ibvp(m, steep_fp, np.full(GRID.nx, CFG.u0), GRID)
    assert not np.shares_memory(first.values, second.values)
    assert first.values.tobytes() == plain.tobytes()
    assert second.values.tobytes() != plain.tobytes()


def test_transport_pair_is_a_volume_weighted_transpose():
    # The compiled marches apply the plain term and the plain transpose bit
    # for bit (the tests above), so this pins the two to each other.
    rng = np.random.default_rng(3)
    nx, r = 17, 40.0
    ap = rng.uniform(-1.0, 1.0, (2, nx))
    du = rng.uniform(-1.0, 1.0, (2, nx - 1))
    w, q = rng.standard_normal(nx), rng.standard_normal(nx)
    vol = np.ones(nx)
    vol[[0, -1]] = 0.5
    lhs = q @ (vol * plain_transport_apply(ap[0], du[1], w, r))
    rhs = w @ (vol * plain_transport_apply_t(ap[0], du[1], q, r))
    assert lhs == pytest.approx(rhs, rel=1e-12)
