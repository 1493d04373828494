"""March kernels against the plain per-step code they replace, bit for bit.

All three marches evaluate through buffered `pchip.march_evaluator`s held
for the whole march (the forward march its diffusivity values; the tangent
and adjoint marches the diffusivity, its slope and the flux slopes of a
block of levels at a time, `adjoint.solve_sensitivity` and
`adjoint.solve_adjoint`), and fill their bands in one pass from the sums of
neighbouring diffusivities (`forward._diffusion_bands`), one contiguous row
per step. The adjoint reads transport and Robin factors hoisted over each
block and forms its wall values in Python floats. Every march solves each
step in place in its output and raises through one check,
`forward._check_levels`: the linearized marches once per block and on a
singular step, the forward march when a wall value is not finite, on a
singular step and after its last step.
The adjoint keeps only its wall traces; the tests rebuild every level of
phi from the blocks its march hands out (`adjoint._adjoint_blocks`), and
feed it a source on every level or, as the sensors do, on some levels only.
The plain marches below keep the straightforward per-step form: `pchip.eval`
for every coefficient (on the whole trajectory in one call; the tests of
`pchip` hold the evaluator to plain numpy code), each band written from
`amid` inside the step, every product formed inside the step, and every
solved level checked at its step (`plain_step`).
Both must give the same bytes on every case, including a steep box-corner
iterate whose boundary stability number c*beta' exceeds 2 and a profile
whose nodes sit on the diffusivity's knots and below its range, and must
stop with `DivergenceError` at the same step when a level goes non-finite,
also with blocks short enough that the 120-step grid ends in a remainder
block and the first non-finite level sits on a block edge. An adjoint or
tangent step whose matrix is exactly singular raises at its step, or at an
earlier non-finite level of its block.
The buffered marches must also leave their inputs alone and hand out a new
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

from heatflux import adjoint, forward, material, pchip
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


def dense_pair(source):
    """A dense (nt+1) x nx source as the (levels, rows) pair the adjoint takes."""
    return np.arange(len(source)), source


def sparse_pair(source):
    """Every third row of `source`, none of the last five: the pair, and the
    dense source it stands for, zero on the other levels."""
    levels = np.arange(1, len(source) - 5, 3)
    dense = np.zeros_like(source)
    dense[levels] = source[levels]
    return (levels, source[levels]), dense


def adjoint_levels(u, m, fp, source):
    """Every level of phi, rebuilt from the blocks the adjoint march hands
    out, after checking that `solve_adjoint` returns their wall columns."""
    phi = np.zeros_like(u.values)
    for lo, hi, block in adjoint._adjoint_blocks(u, m, fp, source):
        phi[lo:hi] = block
    traces = adjoint.solve_adjoint(u, m, fp, source)
    assert traces.tobytes() == phi[:, [0, -1]].tobytes()
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
        rhs = wn - adjoint._transport_apply(ap[k], du[k + 1], wn, r)
        rhs[0] -= c * (b0p[k] * wn[0] + float(G0[k] @ h[:n]))
        rhs[-1] -= c * (bLp[k] * wn[-1] + float(GL[k] @ h[n:]))
        W[k + 1] = plain_step(ab, rhs, k + 1)
    return W


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


@pytest.mark.parametrize("name", ["exact", "random", "steep"])
def test_adjoint_gradient_is_dual_to_tangent_march(marches, name):
    # <grad, h> = sum(W_h * S) dx dt for a dense source S: the adjoint march
    # and assembly are the exact transpose of the tangent march, also at the
    # box corner where c*beta' > 2.
    m, fp, field, _, source = marches[name]
    traces = adjoint.solve_adjoint(field, m, fp, dense_pair(source))
    grad = adjoint.assemble_gradient(traces, field, fp)
    rng = np.random.default_rng(21)
    for _ in range(5):
        h = rng.standard_normal(2 * fp.n)
        W = adjoint.solve_sensitivity(field, m, fp, h).values
        pairing = float(np.sum(W * source)) * GRID.dx * GRID.dt
        assert float(grad @ h) == pytest.approx(pairing, rel=1e-12)


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


def short_blocks(monkeypatch, levels):
    """Make the linearized marches walk GRID in blocks of `levels` steps."""
    monkeypatch.setattr(adjoint, "_BLOCK_NODES", levels * GRID.nx)
    blocks = adjoint._step_blocks(GRID)
    assert blocks[0] == (0, levels) and blocks[-1][1] == GRID.nt
    return blocks


@pytest.mark.parametrize("name", CASES)
def test_marches_match_plain_code_in_seven_level_blocks(marches, name, monkeypatch):
    # 120 steps in blocks of 7 leave a one-step remainder block.
    assert short_blocks(monkeypatch, 7)[-1] == (119, 120)
    m, fp, field, plain, source = marches[name]
    got = forward.solve_ibvp(m, fp, field.values[0], GRID)
    assert got.values.tobytes() == plain.tobytes()
    got = adjoint_levels(field, m, fp, dense_pair(source))
    assert got.tobytes() == plain_solve_adjoint(field, m, fp, source, GRID).tobytes()
    pair, dense = sparse_pair(source)
    got = adjoint_levels(field, m, fp, pair)
    assert got.tobytes() == plain_solve_adjoint(field, m, fp, dense, GRID).tobytes()
    h = np.random.default_rng(9).standard_normal(2 * fp.n)
    got = adjoint.solve_sensitivity(field, m, fp, h)
    assert got.values.tobytes() == plain_solve_sensitivity(field, m, fp, h, GRID).tobytes()


@pytest.mark.parametrize("name", ["exact", "random", "steep"])
def test_duality_holds_in_seven_level_blocks(marches, name, monkeypatch):
    short_blocks(monkeypatch, 7)
    test_adjoint_gradient_is_dual_to_tangent_march(marches, name)


@pytest.mark.parametrize(
    "levels, s",
    [
        (7, 119),  # the one step of the remainder block, the first the march takes
        (7, 118),  # the first step the march takes in a full block
        (7, 112),  # the last step the march takes in a full block
        (9, 118),  # inside the three-step remainder block
    ],
)
def test_adjoint_divergence_step_at_block_edges(marches, monkeypatch, levels, s):
    # An inf in source row s + 1 makes level s the first non-finite one:
    # the adjoint raises at its step, nt - s, as the plain per-step code does.
    m, fp, field, _, source = marches["exact"]
    short_blocks(monkeypatch, levels)
    source = source.copy()
    source[s + 1, 3] = np.inf
    with pytest.raises(DivergenceError) as got:
        adjoint.solve_adjoint(field, m, fp, dense_pair(source))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as want:
            plain_solve_adjoint(field, m, fp, source, GRID)
    assert got.value.step == want.value.step == GRID.nt - s


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


def test_forward_scan_back_finds_an_interior_first_level():
    # Level 5 goes non-finite at an interior node only, so its walls raise
    # no alarm; the whole of level 6 follows. The check the alarm at level 6
    # makes, and the one after the last step, must find level 5; finite
    # levels must pass.
    U = np.ones((9, 7))
    U[5, 3] = np.nan
    U[6:] = np.inf
    forward._check_levels(U[1:5], 1)
    for k in (5, 6, 8):
        with pytest.raises(DivergenceError) as got:
            forward._check_levels(U[1 : k + 1], 1)
        assert got.value.step == 5


@pytest.mark.parametrize(
    "source_level, row, step, message",
    [
        # Every level solved before it is finite: the step itself raises.
        (8, [1.0, 2.0, 3.0], 4, "singular step matrix"),
        # Level 5 is non-finite, solved one step earlier in the same block:
        # the march reports that step, as a per-step check would have.
        (6, [np.inf, 0.0, 0.0], 3, "non-finite"),
    ],
)
def test_adjoint_singular_step_raises_at_its_step(
    singular_level_case, source_level, row, step, message
):
    g, m, u, fp = singular_level_case
    source = (np.array([source_level]), np.array([row]))
    with pytest.raises(DivergenceError, match=message) as got:
        adjoint.solve_adjoint(u, m, fp, source)
    assert got.value.step == step


@pytest.mark.parametrize(
    "hot_level, step, message",
    [
        # Every level solved before it is finite: the step from level 4 raises.
        (None, 5, "singular step matrix"),
        # Level 3 is non-finite, solved two steps earlier in the same block:
        # the march reports that step, as the per-step check does.
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
    "levels, s",
    [
        (7, 120),  # the one step of the remainder block
        (7, 113),  # the first step of a full block
        (7, 119),  # the last step of a full block
        (9, 119),  # inside the three-step remainder block
    ],
)
def test_tangent_divergence_step_at_block_edges(marches, monkeypatch, levels, s):
    # An inf on the x = 0 wall of trajectory level s makes the state
    # increment of the step that ends there non-finite, so level s of W is
    # the first non-finite one: the tangent march raises at its step, s, as
    # the plain per-step code does.
    m, fp, field, _, _ = marches["exact"]
    short_blocks(monkeypatch, levels)
    U = field.values.copy()
    U[s, 0] = np.inf
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
    # The adjoint march applies the plain transpose bit for bit (the tests
    # above), so this pins it to the tangent march's transport term.
    rng = np.random.default_rng(3)
    nx, r = 17, 40.0
    ap = rng.uniform(-1.0, 1.0, (2, nx))
    du = rng.uniform(-1.0, 1.0, (2, nx - 1))
    w, q = rng.standard_normal(nx), rng.standard_normal(nx)
    vol = np.ones(nx)
    vol[[0, -1]] = 0.5
    lhs = q @ (vol * adjoint._transport_apply(ap[0], du[1], w, r))
    rhs = w @ (vol * plain_transport_apply_t(ap[0], du[1], q, r))
    assert lhs == pytest.approx(rhs, rel=1e-12)
