"""March kernels against the plain per-step code they replace, bit for bit.

The forward march evaluates the diffusivity through `pchip.march_evaluator`;
all three marches share one lean band fill, which the tangent and adjoint
marches apply to every level of the trajectory at once; the adjoint reads
transport and Robin factors hoisted over the whole trajectory. The plain
marches below keep the straightforward per-step form: `pchip.eval` for every
coefficient (on the whole trajectory in one call), each band written from
`amid` inside the step, every product formed inside the step.
Both must give the same bytes on every case, including a steep box-corner
iterate whose boundary stability number c*beta' exceeds 2.
"""

import numpy as np
import pytest

from heatflux import adjoint, forward, pchip
from heatflux.config import ExperimentConfig, exact_flux_parameter, inversion_partition
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
        U[n + 1] = forward._step_tridiagonal(ab, rhs, n + 1)
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
        psi = forward._step_tridiagonal(ab, psi + weighted_src[s + 1], step + 1)
        phi[s] = psi
        psi = psi - plain_transport_apply_t(ap[s], du[s + 1], psi, r)
        psi[0] -= c * b0p[s] * phi[s, 0]
        psi[-1] -= c * bLp[s] * phi[s, -1]
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
        rhs = wn - forward._transport_apply(ap[k], du[k + 1], wn, r)
        rhs[0] -= c * (b0p[k] * wn[0] + float(G0[k] @ h[:n]))
        rhs[-1] -= c * (bLp[k] * wn[-1] + float(GL[k] @ h[n:]))
        W[k + 1] = forward._step_tridiagonal(ab, rhs, k + 1)
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


@pytest.fixture(scope="module")
def marches(builtin_material):
    m, g = builtin_material, GRID
    u0 = np.full(g.nx, CFG.u0)
    source = np.random.default_rng(5).standard_normal((g.nt + 1, g.nx))
    out = {}
    for name, fp in flux_cases().items():
        field = forward.solve_ibvp(m, fp, u0, g)
        out[name] = (fp, field, plain_solve_ibvp(m, fp, u0, g), source)
    return out


@pytest.mark.parametrize("name", ["exact", "random", "steep"])
def test_forward_march_matches_plain_code(marches, name):
    _, field, plain, _ = marches[name]
    assert field.values.tobytes() == plain.tobytes()


@pytest.mark.parametrize("name", ["exact", "random", "steep"])
def test_adjoint_march_matches_plain_code(marches, builtin_material, name):
    fp, field, _, source = marches[name]
    got = adjoint.solve_adjoint(field, builtin_material, fp, source, GRID)
    want = plain_solve_adjoint(field, builtin_material, fp, source, GRID)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["exact", "random", "steep"])
def test_tangent_march_matches_plain_code(marches, builtin_material, name):
    fp, field, _, _ = marches[name]
    h = np.random.default_rng(9).standard_normal(2 * fp.n)
    got = forward.solve_sensitivity(field, builtin_material, fp, h, GRID)
    want = plain_solve_sensitivity(field, builtin_material, fp, h, GRID)
    assert got.values.tobytes() == want.tobytes()


def test_steep_case_reaches_the_chattering_regime(marches):
    fp, field, _, _ = marches["steep"]
    c = 2.0 * GRID.dt / GRID.dx
    b0, bL = pchip.flux_interpolants(fp)
    worst = max(
        np.abs(pchip.eval(b0, field.values[:, 0], clamp=True)[1]).max(),
        np.abs(pchip.eval(bL, field.values[:, -1], clamp=True)[1]).max(),
    )
    assert c * worst > 2.0


def test_transport_pair_is_a_volume_weighted_transpose():
    rng = np.random.default_rng(3)
    nx, r = 17, 40.0
    ap = rng.uniform(-1.0, 1.0, (2, nx))
    du = rng.uniform(-1.0, 1.0, (2, nx - 1))
    w, q = rng.standard_normal(nx), rng.standard_normal(nx)
    vol = np.ones(nx)
    vol[[0, -1]] = 0.5
    half_ap, wall0, wallL = forward._transport_factors(du, ap, r)
    lhs = q @ (vol * forward._transport_apply(ap[0], du[1], w, r))
    rhs = w @ (vol * forward._transport_apply_t(half_ap[0], wall0[0], wallL[0], du[1], q))
    assert lhs == pytest.approx(rhs, rel=1e-12)
