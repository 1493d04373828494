"""Acceptance suite: one test per delivered guarantee, printing measured values.

Each test prints a `criterion N:` line with the measured quantities next to
their bounds, so a verbose run doubles as the acceptance report.
"""

import json
import time

import numpy as np
import pytest

from heatflux import (
    cli,
    config as config_mod,
    forward,
    observation,
    optimizer,
    pchip,
)
from heatflux.forward import EnthalpyField, Grid
from heatflux.observation import ObservationSpec
from pchip_rows import grad_wrt_values_many


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_fidelity():
    cfg = config_mod.ExperimentConfig(inv_nx=50, inv_nt=200, n=10)
    t0 = time.monotonic()
    report = cli.gradient_check(cfg)
    elapsed = time.monotonic() - t0
    print(
        f"criterion 1: gradient rel l2 {report['rel_l2_error']:.3e} <= 1e-2, "
        f"max directional {report['max_directional_error']:.3e} <= 1e-2, "
        f"runtime {elapsed:.1f}s <= 60s"
    )
    assert report["rel_l2_error"] <= 1e-2
    assert report["max_directional_error"] <= 1e-2
    assert report["passed"] is True
    assert elapsed <= 60.0


# ---------------------------------------------------------------- criterion 2


def _cosine_defect(material, alpha, nx, nt, L=0.05, T=2.0, amplitude=4.0e9):
    """Max energy-rate defect against the exact boundary fluxes of the
    separable cosine solution; both fluxes are beta(u) = alpha*mu*u, linear in
    u and therefore represented exactly by the interpolants."""
    mu = np.pi / (2.0 * L)
    g = Grid(L=L, T=T, nx=nx, nt=nt)
    part = np.linspace(0.0, 8.0e9, 9)
    vals = alpha * mu * part
    fp = pchip.FluxParameter(np.concatenate([vals, vals]), part, 2.0e6)
    u0 = amplitude * np.cos(mu * (np.linspace(0.0, L, g.nx) - L / 2))
    f = forward.solve_ibvp(material, fp, u0, g)
    dmax = 0.0
    for n in range(g.nt):
        dE = (forward.total_enthalpy(f, n + 1) - forward.total_enthalpy(f, n)) / g.dt
        trace = amplitude * np.exp(-alpha * mu**2 * n * g.dt) * np.cos(mu * L / 2)
        dmax = max(dmax, abs(dE + 2.0 * alpha * mu * trace))
    return dmax


def test_criterion_2_forward_invariants(builtin_material, constant_material):
    g = Grid(L=0.05, T=30.0, nx=41, nt=120)
    part = np.linspace(0.0, 5.5e9, 5)
    fp0 = pchip.FluxParameter(np.zeros(10), part, 1.0)
    field = forward.solve_ibvp(builtin_material, fp0, np.full(g.nx, 5.5e9), g)
    drift = float(np.abs(field.values / 5.5e9 - 1.0).max())

    alpha = 4.0e-6
    material = constant_material
    dt_defects = [_cosine_defect(material, alpha, 321, nt) for nt in (25, 50, 100)]
    dt_orders = [
        float(np.log2(dt_defects[i] / dt_defects[i + 1])) for i in range(2)
    ]
    dx_defects = [_cosine_defect(material, alpha, nx, 6400) for nx in (21, 41, 81)]
    dx_orders = [
        float(np.log2(dx_defects[i] / dx_defects[i + 1])) for i in range(2)
    ]
    print(
        f"criterion 2: zero-flux drift {drift:.3e} <= 1e-10, "
        f"defect orders dt {dt_orders[0]:.2f}/{dt_orders[1]:.2f} >= 0.9, "
        f"dx {dx_orders[0]:.2f}/{dx_orders[1]:.2f} >= 1.8"
    )
    assert drift <= 1e-10
    assert min(dt_orders) >= 0.9
    assert min(dx_orders) >= 1.8


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_pchip_suite():
    rng = np.random.default_rng(101)

    worst_excursion = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 12))
        vals = rng.uniform(-5.0, 5.0, n)
        knots = np.arange(n, dtype=float)
        p = pchip.Pchip(knots, vals)
        assert (pchip.eval(p, knots)[0] == vals).all()
        dense = np.linspace(0.0, n - 1.0, 40 * n)
        got = pchip.eval(p, dense)[0]
        lo, hi = vals.min(), vals.max()
        span = max(hi - lo, 1e-30)
        worst_excursion = max(
            worst_excursion, (lo - got.min()) / span, (got.max() - hi) / span
        )

    p = pchip.Pchip(np.linspace(0.0, 4.0, 9), [0, 3, 1, 1, 5, 2, 8, 8, 7])
    eps = 1e-8
    c1_defect = 0.0
    for i in range(1, p.n - 1):
        for x in (p.knots[i] - eps, p.knots[i] + eps):
            v, d = pchip.eval(p, x)
            c1_defect = max(
                c1_defect, abs(v - p.values[i]), abs(d - p.slopes[i]) * eps
            )

    worst_grad = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 10))
        vals = rng.uniform(-2.0, 2.0, n)
        knots = np.arange(n, dtype=float)
        p = pchip.Pchip(knots, vals)
        x = float(rng.uniform(0.0, n - 1.0))
        grad = grad_wrt_values_many(p, [x])[0]
        fd = np.zeros(n)
        h = 1e-6
        for j in range(n):
            up, dn = vals.copy(), vals.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                pchip.eval(pchip.Pchip(knots, up), x)[0]
                - pchip.eval(pchip.Pchip(knots, dn), x)[0]
            ) / (2.0 * h)
        denom = max(1.0, float(np.abs(fd).max()))
        worst_grad = max(worst_grad, float(np.abs(grad - fd).max()) / denom)

    # locality: a value three or more intervals away cannot move the result
    base = rng.uniform(-1.0, 1.0, 12)
    knots = np.arange(12, dtype=float)
    x = 2.5
    v0 = pchip.eval(pchip.Pchip(knots, base), x)[0]
    for j in range(6, 12):
        moved = base.copy()
        moved[j] += 7.0
        assert pchip.eval(pchip.Pchip(knots, moved), x)[0] == v0

    hump = pchip.Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert hump.slopes.tolist() == [2.0, 0.0, -2.0]

    epsilon = 1e-3
    runge = lambda x: 1.0 / (1.0 + 25.0 * x * x)
    level, interp, max_error = pchip.refine_to_tolerance(runge, -1.0, 1.0, epsilon)
    dense = np.linspace(-1.0, 1.0, 20001)
    sup_err = float(np.abs(pchip.eval(interp, dense)[0] - runge(dense)).max())
    print(
        f"criterion 3: envelope excursion {worst_excursion:.1e} <= 1e-12, "
        f"grad-vs-fd {worst_grad:.1e} <= 1e-5, refinement level {level} "
        f"sup-error {sup_err:.2e} < {epsilon}"
    )
    assert worst_excursion <= 1e-12
    assert c1_defect <= 1e-6
    assert worst_grad <= 1e-5
    assert max_error < epsilon
    assert sup_err < epsilon


# ---------------------------------------------------------------- criterion 4


@pytest.fixture(scope="module")
def twin_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("twin")
    cfg_path = out / "twin.cfg"
    cfg_path.write_text(f"output.dir = {out}\n")
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    t0 = time.monotonic()
    assert cli.main(["invert", "--config", str(cfg_path)]) == 0
    invert_seconds = time.monotonic() - t0
    return config_mod.load_config(cfg_path), out, invert_seconds


@pytest.mark.slow
def test_criterion_4_twin_inversion_quality(twin_run):
    cfg, out, invert_seconds = twin_run
    meta = json.loads((out / "meta.json").read_text())
    beta = json.loads((out / "beta.json").read_text())
    rows = (out / "convergence.csv").read_text().splitlines()[1:]
    normalized = np.array([float(r.split(",")[2]) for r in rows])

    delta = meta["delta"]
    final = normalized[-1]
    fp_rec = pchip.FluxParameter(
        np.asarray(beta["beta"]), config_mod.inversion_partition(cfg), cfg.beta_max
    )
    rec0, recL = pchip.flux_interpolants(fp_rec)
    ex0, exL = config_mod.leidenfrost_profiles(cfg.u_max, cfg.beta_max)
    dense = np.linspace(0.0, cfg.u_max, 2001)
    cell = cfg.u_max / (cfg.n - 1)
    rels, peaks = [], []
    for rec, ex in ((rec0, ex0), (recL, exL)):
        vr = pchip.eval(rec, dense)[0]
        vx = pchip.eval(ex, dense)[0]
        rels.append(float(np.linalg.norm(vr - vx) / np.linalg.norm(vx)))
        peaks.append(float(abs(dense[np.argmax(vr)] - dense[np.argmax(vx)]) / cell))

    print(
        f"criterion 4: stop {beta['stop_reason']} at k*={beta['k_star']}, "
        f"normalized {final:.3e} <= {cfg.rho * delta:.3e} (rho*delta), "
        f"delta {delta:.3e} <= 6.65e-8, flux rel L2 {rels[0]:.3f}/{rels[1]:.3f} <= 0.15, "
        f"peak offsets {peaks[0]:.2f}/{peaks[1]:.2f} <= 1 cell, "
        f"invert {invert_seconds:.0f}s <= 600s"
    )
    assert beta["stop_reason"] == "discrepancy"
    assert final <= cfg.rho * delta
    assert delta <= 6.65e-8
    assert max(rels) <= 0.15
    assert max(peaks) <= 1.0
    assert invert_seconds <= 600.0
    assert (np.diff(normalized) <= 0.0).all()


# ---------------------------------------------------------------- criterion 5


# A short, coarse twin experiment shared by criteria 5 and 7.
COARSE_TWIN = (
    "domain.T = 6.0\n"
    "grids.sim.nx = 51\n"
    "grids.sim.nt = 600\n"
    "grids.inv.nx = 41\n"
    "grids.inv.nt = 480\n"
    "partition.n = 10\n"
    "sensors.sample_interval = 0.2\n"
)


def test_criterion_5_pqn_beats_landweber(tmp_path):
    cfg_path = tmp_path / "compare.cfg"
    out = tmp_path / "out"
    cfg_path.write_text(
        COARSE_TWIN
        + "optimizer.max_iter = 100\n"
        + "optimizer.landweber_max_iter = 100\n"
        + f"output.dir = {out}\n"
    )
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    rc = cli.main(["compare", "--config", str(cfg_path)])
    summary = json.loads((out / "summary.json").read_text())
    k_reach = summary["pqn_iterations_to_baseline_best"]
    budget = 0.3 * 100
    print(
        f"criterion 5: PQN stop {summary['pqn_stop_reason']} at k*={summary['pqn_iterations']}, "
        f"matches Landweber's best level after {summary['landweber_iterations']} "
        f"iterations at k={k_reach} < {budget:.0f}, exit {rc}"
    )
    assert rc == 0
    assert summary["pqn_superior"] is True
    assert k_reach is not None and k_reach < budget


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_algebraic_suites(builtin_material, monkeypatch):
    rng = np.random.default_rng(63)

    # secant equation after every update the solver actually applies
    secant_errors = []
    original = optimizer.bfgs_inverse_update

    def recording(S, s_k, g_k):
        S_new = original(S, s_k, g_k)
        if not np.array_equal(S_new, S):
            secant_errors.append(
                float(np.linalg.norm(S_new @ g_k - s_k) / np.linalg.norm(s_k))
            )
        return S_new

    monkeypatch.setattr(optimizer, "bfgs_inverse_update", recording)
    A = np.diag([1.0, 4.0, 9.0, 16.0])
    xstar = np.array([0.3, 0.9, 0.5, 0.2])
    prob = optimizer.Problem(
        dim=4,
        objective=lambda x: 0.5 * float((x - xstar) @ (A @ (x - xstar))),
        gradient=lambda x: (
            0.5 * float((x - xstar) @ (A @ (x - xstar))),
            A @ (x - xstar),
        ),
    )
    state = optimizer.pqn_solve(prob, optimizer.SolveConfig(max_iter=60))
    monkeypatch.undo()
    assert secant_errors, "no BFGS update was applied"
    worst_secant = max(secant_errors)

    # projection idempotence + feasibility of every iterate
    for it in state.iterate_history:
        assert (it >= 0.0).all() and (it <= 1.0).all()
        assert (optimizer.project_box(it) == it).all()
    for _ in range(200):
        x = rng.uniform(-2.0, 3.0, 6)
        once = optimizer.project_box(x)
        assert (once >= 0.0).all() and (once <= 1.0).all()
        assert (optimizer.project_box(once) == once).all()

    # active-set masks against a brute-force reimplementation, 500 states
    for _ in range(500):
        n = 6
        M = rng.standard_normal((n, n))
        S = M @ M.T + 0.1 * np.eye(n)
        beta = rng.uniform(0.0, 1.0, n)
        pins = rng.random(n)
        beta[pins < 0.3] = 0.0
        beta[pins > 0.7] = 1.0
        grad = rng.standard_normal(n)
        p, I1, I2 = optimizer.search_direction(beta, S, grad)
        at_lo, at_hi = beta == 0.0, beta == 1.0
        ref1 = (at_lo & (grad > 0)) | (at_hi & (grad < 0))
        S1 = S.copy()
        S1[ref1, :] = 0.0
        S1[:, ref1] = 0.0
        w = S1 @ grad
        ref2 = (at_lo & (w > 0)) | (at_hi & (w < 0))
        S2 = S1.copy()
        S2[ref2, :] = 0.0
        S2[:, ref2] = 0.0
        assert (I1 == np.flatnonzero(ref1)).all()
        assert (I2 == np.flatnonzero(ref2)).all()
        assert np.allclose(p, -(S2 @ grad), rtol=0, atol=1e-13 * max(1.0, np.abs(p).max()))

    # sampling/injection duality
    g = Grid(L=0.05, T=3.0, nx=23, nt=17)
    spec = ObservationSpec(
        positions=np.array([0.0041, 0.0173, 0.0318, 0.0449]),
        times=np.array([0.217, 0.83, 1.371, 2.456, 3.0]),
    )
    worst_dual = 0.0
    for _ in range(20):
        w = rng.standard_normal((g.nt + 1, g.nx))
        v = rng.standard_normal((spec.d, spec.m))
        lhs = float(np.sum(observation.observe(EnthalpyField(g, w), spec) * v))
        src = observation.adjoint_source(v, spec, g)
        levels = np.repeat(np.arange(g.nt + 1), np.diff(src.start))
        rhs = float(np.sum(w[levels, src.node] * src.value) * g.dx * g.dt)
        worst_dual = max(worst_dual, abs(lhs - rhs) / abs(rhs))

    print(
        f"criterion 6: secant residual {worst_secant:.1e} <= 1e-10 "
        f"({len(secant_errors)} applied updates), masks 500/500, "
        f"duality {worst_dual:.1e} <= 1e-12"
    )
    assert worst_secant <= 1e-10
    assert worst_dual <= 1e-12


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_determinism(tmp_path):
    cfg_path = tmp_path / "coarse.cfg"
    out = tmp_path / "out"
    cfg_path.write_text(COARSE_TWIN + "optimizer.max_iter = 20\n" + f"output.dir = {out}\n")

    def run_all():
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        assert cli.main(["invert", "--config", str(cfg_path)]) == 0
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = run_all()
    second = run_all()
    same = sorted(first) == sorted(second) and all(
        first[k] == second[k] for k in first
    )
    print(
        f"criterion 7: {len(first)} output files byte-identical across two runs: {same}"
    )
    assert same
