"""Projected quasi-Newton pieces, Landweber baseline, and the PDE problem wrapper."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatflux import adjoint, forward, observation, optimizer, pchip
from heatflux.errors import DivergenceError, OptimizerError, ValidationError
from heatflux.forward import Grid
from heatflux.observation import ObservationSpec
from heatflux.optimizer import (
    Problem,
    SolveConfig,
    bfgs_inverse_update,
    landweber_solve,
    make_pde_problem,
    pqn_solve,
    project_box,
    search_direction,
)


def quadratic_problem(A, xstar, delta=0.0, lift=0.0):
    A = np.asarray(A, dtype=float)
    xstar = np.asarray(xstar, dtype=float)

    def objective(x):
        d = x - xstar
        return 0.5 * float(d @ (A @ d)) + lift

    def gradient(x):
        d = x - xstar
        return 0.5 * float(d @ (A @ d)) + lift, A @ d

    return Problem(
        dim=xstar.size,
        objective=objective,
        gradient=gradient,
        delta=delta,
    )


class TestProjection:
    def test_clamps_componentwise(self):
        out = project_box(np.array([-1.0, 0.3, 2.5]))
        assert out.tolist() == [0.0, 0.3, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
    )
    def test_idempotent_and_feasible(self, values):
        x = np.asarray(values)
        once = project_box(x)
        assert (once >= 0.0).all() and (once <= 1.0).all()
        assert (project_box(once) == once).all()

    def test_interior_points_unchanged(self):
        x = np.array([0.0, 0.5, 1.0])
        assert (project_box(x) == x).all()


def reference_masks(beta, S, grad):
    at_lo = beta == 0.0
    at_hi = beta == 1.0
    I1 = (at_lo & (grad > 0.0)) | (at_hi & (grad < 0.0))
    S1 = S.copy()
    S1[I1, :] = 0.0
    S1[:, I1] = 0.0
    w = S1 @ grad
    I2 = (at_lo & (w > 0.0)) | (at_hi & (w < 0.0))
    S2 = S1.copy()
    S2[I2, :] = 0.0
    S2[:, I2] = 0.0
    return -(S2 @ grad), np.flatnonzero(I1), np.flatnonzero(I2)


def random_state(rng, n=7):
    M = rng.standard_normal((n, n))
    S = M @ M.T + 0.1 * np.eye(n)
    beta = rng.uniform(0.0, 1.0, n)
    pins = rng.random(n)
    beta[pins < 0.25] = 0.0
    beta[pins > 0.75] = 1.0
    grad = rng.standard_normal(n)
    return beta, S, grad


class TestSearchDirection:
    def test_matches_reference_masking(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            beta, S, grad = random_state(rng)
            p, I1, I2 = search_direction(beta, S, grad)
            p_ref, I1_ref, I2_ref = reference_masks(beta, S, grad)
            assert (I1 == I1_ref).all() and (I2 == I2_ref).all()
            assert np.allclose(p, p_ref, rtol=0, atol=1e-14 * np.abs(p_ref).max())

    def test_masked_coordinates_are_frozen_and_slope_is_descent(self):
        # Masking is deliberately one-pass (I1 from the gradient, I2 from the
        # once-masked direction); residual outward components are handled by
        # the projected trials, so the guarantees here are p = 0 on the
        # detected sets and a non-ascent slope from the masked PSD metric.
        rng = np.random.default_rng(29)
        for _ in range(100):
            beta, S, grad = random_state(rng)
            p, I1, I2 = search_direction(beta, S, grad)
            masked = np.concatenate([I1, I2])
            assert (p[masked] == 0.0).all()
            assert float(grad @ p) <= 0.0

    def test_interior_is_plain_quasi_newton(self):
        rng = np.random.default_rng(31)
        n = 5
        M = rng.standard_normal((n, n))
        S = M @ M.T + np.eye(n)
        beta = rng.uniform(0.2, 0.8, n)
        grad = rng.standard_normal(n)
        p, I1, I2 = search_direction(beta, S, grad)
        assert I1.size == 0 and I2.size == 0
        assert np.allclose(p, -(S @ grad), rtol=1e-15, atol=0)


class TestBfgsUpdate:
    def test_secant_equation_after_update(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = 6
            M = rng.standard_normal((n, n))
            S = M @ M.T + 0.5 * np.eye(n)
            s = rng.standard_normal(n)
            g = rng.standard_normal(n)
            if float(s @ g) <= 0:
                g = -g
            S_new = bfgs_inverse_update(S, s, g)
            err = np.linalg.norm(S_new @ g - s) / np.linalg.norm(s)
            assert err <= 1e-10
            assert (S_new == S_new.T).all()

    def test_nonpositive_curvature_is_skipped(self):
        S = np.eye(3)
        s = np.array([1.0, 0.0, 0.0])
        g = np.array([-1.0, 0.5, 0.0])
        assert (bfgs_inverse_update(S, s, g) == S).all()
        # Curvature far below the |s||g| scale counts as numerically zero.
        g_tiny = np.array([1e-13, 1.0, 0.0])
        assert (bfgs_inverse_update(S, s, g_tiny) == S).all()

    def test_positive_definiteness_is_preserved(self):
        rng = np.random.default_rng(41)
        S = np.eye(5)
        x = rng.uniform(0.2, 0.8, 5)
        A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        for _ in range(20):
            x_new = x - 0.1 * rng.random() * (A @ x)
            s = x_new - x
            g = A @ (x_new - x)
            S = bfgs_inverse_update(S, s, g)
            assert np.linalg.eigvalsh(S).min() > 0.0
            x = x_new


class TestArmijo:
    """The Armijo test inside `pqn_solve`'s backtracking, on its first step."""

    def test_full_step_accepted_on_well_scaled_quadratic(self):
        prob = quadratic_problem(np.eye(3), np.full(3, 0.5))
        state = pqn_solve(prob, SolveConfig(max_iter=1))
        assert state.step_history[0] == 1.0
        assert np.allclose(state.iterate_history[1], np.full(3, 0.5), rtol=0, atol=1e-15)

    def test_backtracks_on_stiff_quadratic(self):
        stiff = 64.0
        prob = quadratic_problem(stiff * np.eye(2), np.full(2, 0.5))
        state = pqn_solve(prob, SolveConfig(max_iter=1))
        f, f_trial = state.residual_history
        assert state.step_history[0] < 1.0
        assert f_trial < f


def diverging_problem():
    """A quadratic whose first direction (0.5, 5) overshoots into x_2 > 0.8,
    where the "march" blows up; and the list of points that diverged."""
    base = quadratic_problem(np.diag([1.0, 10.0]), np.full(2, 0.5))
    diverged = []

    def guarded(fn):
        def call(x):
            if (x > 0.8).any():
                diverged.append(x.copy())
                raise DivergenceError("non-finite trial march", step=1)
            return fn(x)
        return call

    prob = Problem(dim=2, objective=guarded(base.objective), gradient=guarded(base.gradient))
    return prob, diverged


def spiking_problem():
    """A quadratic whose gradient is 1e9 times too large inside the band
    0.1 < x_2 < 0.13 while the objective stays smooth, as at a trial whose
    boundary march chatters; and the list of points where it spiked."""
    base = quadratic_problem(np.diag([1.0, 10.0]), np.array([0.5, 0.2]))
    spikes = []

    def gradient(x):
        f, g = base.gradient(x)
        if 0.1 < x[1] < 0.13:
            spikes.append(x.copy())
            return f, 1e9 * g
        return f, g

    return Problem(dim=2, objective=base.objective, gradient=gradient), spikes


class TestPqnSolve:
    def test_converges_to_interior_minimum(self):
        A = np.diag([1.0, 3.0, 10.0])
        xstar = np.array([0.3, 0.6, 0.4])
        state = pqn_solve(quadratic_problem(A, xstar), SolveConfig(max_iter=200))
        assert np.abs(state.beta - xstar).max() <= 1e-7
        f_hist = np.array(state.residual_history)
        assert (np.diff(f_hist) <= 0.0).all()

    def test_pins_exterior_minimum_to_bound(self):
        A = np.diag([2.0, 1.0])
        xstar = np.array([1.5, 0.25])
        state = pqn_solve(quadratic_problem(A, xstar), SolveConfig(max_iter=200))
        assert state.beta[0] == 1.0
        assert state.beta[1] == pytest.approx(0.25, abs=1e-8)

    def test_discrepancy_before_first_step(self):
        # Threshold above the initial residual: the solver must return
        # immediately with zero iterations.
        prob = quadratic_problem(np.eye(2), np.full(2, 0.5), delta=10.0)
        state = pqn_solve(prob, SolveConfig(max_iter=50, rho=2.0))
        assert state.stop_reason == "discrepancy"
        assert state.iteration == 0
        assert len(state.residual_history) == 1

    def test_discrepancy_stop_mid_run(self):
        prob = quadratic_problem(np.diag([1.0, 5.0]), np.array([0.4, 0.7]), delta=1e-4)
        state = pqn_solve(prob, SolveConfig(max_iter=100, rho=2.0))
        assert state.stop_reason == "discrepancy"
        assert state.residual_history[-1] <= 2.0 * 1e-4
        assert state.residual_history[-2] > 2.0 * 1e-4

    def test_budget_exhaustion_reports_max_iter(self):
        prob = quadratic_problem(np.diag([1.0, 5.0]), np.array([0.4, 0.7]))
        state = pqn_solve(prob, SolveConfig(max_iter=3))
        assert state.stop_reason == "max_iter"
        assert state.iteration == 3

    def test_stationary_point_stops_cleanly(self):
        prob = quadratic_problem(np.eye(2), np.full(2, 0.5), lift=1.0)
        state = pqn_solve(prob, SolveConfig(max_iter=500, beta0=np.full(2, 0.5)))
        assert state.stop_reason == "stationary"

    def test_uphill_gradient_ends_in_line_search_failure(self):
        # Every trial along the reported descent direction climbs, so the
        # step underflows: a stop reason, not an error.
        base = quadratic_problem(np.eye(2), np.full(2, 0.4))
        uphill = Problem(
            dim=2, objective=base.objective,
            gradient=lambda x: (base.objective(x), -base.gradient(x)[1]),
        )
        state = pqn_solve(uphill, SolveConfig(max_iter=50, beta0=np.full(2, 0.5)))
        assert state.stop_reason == "line_search_failure"
        assert state.iteration == 0

    def test_diverging_trial_is_rejected_not_fatal(self):
        # The trials that blow up must shrink the step like a failed Armijo
        # test instead of ending the run.
        prob, diverged = diverging_problem()
        state = pqn_solve(prob, SolveConfig(max_iter=200))
        assert diverged
        assert (state.beta >= 0.0).all() and (state.beta <= 0.8).all()
        assert np.abs(state.beta - 0.5).max() <= 1e-7

    def test_gradient_guard_keeps_spiking_trials_out(self):
        # The guard must reject the trials whose gradient spikes instead of
        # feeding the gradient to the BFGS update.
        prob, spikes = spiking_problem()
        state = pqn_solve(prob, SolveConfig(max_iter=200))
        assert spikes
        assert not any(0.1 < it[1] < 0.13 for it in state.iterate_history)
        assert np.abs(state.beta - np.array([0.5, 0.2])).max() <= 1e-7

    @pytest.mark.parametrize(
        "make", [diverging_problem, spiking_problem], ids=["divergence", "guard"]
    )
    def test_gradient_follows_its_objective_and_trials_halve(self, make, monkeypatch):
        # After the start, each gradient call is at the bytes of the
        # objective call just before it, which `make_pde_problem`'s
        # one-entry solve cache relies on; within an iteration the k-th
        # objective trial is P(beta + 2^-k p), k = 0, 1, ...
        prob, rejected = make()
        calls = []
        objective, gradient = prob.objective, prob.gradient
        direction = optimizer.search_direction

        def recorded(kind, fn):
            def call(x):
                calls.append((kind, x.tobytes()))
                return fn(x)
            return call

        def recorded_direction(beta, S, grad):
            p, I1, I2 = direction(beta, S, grad)
            calls.append(("direction", beta.copy(), p))
            return p, I1, I2

        prob.objective = recorded("objective", objective)
        prob.gradient = recorded("gradient", gradient)
        monkeypatch.setattr(optimizer, "search_direction", recorded_direction)
        pqn_solve(prob, SolveConfig(max_iter=200))
        assert rejected
        assert calls[0][0] == "gradient"
        halvings = 0
        for before, (kind, *args) in zip(calls, calls[1:]):
            if kind == "direction":
                (beta, p), k = args, 0
            elif kind == "objective":
                assert args[0] == project_box(beta + 2.0**-k * p).tobytes()
                halvings, k = max(halvings, k), k + 1
            else:
                assert before[0] == "objective" and before[1] == args[0]
        assert halvings > 0

    @pytest.mark.parametrize("failure", ["raises", "nan"])
    def test_failing_gradient_at_accepted_trial_is_rejected_not_fatal(self, failure):
        # Inside the band 0.1 < x_2 < 0.13, where the guard test's gradient
        # spikes, the gradient here diverges (its adjoint march overflows) or
        # comes back NaN, which the guard's comparison alone lets through,
        # while the objective stays smooth. Such trials must shrink the step
        # like a guard rejection instead of ending the run or reaching the
        # BFGS update.
        base = quadratic_problem(np.diag([1.0, 10.0]), np.array([0.5, 0.2]))
        failed = []

        def gradient(x):
            f, g = base.gradient(x)
            if 0.1 < x[1] < 0.13:
                failed.append(x.copy())
                if failure == "raises":
                    raise DivergenceError("non-finite adjoint march", step=1)
                return f, np.array([g[0], np.nan])
            return f, g

        prob = Problem(dim=2, objective=base.objective, gradient=gradient)
        state = pqn_solve(prob, SolveConfig(max_iter=200))
        assert failed
        assert not any(0.1 < it[1] < 0.13 for it in state.iterate_history)
        assert np.isfinite(state.inv_hessian).all()
        assert np.abs(state.beta - np.array([0.5, 0.2])).max() <= 1e-7

    def test_runs_are_deterministic(self):
        prob = quadratic_problem(np.diag([1.0, 3.0, 7.0]), np.array([0.2, 0.5, 0.9]))
        cfg = SolveConfig(max_iter=40)
        s1 = pqn_solve(prob, cfg)
        s2 = pqn_solve(prob, cfg)
        assert s1.residual_history == s2.residual_history
        for a, b in zip(s1.iterate_history, s2.iterate_history):
            assert (a == b).all()

    def test_infeasible_start_is_projected(self):
        prob = quadratic_problem(np.eye(2), np.full(2, 0.5))
        state = pqn_solve(prob, SolveConfig(max_iter=1, beta0=np.array([5.0, -3.0])))
        assert (state.iterate_history[0] == np.array([1.0, 0.0])).all()
        assert (state.beta >= 0.0).all() and (state.beta <= 1.0).all()


class TestLandweber:
    def test_monotone_descent_with_stable_damping(self):
        prob = quadratic_problem(np.diag([1.0, 2.0]), np.array([0.4, 0.6]), delta=1e-5)
        state = landweber_solve(prob, SolveConfig(max_iter=5000, damping=0.3))
        assert state.stop_reason == "discrepancy"
        f_hist = np.array(state.residual_history)
        assert (np.diff(f_hist) <= 0.0).all()

    def test_auto_damping_moves_a_tenth_of_the_box(self):
        prob = quadratic_problem(np.diag([1.0, 2.0]), np.array([0.4, 0.6]))
        state = landweber_solve(prob, SolveConfig(max_iter=1))
        _, g0 = prob.gradient(np.zeros(2))
        assert state.step_history[0] == pytest.approx(0.1 / np.abs(g0).max())

    def test_divergent_damping_aborts_with_diagnosis(self):
        # Damping just above the stability limit 2/L makes the error grow by
        # a constant factor every step while the iterate is still interior,
        # which is exactly the monotone-increase streak the detector watches.
        prob = quadratic_problem(np.eye(2), np.full(2, 0.5))
        with pytest.raises(OptimizerError, match="damping"):
            landweber_solve(
                prob,
                SolveConfig(max_iter=100, damping=2.05, beta0=np.full(2, 0.51)),
            )

    def test_nonpositive_damping_rejected(self):
        prob = quadratic_problem(np.eye(2), np.full(2, 0.5))
        with pytest.raises(ValidationError):
            landweber_solve(prob, SolveConfig(max_iter=10, damping=0.0))

    def test_zero_gradient_plateau_stops(self):
        prob = quadratic_problem(np.eye(2), np.full(2, 0.5), lift=1.0)
        state = landweber_solve(prob, SolveConfig(max_iter=10, beta0=np.full(2, 0.5)))
        assert state.stop_reason == "stationary"
        assert state.iteration == 0


@pytest.fixture(scope="module")
def pde(builtin_material):
    g = Grid(L=0.05, T=2.0, nx=21, nt=40)
    u0 = np.full(g.nx, 5.0e9)
    spec = ObservationSpec(
        positions=np.array([0.01, 0.03]), times=np.linspace(0.1, 2.0, 15)
    )
    part = np.linspace(0.0, 8.0e9, 4)
    beta_max = 2.0e6
    fp_true = pchip.FluxParameter(
        1.0e6 * (0.6 + 0.2 * np.sin(np.arange(8, dtype=float))), part, beta_max
    )
    clean = observation.observe(
        forward.solve_ibvp(builtin_material, fp_true, u0, g), spec
    )
    meas = observation.add_noise(clean, spec, amplitude=1.0e5, seed=11)
    prob = make_pde_problem(builtin_material, meas, u0, g, part, beta_max)
    return prob, meas


class TestPdeProblem:
    def test_wrapper_reports_dimensionless_box(self, pde):
        prob, meas = pde
        assert prob.dim == 8
        assert not prob.fluxes(np.zeros(prob.dim)).beta.any()
        top = prob.fluxes(np.ones(prob.dim))
        assert np.array_equal(top.beta, np.full(prob.dim, 2.0e6)) and top.beta_max == 2.0e6
        assert prob.delta == meas.delta

    def test_data_norm_is_the_readings_squared_norm(self, pde):
        prob, meas = pde
        assert prob.data_norm_sq == float(np.sum(meas.data**2))

    def test_fluxes_are_the_parameter_the_objective_solves_with(self, pde, monkeypatch):
        # The objective's misfit, over the carried norm, at the very
        # parameter `fluxes` gives for the same iterate.
        prob, _ = pde
        objective, solved = adjoint.objective, []

        def recorded(fp, *args):
            out = objective(fp, *args)
            solved.append((fp, out[0]))
            return out

        monkeypatch.setattr(adjoint, "objective", recorded)
        b = np.linspace(0.2, 0.9, prob.dim)
        f = prob.objective(b)
        fp = prob.fluxes(b)
        [(used, misfit)] = solved
        assert used.beta.tobytes() == fp.beta.tobytes()
        assert used.partition.tobytes() == fp.partition.tobytes()
        assert used.beta_max == fp.beta_max
        assert f == misfit / prob.data_norm_sq

    def test_a_new_point_releases_the_previous_field(self, pde, monkeypatch):
        # The one-entry solve cache drops its field, with the pivots it
        # carries, before the next point's solve: a gradient at the cached
        # point solves nothing, and a new point's solve finds the previous
        # field gone.
        prob, _ = pde
        objective, fields = adjoint.objective, []

        def recorded(*args):
            assert all(field() is None for field in fields)
            out = objective(*args)
            fields.append(weakref.ref(out[2]))
            return out

        monkeypatch.setattr(adjoint, "objective", recorded)
        b = np.full(prob.dim, 0.3)
        prob.objective(b)
        prob.gradient(b)
        assert len(fields) == 1 and fields[0]().pivots is not None
        prob.objective(b + 0.1)
        assert len(fields) == 2 and fields[0]() is None and fields[1]() is not None

    def test_gradient_matches_finite_differences(self, pde):
        prob, _ = pde
        rng = np.random.default_rng(13)
        b = rng.uniform(0.3, 0.7, prob.dim)
        f, grad = prob.gradient(b)
        assert f == prob.objective(b)
        eps = 1e-6
        gfd = np.zeros(prob.dim)
        for i in range(prob.dim):
            e = np.zeros(prob.dim)
            e[i] = eps
            gfd[i] = (prob.objective(b + e) - prob.objective(b - e)) / (2 * eps)
        rel = np.linalg.norm(grad - gfd) / np.linalg.norm(gfd)
        assert rel <= 1e-6

    def test_pqn_reduces_pde_misfit(self, pde):
        prob, _ = pde
        state = pqn_solve(prob, SolveConfig(max_iter=8, rho=2.0))
        assert state.residual_history[-1] < state.residual_history[0]
        assert (state.beta >= 0.0).all() and (state.beta <= 1.0).all()

