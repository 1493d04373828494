"""Projected quasi-Newton pieces, Landweber baseline, and the PDE problem wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatflux import forward, observation, pchip
from heatflux.errors import DivergenceError, LineSearchError, OptimizerError, ValidationError
from heatflux.forward import Grid
from heatflux.observation import ObservationSpec
from heatflux.optimizer import (
    OptimizerState,
    Problem,
    SolveConfig,
    armijo_projected,
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
        beta_max=1.0,
        objective=objective,
        gradient=gradient,
        delta=delta,
    )


class TestProjection:
    def test_clamps_componentwise(self):
        out = project_box(np.array([-1.0, 0.3, 2.5]), 2.0)
        assert out.tolist() == [0.0, 0.3, 2.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
    )
    def test_idempotent_and_feasible(self, values, beta_max):
        x = np.asarray(values)
        once = project_box(x, beta_max)
        assert (once >= 0.0).all() and (once <= beta_max).all()
        assert (project_box(once, beta_max) == once).all()

    def test_interior_points_unchanged(self):
        x = np.array([0.0, 0.5, 1.0])
        assert (project_box(x, 1.0) == x).all()


def reference_masks(beta, beta_max, S, grad):
    at_lo = beta == 0.0
    at_hi = beta == beta_max
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
    state = OptimizerState(beta=beta, inv_hessian=S, beta_max=1.0)
    return state, grad


class TestSearchDirection:
    def test_matches_reference_masking(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            state, grad = random_state(rng)
            p, I1, I2 = search_direction(state, grad)
            p_ref, I1_ref, I2_ref = reference_masks(
                state.beta, state.beta_max, state.inv_hessian, grad
            )
            assert (I1 == I1_ref).all() and (I2 == I2_ref).all()
            assert np.allclose(p, p_ref, rtol=0, atol=1e-14 * np.abs(p_ref).max())

    def test_masked_coordinates_are_frozen_and_slope_is_descent(self):
        # Masking is deliberately one-pass (I1 from the gradient, I2 from the
        # once-masked direction); residual outward components are handled by
        # the projected trials, so the guarantees here are p = 0 on the
        # detected sets and a non-ascent slope from the masked PSD metric.
        rng = np.random.default_rng(29)
        for _ in range(100):
            state, grad = random_state(rng)
            p, I1, I2 = search_direction(state, grad)
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
        state = OptimizerState(beta=beta, inv_hessian=S, beta_max=1.0)
        p, I1, I2 = search_direction(state, grad)
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
    def test_full_step_accepted_on_well_scaled_quadratic(self):
        prob = quadratic_problem(np.eye(3), np.full(3, 0.5))
        beta = np.zeros(3)
        f, grad = prob.gradient(beta)
        state = OptimizerState(beta=beta, inv_hessian=np.eye(3), beta_max=1.0)
        state.residual_history.append(f)
        lam, trial, f_trial = armijo_projected(state, prob.objective, -grad, grad)
        assert lam == 1.0
        assert np.allclose(trial, np.full(3, 0.5), rtol=0, atol=1e-15)

    def test_backtracks_on_stiff_quadratic(self):
        stiff = 64.0
        prob = quadratic_problem(stiff * np.eye(2), np.full(2, 0.5))
        beta = np.zeros(2)
        f, grad = prob.gradient(beta)
        state = OptimizerState(beta=beta, inv_hessian=np.eye(2), beta_max=1.0)
        state.residual_history.append(f)
        lam, _, f_trial = armijo_projected(state, prob.objective, -grad, grad)
        assert lam < 1.0
        assert f_trial < f

    def test_underflow_raises_line_search_error(self):
        beta = np.full(2, 0.5)
        state = OptimizerState(beta=beta, inv_hessian=np.eye(2), beta_max=1.0)
        state.residual_history.append(1.0)
        rising = lambda x: 2.0
        with pytest.raises(LineSearchError):
            armijo_projected(state, rising, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))

    def test_requires_current_objective(self):
        state = OptimizerState(beta=np.zeros(2), inv_hessian=np.eye(2), beta_max=1.0)
        with pytest.raises(OptimizerError):
            armijo_projected(state, lambda x: 0.0, np.ones(2), np.ones(2))


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

    def test_diverging_trial_is_rejected_not_fatal(self):
        # The first direction (0.5, 5) overshoots into x_2 > 0.8, where the
        # "march" blows up; those trials must shrink the step like a failed
        # Armijo test instead of ending the run.
        base = quadratic_problem(np.diag([1.0, 10.0]), np.full(2, 0.5))
        diverged = []

        def guarded(fn):
            def call(x):
                if (x > 0.8).any():
                    diverged.append(x.copy())
                    raise DivergenceError("non-finite trial march", step=1)
                return fn(x)
            return call

        prob = Problem(
            dim=2,
            beta_max=1.0,
            objective=guarded(base.objective),
            gradient=guarded(base.gradient),
        )
        state = pqn_solve(prob, SolveConfig(max_iter=200))
        assert diverged
        assert (state.beta >= 0.0).all() and (state.beta <= 0.8).all()
        assert np.abs(state.beta - 0.5).max() <= 1e-7

    def test_gradient_guard_keeps_spiking_trials_out(self):
        # Inside the band 0.1 < x_2 < 0.13 the gradient is 1e9 times too large
        # while the objective stays smooth, as at a trial whose boundary march
        # chatters. The guard must reject such trials instead of feeding the
        # gradient to the BFGS update.
        base = quadratic_problem(np.diag([1.0, 10.0]), np.array([0.5, 0.2]))
        spikes = []

        def gradient(x):
            f, g = base.gradient(x)
            if 0.1 < x[1] < 0.13:
                spikes.append(x.copy())
                return f, 1e9 * g
            return f, g

        prob = Problem(dim=2, beta_max=1.0, objective=base.objective, gradient=gradient)
        state = pqn_solve(prob, SolveConfig(max_iter=200))
        assert spikes
        assert not any(0.1 < it[1] < 0.13 for it in state.iterate_history)
        assert np.abs(state.beta - np.array([0.5, 0.2])).max() <= 1e-7

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

        prob = Problem(dim=2, beta_max=1.0, objective=base.objective, gradient=gradient)
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
        assert prob.beta_max == 1.0
        assert prob.param_scale == 2.0e6
        assert prob.delta == meas.delta

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

