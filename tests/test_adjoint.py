"""Adjoint gradient: exactness against the tangent solver and finite differences."""

import numpy as np
import pytest

from heatflux import adjoint, forward, observation, pchip
from heatflux.errors import ValidationError
from heatflux.forward import Grid
from heatflux.observation import ObservationSpec


PART = np.linspace(0.0, 8.0e9, 6)
BETA_MAX = 2.0e6


def make_case(builtin_material):
    g = Grid(L=0.05, T=2.0, nx=31, nt=80)
    u0 = np.full(g.nx, 5.0e9)
    spec = ObservationSpec(
        positions=np.array([0.004, 0.0173, 0.031, 0.0449]),
        times=np.linspace(0.1, 2.0, 25),
    )
    beta_true = 1.0e6 * (0.6 + 0.3 * np.sin(np.arange(12, dtype=float)))
    fp_true = pchip.FluxParameter(beta_true, PART, BETA_MAX)
    clean = observation.observe(
        forward.solve_ibvp(builtin_material, fp_true, u0, g), spec
    )
    meas = observation.add_noise(clean, spec, amplitude=0.0, seed=3)
    beta_eval = 1.0e6 * (0.5 + 0.25 * np.cos(np.arange(12, dtype=float)))
    fp = pchip.FluxParameter(beta_eval, PART, BETA_MAX)
    return builtin_material, g, u0, spec, meas, fp


@pytest.fixture(scope="module")
def case(builtin_material):
    return make_case(builtin_material)


class TestExactness:
    def test_zero_residual_gives_identically_zero_gradient(self, builtin_material):
        m, g, u0, spec, meas, fp = make_case(builtin_material)
        fp_true = pchip.FluxParameter(
            1.0e6 * (0.6 + 0.3 * np.sin(np.arange(12, dtype=float))), PART, BETA_MAX
        )
        f, grad = adjoint.compute_gradient(fp_true, meas, m, u0, g)
        assert f == 0.0
        assert (grad == 0.0).all()
        _, residual, field = adjoint.objective(fp_true, meas, m, u0, g)
        src = observation.adjoint_source(residual, spec, g)
        assert (adjoint.solve_adjoint(field, m, fp_true, src, g) == 0.0).all()

    def test_directional_duality_with_tangent_solver(self, case):
        # <grad, h> must equal sum(residual * observe(W_h)) to rounding: the
        # adjoint march and assembly are built as the exact transpose of the
        # tangent march.
        m, g, u0, spec, meas, fp = case
        _, grad = adjoint.compute_gradient(fp, meas, m, u0, g)
        _, residual, field = adjoint.objective(fp, meas, m, u0, g)
        rng = np.random.default_rng(17)
        for _ in range(5):
            h = rng.standard_normal(12)
            W = forward.solve_sensitivity(field, m, fp, h, g)
            pairing = float(np.sum(residual * observation.observe(W, spec)))
            assert float(grad @ h) == pytest.approx(pairing, rel=1e-12)

    def test_matches_objective_finite_differences(self, case):
        m, g, u0, spec, meas, fp = case
        _, grad = adjoint.compute_gradient(fp, meas, m, u0, g)
        eps = 1.0e-4 * BETA_MAX
        gfd = np.zeros(12)
        for i in range(12):
            e = np.zeros(12)
            e[i] = eps
            fp_p = pchip.FluxParameter(fp.beta + e, PART, BETA_MAX)
            fp_m = pchip.FluxParameter(fp.beta - e, PART, BETA_MAX)
            gfd[i] = (
                adjoint.objective(fp_p, meas, m, u0, g)[0]
                - adjoint.objective(fp_m, meas, m, u0, g)[0]
            ) / (2.0 * eps)
        rel = np.linalg.norm(grad - gfd) / np.linalg.norm(gfd)
        assert rel <= 1e-6

    def test_unvisited_knots_have_exactly_zero_entries(self, builtin_material):
        # Cooling from u0 = 3e9 never raises the boundary enthalpy, so knots
        # whose basis functions live entirely above the visited range receive
        # no contribution at all.
        g = Grid(L=0.05, T=2.0, nx=31, nt=80)
        u0 = np.full(g.nx, 3.0e9)
        spec = ObservationSpec(
            positions=np.array([0.01, 0.03]), times=np.linspace(0.1, 2.0, 20)
        )
        part = np.linspace(0.0, 8.0e9, 10)
        fp_true = pchip.FluxParameter(np.full(20, 1.2e6), part, BETA_MAX)
        clean = observation.observe(
            forward.solve_ibvp(builtin_material, fp_true, u0, g), spec
        )
        meas = observation.add_noise(clean, spec, amplitude=0.0, seed=5)
        fp = pchip.FluxParameter(np.full(20, 1.0e6), part, BETA_MAX)
        _, grad = adjoint.compute_gradient(fp, meas, builtin_material, u0, g)
        assert np.abs(grad[:7]).max() > 0.0
        for half in (grad[:10], grad[10:]):
            assert (half[7:] == 0.0).all()


class TestAdjointField:
    def test_final_level_is_exactly_zero(self, case):
        m, g, u0, spec, meas, fp = case
        _, residual, field = adjoint.objective(fp, meas, m, u0, g)
        src = observation.adjoint_source(residual, spec, g)
        phi = adjoint.solve_adjoint(field, m, fp, src, g)
        assert (phi[-1] == 0.0).all()
        assert phi.shape == (g.nt + 1, g.nx)

    def test_source_shape_is_validated(self, case):
        m, g, u0, spec, meas, fp = case
        field = forward.solve_ibvp(m, fp, u0, g)
        with pytest.raises(ValidationError):
            adjoint.solve_adjoint(field, m, fp, np.zeros((3, 3)), g)

    def test_grid_mismatch_is_rejected(self, case):
        m, g, u0, spec, meas, fp = case
        field = forward.solve_ibvp(m, fp, u0, g)
        other = Grid(L=g.L, T=g.T, nx=g.nx, nt=g.nt + 1)
        with pytest.raises(ValidationError):
            adjoint.solve_adjoint(
                field, m, fp, np.zeros((other.nt + 1, other.nx)), other
            )

    def test_assembly_shapes_are_validated(self, case):
        m, g, u0, spec, meas, fp = case
        field = forward.solve_ibvp(m, fp, u0, g)
        with pytest.raises(ValidationError):
            adjoint.assemble_gradient(np.zeros((2, 2)), field, fp, g)


class TestReport:
    def test_reuse_path_matches_fresh_computation(self, case):
        m, g, u0, spec, meas, fp = case
        f_fresh, grad_fresh = adjoint.compute_gradient(fp, meas, m, u0, g)
        obj, residual, field = adjoint.objective(fp, meas, m, u0, g)
        f_reused, grad_reused = adjoint.compute_gradient(
            fp, meas, m, u0, g, field=field, residual=residual, obj=obj
        )
        assert (grad_fresh == grad_reused).all()
        assert f_fresh == f_reused
