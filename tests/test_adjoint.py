"""Adjoint gradient: exactness against the tangent solver and finite differences."""

import tracemalloc

import numpy as np
import pytest

from heatflux import adjoint, cli, config, forward, observation, pchip
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


def heap_peak(fn, *args):
    """fn(*args) and the peak of the heap it allocated, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1] - before, out
    finally:
        tracemalloc.stop()


def gradient_at(fp, meas, m, u0, g):
    _, residual, field = adjoint.objective(fp, meas, m, u0, g)
    return adjoint.compute_gradient(fp, meas, m, field, residual)


class TestExactness:
    def test_zero_residual_gives_identically_zero_gradient(self, builtin_material):
        m, g, u0, spec, meas, fp = make_case(builtin_material)
        fp_true = pchip.FluxParameter(
            1.0e6 * (0.6 + 0.3 * np.sin(np.arange(12, dtype=float))), PART, BETA_MAX
        )
        f, residual, field = adjoint.objective(fp_true, meas, m, u0, g)
        grad = adjoint.compute_gradient(fp_true, meas, m, field, residual)
        assert f == 0.0
        assert (grad == 0.0).all()
        src = observation.adjoint_source(residual, spec, g)
        for _, _, block in adjoint._adjoint_blocks(field, m, fp_true, src):
            assert (block == 0.0).all()

    def test_directional_duality_with_tangent_solver(self, case):
        # <grad, h> must equal sum(residual * observe(W_h)) to rounding: the
        # adjoint march and assembly are built as the exact transpose of the
        # tangent march.
        m, g, u0, spec, meas, fp = case
        _, residual, field = adjoint.objective(fp, meas, m, u0, g)
        grad = adjoint.compute_gradient(fp, meas, m, field, residual)
        rng = np.random.default_rng(17)
        for _ in range(5):
            h = rng.standard_normal(12)
            W = adjoint.solve_sensitivity(field, m, fp, h)
            pairing = float(np.sum(residual * observation.observe(W, spec)))
            assert float(grad @ h) == pytest.approx(pairing, rel=1e-12)

    def test_matches_objective_finite_differences(self, case):
        m, g, u0, spec, meas, fp = case
        grad = gradient_at(fp, meas, m, u0, g)
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
        grad = gradient_at(fp, meas, builtin_material, u0, g)
        assert np.abs(grad[:7]).max() > 0.0
        for half in (grad[:10], grad[10:]):
            assert (half[7:] == 0.0).all()


class TestAdjointField:
    def test_final_level_is_exactly_zero(self, case):
        m, g, u0, spec, meas, fp = case
        _, residual, field = adjoint.objective(fp, meas, m, u0, g)
        src = observation.adjoint_source(residual, spec, g)
        traces = adjoint.solve_adjoint(field, m, fp, src)
        assert (traces[-1] == 0.0).all()
        assert traces.shape == (g.nt + 1, 2)

    def test_source_shape_is_validated(self, case):
        m, g, u0, spec, meas, fp = case
        with pytest.raises(ValidationError):
            observation.adjoint_source(np.zeros((3, 25)), spec, g)
        field = forward.solve_ibvp(m, fp, u0, g)
        bad = [
            ([3, 4], (3, 31)),  # fewer levels than rows
            ([3, 4], (2, 30)),  # rows one node short
            ([[3, 4]], (2, 31)),  # levels not 1-D
            ([4, 3], (2, 31)),  # descending
            ([3, 3], (2, 31)),  # repeated
            ([-1, 3], (2, 31)),  # before the first level
            ([3, 81], (2, 31)),  # after the last level
            ([3.0, 4.0], (2, 31)),  # not integers
        ]
        for levels, shape in bad:
            with pytest.raises(ValidationError):
                adjoint.solve_adjoint(field, m, fp, (np.array(levels), np.zeros(shape)))
        traces = adjoint.solve_adjoint(field, m, fp, (np.array([0, 80]), np.ones((2, 31))))
        assert traces.shape == (g.nt + 1, 2)

    def test_assembly_shapes_are_validated(self, case):
        m, g, u0, spec, meas, fp = case
        field = forward.solve_ibvp(m, fp, u0, g)
        with pytest.raises(ValidationError):
            adjoint.assemble_gradient(np.zeros((2, 2)), field, fp)

    def test_solve_holds_one_block_of_coefficients(self, builtin_material):
        # On the default inversion grid (91 x 3300) the march streams its
        # frozen coefficients through the trajectory a block of levels at a
        # time, so its heap peak stays within 3x the trajectory; a pass over
        # the whole trajectory at once holds about ten trajectory-sized
        # arrays.
        cfg = config.ExperimentConfig()
        g = config.inv_grid(cfg)
        fp = config.exact_flux_parameter(cfg)
        field = forward.solve_ibvp(builtin_material, fp, np.full(g.nx, cfg.u0), g)
        src = (np.arange(g.nt + 1), np.random.default_rng(4).standard_normal(field.values.shape))
        peak, traces = heap_peak(adjoint.solve_adjoint, field, builtin_material, fp, src)
        assert traces.shape == (g.nt + 1, 2)
        assert peak <= 3 * field.values.nbytes

    def test_gradient_holds_no_trajectory_sized_array(self, builtin_material):
        # One gradient on the default twin data at 91 x 3300: the sparse
        # source, the adjoint's one block of levels and its two wall traces
        # keep the heap peak of the whole chain (source, march, assembly)
        # near the march's block working set, about 1.7x the trajectory. A
        # dense source and a returned phi add two trajectories (3.5x).
        cfg = config.ExperimentConfig()
        _, meas = cli._simulate_measurement(cfg)
        g = config.inv_grid(cfg)
        fp = config.exact_flux_parameter(cfg)
        u0 = np.full(g.nx, cfg.u0)
        _, residual, field = adjoint.objective(fp, meas, builtin_material, u0, g)
        peak, grad = heap_peak(
            adjoint.compute_gradient, fp, meas, builtin_material, field, residual
        )
        assert grad.shape == (2 * fp.n,)
        assert peak <= 2.5 * field.values.nbytes
