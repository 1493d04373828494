"""Adjoint gradient: exactness against the tangent solver and finite differences."""

import gc
import tracemalloc

import numpy as np
import pytest

from heatflux import adjoint, cli, config, forward, observation, pchip
from heatflux.errors import ValidationError
from heatflux.forward import EnthalpyField, Grid, Pivots
from heatflux.observation import ObservationSpec
from test_march_kernels import plain_solve_adjoint


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
    return adjoint.compute_gradient(meas, field, residual)


class TestExactness:
    def test_zero_residual_gives_identically_zero_gradient(self, builtin_material):
        m, g, u0, spec, meas, fp = make_case(builtin_material)
        fp_true = pchip.FluxParameter(
            1.0e6 * (0.6 + 0.3 * np.sin(np.arange(12, dtype=float))), PART, BETA_MAX
        )
        f, residual, field = adjoint.objective(fp_true, meas, m, u0, g)
        grad = adjoint.compute_gradient(meas, field, residual)
        assert f == 0.0
        assert (grad == 0.0).all()
        src = observation.adjoint_source(residual, spec, g)
        phi = np.full_like(field.values, np.nan)
        adjoint.solve_adjoint(field, src, phi)
        assert (phi == 0.0).all()

    def test_directional_duality_with_tangent_solver(self, case):
        # <grad, h> must equal sum(residual * observe(W_h)) to rounding: the
        # adjoint march and assembly are built as the exact transpose of the
        # tangent march.
        m, g, u0, spec, meas, fp = case
        _, residual, field = adjoint.objective(fp, meas, m, u0, g)
        grad = adjoint.compute_gradient(meas, field, residual)
        rng = np.random.default_rng(17)
        for _ in range(5):
            h = rng.standard_normal(12)
            W = adjoint.solve_sensitivity(field, h)
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


def default_box_point(corner: bool) -> pchip.FluxParameter:
    """A point of the default inversion's box: PQN's zero start, or the
    steep-flank corner, each flux beta_max on its last knot and 0 on every
    other one."""
    cfg = config.ExperimentConfig()
    part = config.inversion_partition(cfg)
    beta = np.zeros((2, part.size))
    beta[:, -1] = cfg.beta_max if corner else 0.0
    return pchip.FluxParameter(beta.ravel(), part, cfg.beta_max)


def dense_rows(source, g):
    """The point sources as the dense (nt+1) x nx rows the plain adjoint
    takes: each level's contributions added in list order to a zero row,
    as the march adds them."""
    start, node, value = source
    rows = np.zeros((g.nt + 1, g.nx))
    for s in range(g.nt + 1):
        for k in range(start[s], start[s + 1]):
            rows[s, node[k]] += value[k]
    return rows


def linearize(march, u, case):
    """Along the field u, at the diffusivity and fluxes of its record, the
    adjoint traces of the residual of u against the case's readings, or the
    tangent field in a random direction."""
    _, _, _, spec, meas, fp = case
    if march == "adjoint":
        residual = adjoint.misfit(u, meas)[1]
        return adjoint.solve_adjoint(u, observation.adjoint_source(residual, spec, u.grid))
    h = np.random.default_rng(17).standard_normal(2 * fp.n)
    return adjoint.solve_sensitivity(u, h).values


MARCHES = ["adjoint", "tangent"]


class TestRecordedPivots:
    @pytest.mark.parametrize("corner", [False, True], ids=["zero", "flank"])
    def test_pivots_change_no_bit_of_the_adjoint_or_the_gradient(self, case, corner):
        # The objective's field carries the state march's pivots, on which
        # every adjoint step solves, while the plain adjoint eliminates every
        # step. From the default u0 the corner's walls cool down its flank,
        # where c*beta' reaches 2.5.
        m, g, _, spec, meas, _ = case
        fp = default_box_point(corner)
        u0 = np.full(g.nx, config.ExperimentConfig().u0)
        _, residual, field = adjoint.objective(fp, meas, m, u0, g)
        src = observation.adjoint_source(residual, spec, g)
        phi = np.full_like(field.values, np.nan)
        traces = adjoint.solve_adjoint(field, src, phi)
        want = plain_solve_adjoint(field, m, fp, dense_rows(src, g), g)
        assert phi.tobytes() == want.tobytes()
        assert traces.tobytes() == want[:, [0, -1]].tobytes()
        grad = adjoint.compute_gradient(meas, field, residual)
        assert grad.tobytes() == adjoint.assemble_gradient(want[:, [0, -1]], field).tobytes()

    def test_pivots_are_read_only_with_their_field(self, case):
        m, g, u0, _, _, fp = case
        field = forward.solve_ibvp(m, fp, u0, g, pivots=True)
        assert field.pivots.diffusivity is m and field.pivots.fluxes is fp
        assert field.pivots.rows.shape == (g.nt, g.nx)
        for a in (field.values, field.pivots.rows):
            with pytest.raises(ValueError, match="read-only"):
                a[1, 1] = 0.0
        assert forward.solve_ibvp(m, fp, u0, g).values.flags.writeable

    @pytest.mark.parametrize("march", MARCHES)
    def test_a_field_without_pivots_is_refused(self, case, march):
        m, g, u0, _, _, fp = case
        bare = forward.solve_ibvp(m, fp, u0, g)
        with pytest.raises(ValidationError, match=r"solve_ibvp\(\.\.\., pivots=True\)"):
            linearize(march, bare, case)

    @pytest.mark.parametrize("march", MARCHES)
    def test_the_marches_solve_on_the_pivots_they_are_given(self, case, march):
        # Pivots scaled by 2 change the result: the march reads them.
        m, g, u0, _, _, fp = case
        field = forward.solve_ibvp(m, fp, u0, g, pivots=True)
        stale = EnthalpyField(g, field.values, Pivots(m, fp, 2.0 * field.pivots.rows))
        want = linearize(march, field, case)
        assert linearize(march, stale, case).tobytes() != want.tobytes()

    @pytest.mark.parametrize("march", MARCHES)
    def test_the_marches_linearize_at_the_fluxes_of_the_record(self, case, march):
        # The same values and pivots recorded with other fluxes change the
        # result, and for the adjoint the gradient too: the marches and the
        # assembly read the fluxes from the record.
        m, g, u0, _, meas, fp = case
        field = forward.solve_ibvp(m, fp, u0, g, pivots=True)
        moved = EnthalpyField(g, field.values, field.pivots._replace(
            fluxes=pchip.FluxParameter(1.5 * fp.beta, PART, BETA_MAX)))
        want = linearize(march, field, case)
        assert linearize(march, moved, case).tobytes() != want.tobytes()
        if march == "adjoint":
            residual = adjoint.misfit(field, meas)[1]
            grads = [adjoint.compute_gradient(meas, u, residual).tobytes() for u in (field, moved)]
            assert grads[0] != grads[1]


class TestAdjointField:
    def test_final_level_is_exactly_zero(self, case):
        m, g, u0, spec, meas, fp = case
        _, residual, field = adjoint.objective(fp, meas, m, u0, g)
        src = observation.adjoint_source(residual, spec, g)
        traces = adjoint.solve_adjoint(field, src)
        assert (traces[-1] == 0.0).all()
        assert traces.shape == (g.nt + 1, 2)

    def test_source_shape_is_validated(self, case):
        m, g, u0, spec, meas, fp = case
        with pytest.raises(ValidationError):
            observation.adjoint_source(np.zeros((3, 25)), spec, g)
        field = forward.solve_ibvp(m, fp, u0, g, pivots=True)
        # Two point sources on level 3 and two on the last level, 80.
        start = np.zeros(g.nt + 2, dtype=np.intp)
        start[4:], start[-1] = 2, 4
        good = observation.PointSources(start, np.array([0, 30, 7, 8]), np.ones(4))
        decreasing, overrunning = start.copy(), start.copy()
        decreasing[40], overrunning[-1] = 1, 5
        bad = [
            good._replace(start=start[:-1]),  # one level short
            good._replace(start=start.astype(float)),  # not integers
            good._replace(node=good.node[:3]),  # fewer nodes than values
            good._replace(node=np.array([0, 31, 7, 8])),  # past the last node
            good._replace(node=np.array([-1, 30, 7, 8])),  # before the first node
            good._replace(start=decreasing),
            good._replace(start=overrunning),  # past the end of the list
        ]
        for source in bad:
            with pytest.raises(ValidationError):
                adjoint.solve_adjoint(field, source)
        traces = adjoint.solve_adjoint(field, good)
        assert traces.shape == (g.nt + 1, 2)

    def test_assembly_shapes_are_validated(self, case):
        m, g, u0, spec, meas, fp = case
        field = forward.solve_ibvp(m, fp, u0, g, pivots=True)
        with pytest.raises(ValidationError, match="shape"):
            adjoint.assemble_gradient(np.zeros((2, 2)), field)

    def test_solve_holds_one_level_of_phi(self, builtin_material):
        # On the default inversion grid (91 x 3300) the march computes each
        # step's coefficients just before the step and keeps only the level
        # it solves and the wall traces, so its heap peak is the traces and
        # a few levels of work space, whatever the source: here a dense
        # random source, one point contribution per node of every level.
        cfg = config.ExperimentConfig()
        g = config.inv_grid(cfg)
        fp = config.exact_flux_parameter(cfg)
        field = forward.solve_ibvp(builtin_material, fp, np.full(g.nx, cfg.u0), g, pivots=True)
        dense = np.random.default_rng(4).standard_normal(field.values.shape)
        src = observation.PointSources(
            np.arange(g.nt + 2) * g.nx, np.tile(np.arange(g.nx), g.nt + 1), dense.ravel()
        )
        peak, traces = heap_peak(adjoint.solve_adjoint, field, src)
        assert traces.shape == (g.nt + 1, 2)
        assert peak <= 2 * traces.nbytes

    def test_tangent_march_holds_only_its_field(self, builtin_material):
        # On the default inversion grid (91 x 3300) the march forms each
        # step's wall sources from the direction inside the compiled loop, so
        # its heap peak is the field W it returns and a few levels of work
        # space (1.003x the field); two dense nt x n matrices of wall
        # sensitivities would add 0.45x the field each.
        cfg = config.ExperimentConfig()
        g = config.inv_grid(cfg)
        fp = config.exact_flux_parameter(cfg)
        field = forward.solve_ibvp(builtin_material, fp, np.full(g.nx, cfg.u0), g, pivots=True)
        h = np.random.default_rng(4).standard_normal(2 * fp.n)
        peak, W = heap_peak(adjoint.solve_sensitivity, field, h)
        assert W.values.shape == field.values.shape
        assert peak <= 1.1 * W.values.nbytes

    def test_gradient_holds_no_trajectory_sized_array(self, builtin_material):
        # One gradient on the default twin data at 91 x 3300: the point
        # sources (with the injection tables this first gradient on the spec
        # builds), the adjoint's one solved level and its two wall traces
        # keep the heap peak of the whole chain (source, march, assembly) at
        # about 0.13x the trajectory. A dense source or the whole of phi
        # would add a trajectory each.
        cfg = config.ExperimentConfig()
        _, meas = cli._simulate_measurement(cfg)
        g = config.inv_grid(cfg)
        fp = config.exact_flux_parameter(cfg)
        u0 = np.full(g.nx, cfg.u0)
        _, residual, field = adjoint.objective(fp, meas, builtin_material, u0, g)
        peak, grad = heap_peak(adjoint.compute_gradient, meas, field, residual)
        assert grad.shape == (2 * fp.n,)
        assert peak <= 0.25 * field.values.nbytes

    def test_gradients_on_fresh_specs_keep_no_injection_tables(self, builtin_material):
        # The `twin-short` benchmark size: 5 sensors, 500 samples, 91 x 1100.
        # Each spec keeps its injection tables (about 0.25 MB here) while it
        # lives, and no longer: after 20 gradients on 20 fresh specs, the
        # memory kept is under 1 MiB, where a process-wide cache of the last
        # 16 specs' tables would keep 4 MB.
        cfg = config.ExperimentConfig(T=10.0, inv_nt=1100, sample_interval=0.02)
        g = config.inv_grid(cfg)
        fp = config.exact_flux_parameter(cfg)
        field = forward.solve_ibvp(builtin_material, fp, np.full(g.nx, cfg.u0), g, pivots=True)
        residual = np.random.default_rng(2).standard_normal((5, 500))

        def gradient():
            spec = config.observation_spec(cfg)
            meas = observation.Measurement(np.zeros(residual.shape), spec, 0.0, 0, 0.0)
            return adjoint.compute_gradient(meas, field, residual)

        first = gradient()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                assert gradient().tobytes() == first.tobytes()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20
