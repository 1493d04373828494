"""Sensor sampling, noise bookkeeping and the sampling/injection transpose
pair."""

import gc
import weakref

import numpy as np
import pytest

from heatflux import observation
from heatflux.errors import ValidationError
from heatflux.forward import EnthalpyField, Grid
from heatflux.observation import Measurement, ObservationSpec


def bilinear_field(g, a=2.0e9, b=3.0e10, c=-4.0e7, d=5.0e8):
    ts = np.linspace(0.0, g.T, g.nt + 1)[:, None]
    xs = np.linspace(0.0, g.L, g.nx)[None, :]
    return EnthalpyField(g, a + b * xs + c * ts + d * xs * ts), (a, b, c, d)


def plain_observe(f, spec):
    """The samples sensor by sensor, in time and then in space, on weights
    computed afresh: the reference for the broadcast `observe` and the
    weights it caches."""
    ix, wx, it, wt = observation._weights.__wrapped__(spec, f.grid)
    U = f.values
    out = np.empty((spec.d, spec.m))
    for j in range(spec.d):
        i, a = ix[j], wx[j]
        col0 = (1.0 - wt) * U[it, i] + wt * U[it + 1, i]
        col1 = (1.0 - wt) * U[it, i + 1] + wt * U[it + 1, i + 1]
        out[j] = (1.0 - a) * col0 + a * col1
    return out


class TestObserve:
    def test_matches_the_sensor_loop_bitwise(self):
        # Random fields over many orders of magnitude, sensors in the first
        # and last space cells, two in one cell, and samples at t = T and
        # inside the first time cell.
        g = Grid(L=0.05, T=3.0, nx=23, nt=17)
        rng = np.random.default_rng(17)
        specs = [
            ObservationSpec(positions=np.array([0.0041, 0.0173, 0.018, 0.0487, 0.0499]),
                            times=np.array([0.05, 0.56, 0.62, 1.371, 2.95, 3.0])),
            ObservationSpec(positions=rng.uniform(1e-4, 0.0499, 9),
                            times=np.sort(rng.uniform(1e-3, 3.0, 40))),
        ]
        for spec in specs:
            for _ in range(10):
                U = rng.standard_normal((g.nt + 1, g.nx)) * 10.0 ** rng.integers(-8, 10, g.nx)
                f = EnthalpyField(g, U)
                got = observation.observe(f, spec)
                assert got.shape == (spec.d, spec.m)
                assert got.tobytes() == plain_observe(f, spec).tobytes()
            # Fields that are not C-contiguous: Fortran order and a strided view.
            U = rng.standard_normal((g.nt + 1, 2 * g.nx))
            for values in (np.asfortranarray(U[:, : g.nx]), U[:, ::2]):
                f = EnthalpyField(g, values)
                assert not f.values.flags.c_contiguous
                assert observation.observe(f, spec).tobytes() == plain_observe(f, spec).tobytes()

    def test_weights_are_computed_once_per_spec_and_grid(self):
        g = Grid(L=0.05, T=3.0, nx=23, nt=17)
        spec = ObservationSpec(positions=np.array([0.0041, 0.0318]), times=np.array([0.5, 3.0]))
        first = observation._weights(spec, g)
        assert observation._weights(spec, Grid(L=0.05, T=3.0, nx=23, nt=17)) is first
        assert observation._weights(spec, Grid(L=0.05, T=3.0, nx=23, nt=18)) is not first
        twin = ObservationSpec(positions=spec.positions, times=spec.times)
        assert observation._weights(twin, g) is not first
        for got, want in zip(first, observation._weights.__wrapped__(spec, g)):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
        kept = []
        for fn in (observation._injection, observation._gather):
            tables = fn(spec, g)
            assert fn(spec, Grid(L=0.05, T=3.0, nx=23, nt=17)) is tables
            assert fn(spec, Grid(L=0.05, T=3.0, nx=23, nt=18)) is not tables
            assert fn(twin, g) is not tables
            for got, want in zip(tables, fn.__wrapped__(spec, g)):
                assert got.tobytes() == want.tobytes() and not got.flags.writeable
            kept += [weakref.ref(t) for t in tables]
        # Nothing derived from a spec outlives it.
        del spec, first, tables, got
        gc.collect()
        assert [r for r in kept if r() is not None] == []

    def test_exact_on_bilinear_fields(self):
        g = Grid(L=0.05, T=3.0, nx=23, nt=17)
        f, (a, b, c, d) = bilinear_field(g)
        spec = ObservationSpec(
            positions=np.array([0.004, 0.0173, 0.031, 0.0449]),
            times=np.array([0.21, 0.8, 1.37, 2.456, 3.0]),
        )
        got = observation.observe(f, spec)
        expect = (
            a
            + b * spec.positions[:, None]
            + c * spec.times[None, :]
            + d * spec.positions[:, None] * spec.times[None, :]
        )
        assert np.abs(got / expect - 1.0).max() <= 1e-12

    def test_grid_nodes_sampled_exactly(self):
        g = Grid(L=1.0, T=2.0, nx=5, nt=4)
        rng = np.random.default_rng(11)
        f = EnthalpyField(g, rng.uniform(1.0, 2.0, size=(g.nt + 1, g.nx)))
        spec = ObservationSpec(
            positions=np.array([0.25, 0.5, 0.75]),
            times=np.array([0.5, 1.0, 1.5, 2.0]),
        )
        got = observation.observe(f, spec)
        expect = f.values[np.ix_([1, 2, 3, 4], [1, 2, 3])].T
        assert (got == expect).all()

    def test_final_time_uses_last_level(self):
        # t = T falls past the last cell; the sample must still read U[nt].
        g = Grid(L=1.0, T=2.0, nx=5, nt=4)
        f, _ = bilinear_field(g, a=1.0, b=0.0, c=1.0, d=0.0)
        spec = ObservationSpec(positions=np.array([0.5]), times=np.array([2.0]))
        assert observation.observe(f, spec)[0, 0] == 3.0

    def test_positions_must_be_interior(self):
        g = Grid(L=1.0, T=1.0, nx=5, nt=4)
        f, _ = bilinear_field(g)
        for pos in (0.0, 1.0, -0.1, 1.1):
            spec = ObservationSpec(
                positions=np.array([pos]), times=np.array([0.5])
            )
            with pytest.raises(ValidationError):
                observation.observe(f, spec)

    def test_times_must_lie_in_horizon(self):
        g = Grid(L=1.0, T=1.0, nx=5, nt=4)
        f, _ = bilinear_field(g)
        for t in (0.0, -0.5, 1.5):
            spec = ObservationSpec(positions=np.array([0.5]), times=np.array([t]))
            with pytest.raises(ValidationError):
                observation.observe(f, spec)


class TestSpecValidation:
    def test_arrays_are_read_only_copies(self):
        positions, times = np.array([0.25, 0.5]), np.array([1.0, 2.0])
        spec = ObservationSpec(positions=positions, times=times)
        positions[0] = times[0] = 0.75
        assert spec.positions.tolist() == [0.25, 0.5] and spec.times.tolist() == [1.0, 2.0]
        for a in (spec.positions, spec.times):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValidationError):
            ObservationSpec(
                positions=np.array([0.5]), times=np.array([1.0, 1.0, 2.0])
            )

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValidationError):
            ObservationSpec(positions=np.array([]), times=np.array([1.0]))
        with pytest.raises(ValidationError):
            ObservationSpec(positions=np.array([np.nan]), times=np.array([1.0]))

    def test_measurement_shape_checked(self):
        spec = ObservationSpec(
            positions=np.array([0.1, 0.2]), times=np.array([1.0, 2.0, 3.0])
        )
        with pytest.raises(ValidationError):
            Measurement(np.zeros((3, 2)), spec, delta=0.0, seed=0, amplitude=0.0)
        with pytest.raises(ValidationError):
            Measurement(np.zeros((2, 3)), spec, delta=-1.0, seed=0, amplitude=0.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, delta):
        # A NaN delta never fires the discrepancy test; an infinite one fires
        # it at the start point.
        spec = ObservationSpec(positions=np.array([0.1]), times=np.array([1.0]))
        with pytest.raises(ValidationError, match="delta"):
            Measurement(np.zeros((1, 1)), spec, delta=delta, seed=0, amplitude=0.0)


class TestNoise:
    @pytest.fixture
    def clean(self):
        rng = np.random.default_rng(3)
        spec = ObservationSpec(
            positions=np.array([0.01, 0.02, 0.03]),
            times=np.linspace(0.5, 10.0, 40),
        )
        return rng.uniform(1.0e9, 5.0e9, size=(spec.d, spec.m)), spec

    def test_seeded_noise_is_reproducible(self, clean):
        data, spec = clean
        m1 = observation.add_noise(data, spec, amplitude=2.0e6, seed=7)
        m2 = observation.add_noise(data, spec, amplitude=2.0e6, seed=7)
        assert (m1.data == m2.data).all() and m1.delta == m2.delta
        m3 = observation.add_noise(data, spec, amplitude=2.0e6, seed=8)
        assert not (m1.data == m3.data).all()

    def test_noise_stays_within_amplitude(self, clean):
        data, spec = clean
        m = observation.add_noise(data, spec, amplitude=2.0e6, seed=7)
        assert np.abs(m.data - data).max() <= 2.0e6

    def test_recorded_level_matches_definition(self, clean):
        # delta is the smallest level with 0.5*||clean-noisy||^2 <= delta*||noisy||^2.
        data, spec = clean
        m = observation.add_noise(data, spec, amplitude=2.0e6, seed=7)
        diff_sq = float(np.sum((data - m.data) ** 2))
        assert m.delta == diff_sq / (2.0 * float(np.sum(m.data**2)))
        assert 0.5 * diff_sq <= m.delta * float(np.sum(m.data**2))

    def test_zero_amplitude_is_exact(self, clean):
        data, spec = clean
        m = observation.add_noise(data, spec, amplitude=0.0, seed=7)
        assert (m.data == data).all() and m.delta == 0.0

    def test_negative_amplitude_rejected(self, clean):
        data, spec = clean
        with pytest.raises(ValidationError):
            observation.add_noise(data, spec, amplitude=-1.0, seed=7)

    @pytest.mark.parametrize("amplitude", [1e160, 1e308])
    def test_overflowing_amplitude_is_named(self, clean, amplitude):
        # 1e160 overflows the squared norms and was blamed on delta; 1e308
        # overflows the noise range, an OverflowError from the generator.
        data, spec = clean
        with pytest.raises(ValidationError, match="amplitude"):
            observation.add_noise(data, spec, amplitude=amplitude, seed=7)


def dense_adjoint_source(residual, spec, g):
    """The whole (nt+1) x nx source, summed sensor by sensor, weight term by
    weight term, sample time by sample time, on weights computed afresh: the
    reference for the sparse rows `adjoint_source` returns."""
    ix, wx, it, wt = observation._weights.__wrapped__(spec, g)
    S = np.zeros((g.nt + 1, g.nx))
    scale = 1.0 / (g.dx * g.dt)
    for j in range(spec.d):
        i, a = ix[j], wx[j]
        v = residual[j] * scale
        np.add.at(S, (it, np.full(spec.m, i)), (1.0 - wt) * (1.0 - a) * v)
        np.add.at(S, (it, np.full(spec.m, i + 1)), (1.0 - wt) * a * v)
        np.add.at(S, (it + 1, np.full(spec.m, i)), wt * (1.0 - a) * v)
        np.add.at(S, (it + 1, np.full(spec.m, i + 1)), wt * a * v)
    return S


def source_levels(src):
    """The level of each point contribution of `src`."""
    return np.repeat(np.arange(src.start.size - 1), np.diff(src.start))


class TestDuality:
    def test_injection_is_exact_transpose_of_sampling(self):
        g = Grid(L=0.05, T=3.0, nx=23, nt=17)
        spec = ObservationSpec(
            positions=np.array([0.0041, 0.0173, 0.0318, 0.0449]),
            times=np.array([0.217, 0.83, 1.371, 2.456, 3.0]),
        )
        rng = np.random.default_rng(21)
        for _ in range(10):
            w = rng.standard_normal((g.nt + 1, g.nx))
            v = rng.standard_normal((spec.d, spec.m))
            lhs = float(np.sum(observation.observe(EnthalpyField(g, w), spec) * v))
            src = observation.adjoint_source(v, spec, g)
            rhs = float(np.sum(w[source_levels(src), src.node] * src.value) * g.dx * g.dt)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize(
        "positions, times",
        [
            # A sample at t = T (the last cell at weight 1), one before dt
            # (level 0), a sensor in the last space cell (a wall column the
            # march doubles).
            ([0.0041, 0.0318, 0.0487], [0.05, 0.83, 1.371, 3.0]),
            # Two sensors in one space cell, and samples a third of dt and
            # one dt apart, so that several contributions share an entry and
            # their order of summation decides its last bit.
            (
                [0.0173, 0.018, 0.0449, 0.0499],
                [0.5, 0.56, 0.62, 0.5 + 3.0 / 17, 0.5 + 6.0 / 17, 2.95, 3.0],
            ),
            # A sample one dt after the other, on every level.
            ([0.0031, 0.025], list(np.linspace(3.0 / 17, 3.0, 17))),
        ],
        ids=["edges", "shared-entries", "every-level"],
    )
    def test_sparse_rows_are_the_dense_source_bitwise(self, positions, times):
        # Each level's contributions summed into a zero row in list order, as
        # the adjoint march sums them, give the dense source's rows.
        g = Grid(L=0.05, T=3.0, nx=23, nt=17)
        spec = ObservationSpec(positions=np.array(positions), times=np.array(times))
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = rng.standard_normal((spec.d, spec.m)) * 10.0 ** rng.integers(-8, 8, spec.m)
            src = observation.adjoint_source(v, spec, g)
            assert src.start.shape == (g.nt + 2,) and src.start[0] == 0
            assert (np.diff(src.start) >= 0).all() and src.start[-1] == 4 * spec.d * spec.m
            assert src.node.dtype == src.start.dtype == np.intp
            rows = np.zeros((g.nt + 1, g.nx))
            np.add.at(rows, (source_levels(src), src.node), src.value)
            assert rows.tobytes() == dense_adjoint_source(v, spec, g).tobytes()

    def test_source_shape_checked(self):
        g = Grid(L=1.0, T=1.0, nx=5, nt=4)
        spec = ObservationSpec(positions=np.array([0.5]), times=np.array([0.5]))
        with pytest.raises(ValidationError):
            observation.adjoint_source(np.zeros((2, 2)), spec, g)
        # The sample sits on node 2 at level 2, where its weights are 1.
        src = observation.adjoint_source(np.ones((1, 1)), spec, g)
        assert src.start.tolist() == [0, 0, 0, 2, 4, 4]
        assert src.node.tolist() == [2, 3, 2, 3]
        assert src.value.tolist() == [1.0 / (g.dx * g.dt), 0.0, 0.0, 0.0]
