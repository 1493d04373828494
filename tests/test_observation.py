"""Sensor sampling, noise bookkeeping, and the sampling/injection transpose pair."""

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


class TestObserve:
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


def dense_adjoint_source(residual, spec, g):
    """The whole (nt+1) x nx source, summed sensor by sensor, weight term by
    weight term, sample time by sample time: the reference for the sparse
    rows `adjoint_source` returns."""
    ix, wx, it, wt = observation._weights(spec, g)
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
            levels, rows = observation.adjoint_source(v, spec, g)
            rhs = float(np.sum(w[levels] * rows) * g.dx * g.dt)
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
        g = Grid(L=0.05, T=3.0, nx=23, nt=17)
        spec = ObservationSpec(positions=np.array(positions), times=np.array(times))
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = rng.standard_normal((spec.d, spec.m)) * 10.0 ** rng.integers(-8, 8, spec.m)
            levels, rows = observation.adjoint_source(v, spec, g)
            dense = dense_adjoint_source(v, spec, g)
            assert levels.dtype.kind == "i" and (np.diff(levels) > 0).all()
            assert rows.tobytes() == dense[levels].tobytes()
            others = np.setdiff1d(np.arange(g.nt + 1), levels)
            assert not dense[others].any()

    def test_source_shape_checked(self):
        g = Grid(L=1.0, T=1.0, nx=5, nt=4)
        spec = ObservationSpec(positions=np.array([0.5]), times=np.array([0.5]))
        with pytest.raises(ValidationError):
            observation.adjoint_source(np.zeros((2, 2)), spec, g)
        levels, rows = observation.adjoint_source(np.ones((1, 1)), spec, g)
        assert levels.tolist() == [2, 3] and rows.shape == (2, g.nx)


class TestSerialization:
    def test_csv_roundtrip_is_exact(self):
        spec = ObservationSpec(
            positions=np.array([0.002, 0.01, 0.025]),
            times=np.linspace(0.1, 30.0, 7),
        )
        rng = np.random.default_rng(5)
        data = rng.uniform(1.0e9, 5.0e9, size=(spec.d, spec.m))
        text = observation.render_measurement_csv(data, spec)
        back, spec2 = observation.parse_measurement_csv(text)
        assert (back == data).all()
        assert (spec2.positions == spec.positions).all()
        assert (spec2.times == spec.times).all()

    def test_parse_rejects_malformed_csv(self):
        with pytest.raises(ValidationError):
            observation.parse_measurement_csv("just-one-cell\n")
        with pytest.raises(ValidationError):
            observation.parse_measurement_csv(",1.0,2.0\n0.1,alpha,3.0\n")
        with pytest.raises(ValidationError):
            observation.parse_measurement_csv(",1.0,2.0\n0.1,1.0\n")

    def test_measurement_files_roundtrip(self, tmp_path):
        spec = ObservationSpec(
            positions=np.array([0.002, 0.01]), times=np.linspace(0.1, 5.0, 9)
        )
        rng = np.random.default_rng(9)
        clean = rng.uniform(1.0e9, 5.0e9, size=(spec.d, spec.m))
        meas = observation.add_noise(clean, spec, amplitude=1.0e6, seed=13)
        csv_path = tmp_path / "measurements.csv"
        meta_path = tmp_path / "measurements.meta.json"
        csv_path.write_text(observation.render_measurement_csv(meas.data, spec))
        meta_path.write_text(observation.render_measurement_meta(meas))
        back, meta = observation.load_measurement(csv_path, meta_path)
        assert (back.data == meas.data).all()
        assert back.delta == meas.delta
        assert back.seed == meas.seed and back.amplitude == meas.amplitude
        assert meta == {"delta": meas.delta, "seed": 13, "amplitude": 1.0e6}

    @pytest.mark.parametrize(
        "meta",
        [
            '{"delta": NaN, "seed": 1, "amplitude": 0.0}',
            '{"delta": Infinity, "seed": 1, "amplitude": 0.0}',
            '{"delta": 0.1, "seed": 1, "amp',
            '{"delta": "abc", "seed": 1, "amplitude": 0.0}',
            '[0.1, 1, 0.0]',
        ],
        ids=["nan", "infinity", "truncated", "text", "list"],
    )
    def test_malformed_meta_is_a_validation_error(self, tmp_path, meta):
        spec = ObservationSpec(positions=np.array([0.002]), times=np.array([1.0]))
        csv_path = tmp_path / "m.csv"
        meta_path = tmp_path / "m.meta.json"
        csv_path.write_text(observation.render_measurement_csv(np.array([[1.0]]), spec))
        meta_path.write_text(meta + "\n")
        with pytest.raises(ValidationError):
            observation.load_measurement(csv_path, meta_path)

    def test_meta_missing_key_is_reported(self, tmp_path):
        spec = ObservationSpec(positions=np.array([0.002]), times=np.array([1.0]))
        csv_path = tmp_path / "m.csv"
        meta_path = tmp_path / "m.meta.json"
        csv_path.write_text(
            observation.render_measurement_csv(np.array([[1.0]]), spec)
        )
        meta_path.write_text('{"delta": 0.0, "seed": 1}\n')
        with pytest.raises(ValidationError):
            observation.load_measurement(csv_path, meta_path)
