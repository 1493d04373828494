"""Temperature/enthalpy transform and diffusivity interpolation."""

import numpy as np
import pytest

from heatflux import material, pchip
from heatflux.errors import ValidationError


def simple_tables(n=5, theta0=material.THETA_REF, dtheta=100.0, cap=2.0e6, cond=20.0):
    theta = theta0 + dtheta * np.arange(n)
    return theta, np.full(n, cap), np.full(n, cond)


class TestBuild:
    def test_constant_capacity_enthalpy_is_linear(self):
        theta, cap, cond = simple_tables()
        m = material.build_material(theta, cap, cond)
        # u = C * (theta - theta_ref) exactly for constant capacity
        want = cap[0] * (theta - material.THETA_REF)
        assert np.allclose(m.enthalpy_table, want, rtol=1e-15)

    def test_round_trip_temperature_enthalpy(self):
        theta, cap, cond = simple_tables(n=7)
        cap = cap * np.linspace(1.0, 2.0, 7)  # non-constant capacity
        m = material.build_material(theta, cap, cond)
        th = np.linspace(theta[0], theta[-1], 23)
        back = material.temperature_from_enthalpy(m, material.enthalpy_from_temperature(m, th))
        assert np.allclose(back, th, rtol=1e-12)

    def test_table_above_reference_is_extended_down(self):
        theta, cap, cond = simple_tables(theta0=400.0)
        m = material.build_material(theta, cap, cond)
        assert m.theta_table[0] == material.THETA_REF
        assert m.enthalpy_table[0] == 0.0
        assert material.enthalpy_from_temperature(m, 400.0) == pytest.approx(
            cap[0] * (400.0 - material.THETA_REF), rel=1e-12
        )

    def test_constant_tables_give_constant_diffusivity(self):
        theta, cap, cond = simple_tables()
        m = material.build_material(theta, cap, cond)
        us = np.linspace(*m.u_range, 17)
        assert np.allclose(material.diffusivity_at(m, us), cond[0] / cap[0], rtol=1e-12)

    def test_varying_capacity_resamples_to_equidistant_knots(self):
        theta, cap, cond = simple_tables(n=7)
        cap = cap * np.linspace(1.0, 3.0, 7)
        m = material.build_material(theta, cap, cond)
        spacing = np.diff(m.diffusivity.knots)
        assert np.allclose(spacing, spacing[0], rtol=1e-9)
        # interpolant reproduces k/C at the table's own enthalpy points
        got = material.diffusivity_at(m, m.enthalpy_table)
        assert np.abs(got / (cond / cap) - 1.0).max() < 0.05

    def test_diffusivity_clamps_outside_table(self):
        theta, cap, cond = simple_tables()
        m = material.build_material(theta, cap, cond)
        lo, hi = m.u_range
        assert material.diffusivity_at(m, hi * 1.5) == material.diffusivity_at(m, hi)


class TestValidation:
    def test_rejects_short_or_mismatched_tables(self):
        with pytest.raises(ValidationError):
            material.build_material([300.0, 400.0], [1e6, 1e6], [20.0, 20.0])
        with pytest.raises(ValidationError):
            material.build_material([300.0, 400.0, 500.0], [1e6, 1e6], [20.0] * 3)

    def test_rejects_non_increasing_temperature(self):
        theta, cap, cond = simple_tables()
        theta = theta.copy()
        theta[2] = theta[1]
        with pytest.raises(ValidationError):
            material.build_material(theta, cap, cond)

    def test_rejects_nonpositive_coefficients(self):
        theta, cap, cond = simple_tables()
        with pytest.raises(ValidationError):
            material.build_material(theta, 0.0 * cap, cond)
        with pytest.raises(ValidationError):
            material.build_material(theta, cap, -cond)

    def test_rejects_below_reference_start(self):
        theta, cap, cond = simple_tables(theta0=100.0)
        with pytest.raises(ValidationError):
            material.build_material(theta, cap, cond)

    def test_temperature_queries_outside_table_raise(self):
        theta, cap, cond = simple_tables()
        m = material.build_material(theta, cap, cond)
        with pytest.raises(ValidationError):
            material.enthalpy_from_temperature(m, theta[-1] + 50.0)
        with pytest.raises(ValidationError):
            material.temperature_from_enthalpy(m, -1.0e6)


class TestBuiltin:
    def test_covers_hot_plate_enthalpy(self, builtin_material):
        lo, hi = builtin_material.u_range
        assert lo == 0.0
        assert hi >= 5.5e9

    def test_hot_plate_temperature_is_physical(self, builtin_material):
        th = material.temperature_from_enthalpy(builtin_material, 5.5e9)
        assert 1500.0 < th < 2000.0

    def test_diffusivity_positive_with_interior_valley(self, builtin_material):
        us = np.linspace(0.0, 5.5e9, 301)
        vals = material.diffusivity_at(builtin_material, us)
        assert (vals > 0.0).all()
        interior = vals[30:-30]
        assert interior.min() < vals[0] and interior.min() < vals[-1]

    def test_cached_instance_is_shared(self):
        assert material.builtin_material() is material.builtin_material()


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        theta, cap, cond = simple_tables(n=6)
        cond = cond + np.linspace(0.0, 5.0, 6)
        m = material.build_material(theta, cap, cond)
        path = tmp_path / "mat.csv"
        path.write_text(material.render_material_csv(m))
        q = material.load_material(path)
        assert np.array_equal(m.theta_table, q.theta_table)
        assert np.array_equal(m.enthalpy_table, q.enthalpy_table)
        us = np.linspace(*m.u_range, 50)
        assert np.array_equal(
            material.diffusivity_at(m, us), material.diffusivity_at(q, us)
        )

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            material.load_material(path)
