"""Material tables to the diffusivity interpolant over enthalpy."""

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
        alpha = material.build_material(theta, cap, cond)
        # u = C * (theta - theta_ref) exactly for constant capacity, and the
        # equidistant table enthalpies are the diffusivity's own knots
        want = cap[0] * (theta - material.THETA_REF)
        assert np.allclose(alpha.knots, want, rtol=1e-15)
        assert alpha.knots[0] == 0.0

    def test_table_above_reference_is_extended_down(self):
        theta, cap, cond = simple_tables(theta0=400.0)
        alpha = material.build_material(theta, cap, cond)
        # Without the extension the range would end at cap * (800 - 400).
        assert alpha.knots[0] == 0.0
        assert alpha.knots[-1] == pytest.approx(cap[0] * (theta[-1] - material.THETA_REF), rel=1e-12)

    def test_constant_tables_give_constant_diffusivity(self):
        theta, cap, cond = simple_tables()
        alpha = material.build_material(theta, cap, cond)
        us = np.linspace(alpha.knots[0], alpha.knots[-1], 17)
        assert np.allclose(
            pchip.eval(alpha, us, clamp=True)[0], cond[0] / cap[0], rtol=1e-12
        )

    def test_varying_capacity_resamples_to_equidistant_knots(self):
        theta, cap, cond = simple_tables(n=7)
        cap = cap * np.linspace(1.0, 3.0, 7)
        alpha = material.build_material(theta, cap, cond)
        spacing = np.diff(alpha.knots)
        assert np.allclose(spacing, spacing[0], rtol=1e-9)
        # interpolant reproduces k/C at the table's own enthalpy points, the
        # cumulative trapezoid of the capacity
        increments = 0.5 * (cap[1:] + cap[:-1]) * np.diff(theta)
        enthalpy = np.concatenate(([0.0], np.cumsum(increments)))
        got = pchip.eval(alpha, enthalpy, clamp=True)[0]
        assert np.abs(got / (cond / cap) - 1.0).max() < 0.05

    def test_diffusivity_clamps_outside_table(self):
        theta, cap, cond = simple_tables()
        alpha = material.build_material(theta, cap, cond)
        hi = alpha.knots[-1]
        assert (
            pchip.eval(alpha, hi * 1.5, clamp=True)[0]
            == pchip.eval(alpha, hi, clamp=True)[0]
        )


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


class TestBuiltin:
    def test_covers_hot_plate_enthalpy(self, builtin_material):
        assert builtin_material.knots[0] == 0.0
        assert builtin_material.knots[-1] >= 5.5e9

    def test_diffusivity_positive_with_interior_valley(self, builtin_material):
        us = np.linspace(0.0, 5.5e9, 301)
        vals = pchip.eval(builtin_material, us, clamp=True)[0]
        assert (vals > 0.0).all()
        interior = vals[30:-30]
        assert interior.min() < vals[0] and interior.min() < vals[-1]

    def test_cached_instance_is_shared(self):
        assert material.builtin_material() is material.builtin_material()
