"""Semi-implicit state solver: exactness, conservation, linearized march."""

import numpy as np
import pytest

from heatflux import adjoint, forward, pchip
from heatflux.errors import DivergenceError, ValidationError
from heatflux.forward import EnthalpyField, Grid


def constant_flux_parameter(value, u_max=8.0e9, beta_max=None, n=5):
    part = np.linspace(0.0, u_max, n)
    beta_max = beta_max if beta_max is not None else max(2.0 * value, 1.0)
    return pchip.FluxParameter(
        beta=np.full(2 * n, value), partition=part, beta_max=beta_max
    )


def ramp_flux_parameter(top=1.0e6, u_max=8.0e9, n=6):
    part = np.linspace(0.0, u_max, n)
    ramp = np.linspace(0.0, top, n)
    return pchip.FluxParameter(
        beta=np.concatenate([ramp, 0.5 * ramp]), partition=part, beta_max=2.0 * top
    )


class TestGrid:
    def test_spacing_properties(self):
        g = Grid(L=0.05, T=30.0, nx=101, nt=3000)
        assert g.dx == pytest.approx(5e-4)
        assert g.dt == pytest.approx(0.01)
        assert g.dx * (g.nx - 1) == pytest.approx(g.L)
        assert g.dt * g.nt == pytest.approx(g.T)

    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValidationError):
            Grid(L=0.0, T=1.0, nx=5, nt=5)
        with pytest.raises(ValidationError):
            Grid(L=1.0, T=-1.0, nx=5, nt=5)
        with pytest.raises(ValidationError):
            Grid(L=1.0, T=1.0, nx=2, nt=5)
        with pytest.raises(ValidationError):
            Grid(L=1.0, T=1.0, nx=5, nt=0)

    @pytest.mark.parametrize("extent", [np.nan, np.inf])
    def test_rejects_non_finite_extents(self, extent):
        # NaN passed the old `<= 0` check and built a grid with dx = nan.
        with pytest.raises(ValidationError, match="finite"):
            Grid(L=extent, T=1.0, nx=5, nt=5)
        with pytest.raises(ValidationError, match="finite"):
            Grid(L=1.0, T=extent, nx=5, nt=5)

    def test_field_shape_is_validated(self):
        g = Grid(L=1.0, T=1.0, nx=5, nt=4)
        with pytest.raises(ValidationError):
            EnthalpyField(g, np.zeros((3, 5)))


class TestInvariants:
    def test_zero_flux_keeps_constant_state(self, builtin_material):
        g = Grid(L=0.05, T=30.0, nx=21, nt=60)
        fp = constant_flux_parameter(0.0, beta_max=1.0)
        u0 = np.full(g.nx, 5.5e9)
        f = forward.solve_ibvp(builtin_material, fp, u0, g)
        assert np.abs(f.values / 5.5e9 - 1.0).max() <= 1e-10

    def test_zero_flux_conserves_total_enthalpy(self, builtin_material):
        g = Grid(L=0.05, T=10.0, nx=31, nt=50)
        fp = constant_flux_parameter(0.0, beta_max=1.0)
        u0 = 4.0e9 + 1.0e9 * np.sin(np.pi * np.linspace(0.0, g.L, g.nx) / g.L)
        f = forward.solve_ibvp(builtin_material, fp, u0, g)
        e0 = forward.total_enthalpy(f, 0)
        for n in range(1, g.nt + 1):
            assert forward.total_enthalpy(f, n) == pytest.approx(e0, rel=1e-10)

    def test_energy_identity_is_exact_per_step(self, builtin_material):
        g = Grid(L=0.05, T=5.0, nx=41, nt=100)
        fp = ramp_flux_parameter(top=2.0e6)
        b0, bL = pchip.flux_interpolants(fp)
        u0 = np.full(g.nx, 5.0e9)
        f = forward.solve_ibvp(builtin_material, fp, u0, g)
        flux_scale = 2.0e6
        for n in range(g.nt):
            dE = (forward.total_enthalpy(f, n + 1) - forward.total_enthalpy(f, n)) / g.dt
            lagged = (
                pchip.eval(b0, f.values[n, 0], clamp=True)[0]
                + pchip.eval(bL, f.values[n, -1], clamp=True)[0]
            )
            assert abs(dE + lagged) <= 1e-10 * flux_scale

    def test_positive_fluxes_cool_monotonically(self, builtin_material):
        g = Grid(L=0.05, T=5.0, nx=31, nt=60)
        fp = ramp_flux_parameter(top=4.0e6)
        f = forward.solve_ibvp(builtin_material, fp, np.full(g.nx, 5.0e9), g)
        energies = [forward.total_enthalpy(f, n) for n in range(g.nt + 1)]
        assert (np.diff(energies) < 0.0).all()


class TestManufactured:
    def test_quadratic_profile_solved_exactly(self, constant_material):
        # u(t, x) = u* + a g t + (g/2)(x - L/2)^2 satisfies the equation with
        # constant boundary fluxes -a g L/2; every discrete operation in the
        # march (second difference, lagged coefficients, half-cell rows) is
        # exact on it, so the solver should reproduce it to rounding.
        a = 4.0e-6
        gcurv = -1.0e12
        ustar = 5.0e9
        g = Grid(L=0.05, T=2.0, nx=21, nt=40)
        flux = -a * gcurv * g.L / 2.0
        fp = constant_flux_parameter(flux)
        xs = np.linspace(0.0, g.L, g.nx)
        u_exact = lambda t: ustar + a * gcurv * t + 0.5 * gcurv * (xs - g.L / 2) ** 2
        f = forward.solve_ibvp(constant_material, fp, u_exact(0.0), g)
        err = max(
            np.abs(f.values[n] / u_exact(n * g.dt) - 1.0).max() for n in range(g.nt + 1)
        )
        assert err <= 1e-12


class TestSensitivity:
    @pytest.fixture
    def setup(self, builtin_material):
        g = Grid(L=0.05, T=2.0, nx=21, nt=40)
        fp = ramp_flux_parameter(top=1.0e6, n=6)
        u = forward.solve_ibvp(builtin_material, fp, np.full(g.nx, 5.0e9), g)
        return builtin_material, fp, u, g

    def test_zero_direction_gives_zero_field(self, setup):
        m, fp, u, g = setup
        w = adjoint.solve_sensitivity(u, m, fp, np.zeros(2 * fp.n))
        assert np.abs(w.values).max() == 0.0

    def test_linearity_in_direction(self, setup):
        m, fp, u, g = setup
        rng = np.random.default_rng(5)
        h1 = rng.standard_normal(2 * fp.n)
        h2 = rng.standard_normal(2 * fp.n)
        w1 = adjoint.solve_sensitivity(u, m, fp, h1).values
        w2 = adjoint.solve_sensitivity(u, m, fp, h2).values
        w12 = adjoint.solve_sensitivity(u, m, fp, 2.0 * h1 - 3.0 * h2).values
        ref = 2.0 * w1 - 3.0 * w2
        scale = np.abs(ref).max()
        assert np.abs(w12 - ref).max() <= 1e-12 * scale

    def test_matches_state_finite_differences(self, builtin_material):
        # Interior-valued fluxes keep beta +/- eps*h inside the box and away
        # from slope-limiter switching points.
        m = builtin_material
        g = Grid(L=0.05, T=2.0, nx=21, nt=40)
        part = np.linspace(0.0, 8.0e9, 6)
        beta = 1.0e6 * (0.5 + 0.3 * np.sin(np.arange(12, dtype=float)))
        fp = pchip.FluxParameter(beta=beta, partition=part, beta_max=2.0e6)
        u = forward.solve_ibvp(m, fp, np.full(g.nx, 5.0e9), g)
        rng = np.random.default_rng(6)
        h = rng.standard_normal(2 * fp.n)
        w = adjoint.solve_sensitivity(u, m, fp, h).values
        eps = 1.0e-3 * fp.beta_max / np.abs(h).max()
        up = forward.solve_ibvp(
            m,
            pchip.FluxParameter(fp.beta + eps * h, fp.partition, fp.beta_max),
            np.full(g.nx, 5.0e9),
            g,
        ).values
        um = forward.solve_ibvp(
            m,
            pchip.FluxParameter(fp.beta - eps * h, fp.partition, fp.beta_max),
            np.full(g.nx, 5.0e9),
            g,
        ).values
        fd = (up - um) / (2.0 * eps)
        scale = np.abs(fd).max()
        assert np.abs(w - fd).max() <= 1e-4 * scale

    def test_direction_length_is_validated(self, setup):
        m, fp, u, g = setup
        with pytest.raises(ValidationError):
            adjoint.solve_sensitivity(u, m, fp, np.zeros(3))


class TestErrors:
    def test_u0_shape_and_range_validated(self, builtin_material):
        g = Grid(L=0.05, T=1.0, nx=11, nt=5)
        fp = constant_flux_parameter(0.0, beta_max=1.0)
        with pytest.raises(ValidationError):
            forward.solve_ibvp(builtin_material, fp, np.zeros(5), g)
        with pytest.raises(ValidationError):
            forward.solve_ibvp(builtin_material, fp, np.full(g.nx, 9.9e9), g)

    def test_non_finite_u0_rejected(self, builtin_material):
        g = Grid(L=0.05, T=1.0, nx=11, nt=5)
        fp = constant_flux_parameter(0.0, beta_max=1.0)
        for bad in (np.nan, np.inf):
            u0 = np.full(g.nx, 1.0e9)
            u0[4] = bad
            with pytest.raises(ValidationError, match="finite"):
                forward.solve_ibvp(builtin_material, fp, u0, g)

    def test_singular_system_raises_divergence(self, singular_level_case):
        # From u0 = 1, where the diffusivity is -1/4, the first step's matrix
        # is exactly singular.
        g, m, _, fp = singular_level_case
        with pytest.raises(DivergenceError, match="singular step matrix") as exc:
            forward.solve_ibvp(m, fp, np.ones(g.nx), g)
        assert exc.value.step == 1

    def test_total_enthalpy_step_bounds(self, builtin_material):
        g = Grid(L=0.05, T=1.0, nx=11, nt=5)
        fp = constant_flux_parameter(0.0, beta_max=1.0)
        f = forward.solve_ibvp(builtin_material, fp, np.full(g.nx, 1.0e9), g)
        with pytest.raises(ValidationError):
            forward.total_enthalpy(f, g.nt + 1)

