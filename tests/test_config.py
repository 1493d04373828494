"""Config parsing, derived experiment objects, builtin flux profiles, and the
flux and material tables the config reads."""

from pathlib import Path

import numpy as np
import pytest

from heatflux import config as config_mod, material, pchip
from heatflux.config import ExperimentConfig, parse_config_text
from heatflux.errors import ValidationError
from pchip_rows import grad_wrt_values_many


class TestParsing:
    def test_defaults_describe_reference_twin(self):
        cfg = ExperimentConfig()
        assert (cfg.L, cfg.T) == (0.05, 30.0)
        assert (cfg.sim_nx, cfg.sim_nt) == (101, 3000)
        assert cfg.inv_nx != cfg.sim_nx and cfg.inv_nt != cfg.sim_nt
        assert cfg.u0 == 5.5e9 and cfg.u_max == 5.5e9
        assert cfg.n == 20 and cfg.beta_max == 16e6
        assert len(cfg.sensor_positions) == 5
        assert cfg.sample_interval == 0.1 and cfg.noise_amplitude == 2e6
        assert cfg.method == "pqn" and cfg.rho == 2.0

    def test_readme_block_is_the_defaults_with_every_key(self):
        # README's `ini` block must keep up with the keys and defaults.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0] for line in block.splitlines()]
        keys = [line.split("=")[0].strip() for line in lines if "=" in line]
        assert sorted(keys) == sorted(config_mod._KEYMAP)
        assert parse_config_text(block) == ExperimentConfig(output_dir="out")

    def test_every_key_parses(self):
        text = """
            domain.L = 0.04
            domain.T = 12.0
            grids.sim.nx = 51
            grids.sim.nt = 600
            grids.inv.nx = 41
            grids.inv.nt = 480
            material.source = tables/steel.csv
            initial.u0 = 5.0e9
            partition.n = 12
            partition.u_max = 5.4e9
            box.beta_max = 1.5e7
            sensors.positions = 0.005, 0.02 0.035
            sensors.sample_interval = 0.25
            noise.amplitude = 1e6
            noise.seed = 42
            optimizer.method = landweber
            optimizer.rho = 1.5
            optimizer.max_iter = 99
            optimizer.landweber_damping = 0.25
            optimizer.landweber_max_iter = 77
            fluxes.source = csv
            fluxes.beta0_csv = b0.csv
            fluxes.betaL_csv = bL.csv
            output.dir = results
            data.dir = measured
        """
        keys = [line.split("=")[0].strip() for line in text.strip().splitlines()]
        assert sorted(keys) == sorted(config_mod._KEYMAP)
        assert parse_config_text(text) == ExperimentConfig(
            L=0.04, T=12.0, sim_nx=51, sim_nt=600, inv_nx=41, inv_nt=480,
            material_source="tables/steel.csv", u0=5.0e9, n=12, u_max=5.4e9,
            beta_max=1.5e7, sensor_positions=(0.005, 0.02, 0.035),
            sample_interval=0.25, noise_amplitude=1e6, seed=42, method="landweber",
            rho=1.5, max_iter=99, landweber_damping=0.25, landweber_max_iter=77,
            flux_source="csv", flux_beta0_csv="b0.csv", flux_betaL_csv="bL.csv",
            output_dir="results", data_dir="measured",
        )
        cfg = parse_config_text("fluxes.beta0_csv = None\ndata.dir = none\n")
        assert cfg.flux_beta0_csv is None and cfg.data_dir is None

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# header\n\nnoise.seed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_a_key_given_twice_takes_its_last_value(self):
        # `tests/test_cli.py` appends lines to a config that sets the same
        # keys; a bad value is reported even where a later line overrides it.
        assert parse_config_text("noise.seed = 3\nnoise.seed = 5\n").seed == 5
        with pytest.raises(ValidationError, match="line 1"):
            parse_config_text("noise.seed = seven\nnoise.seed = 5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config_text("grids.sim.resolution = 50\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_config_text("noise.seed = seven\n")

    def test_missing_equals_sign_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("noise.seed 7\n")

    def test_damping_auto_maps_to_none(self):
        assert parse_config_text("optimizer.landweber_damping = auto\n").landweber_damping is None
        assert parse_config_text("optimizer.landweber_damping = 0.5\n").landweber_damping == 0.5

    def test_positions_accept_commas_or_spaces(self):
        a = parse_config_text("sensors.positions = 0.01, 0.02, 0.03\n")
        b = parse_config_text("sensors.positions = 0.01 0.02 0.03\n")
        assert a.sensor_positions == b.sensor_positions == (0.01, 0.02, 0.03)


class TestValidation:
    def test_rho_must_exceed_one(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(rho=1.0)

    def test_partition_needs_three_knots(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n=2)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(method="newton")

    def test_sensors_must_be_interior(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(sensor_positions=(0.0, 0.01))
        with pytest.raises(ValidationError):
            ExperimentConfig(sensor_positions=(0.06,))

    def test_sample_interval_within_horizon(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(sample_interval=31.0)

    @pytest.mark.parametrize("T, interval", [(1.0, 0.6), (30.0, 0.7)])
    def test_sample_interval_must_divide_horizon(self, T, interval):
        # observation_spec would sample at a spacing of T / round(T / interval)
        # (0.4 and 0.6976 here), not at the configured interval.
        with pytest.raises(ValidationError, match="divide"):
            ExperimentConfig(T=T, sample_interval=interval)

    @pytest.mark.parametrize(
        "T, interval", [(30.0, 0.1), (10.0, 0.02), (6.0, 0.2), (12.0, 0.25), (4.0, 0.2)]
    )
    def test_dividing_sample_intervals_are_kept(self, T, interval):
        spec = config_mod.observation_spec(ExperimentConfig(T=T, sample_interval=interval))
        assert spec.times[-1] == T
        assert np.abs(np.diff(spec.times) - interval).max() <= 1e-9 * T

    @pytest.mark.parametrize("damping", [-1.0, 0.0])
    def test_landweber_damping_must_be_positive(self, damping):
        with pytest.raises(ValidationError, match="damping"):
            ExperimentConfig(landweber_damping=damping)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(noise_amplitude=-1.0)

    def test_negative_seed_rejected(self):
        # Formerly accepted, then a ValueError traceback from the noise
        # generator after the forward solve.
        with pytest.raises(ValidationError, match="seed"):
            parse_config_text("noise.seed = -1\n")
        with pytest.raises(ValidationError, match="seed"):
            config_mod.with_overrides(ExperimentConfig(), seed=-1)
        assert ExperimentConfig(seed=0).seed == 0

    @pytest.mark.parametrize(
        "line",
        [
            "initial.u0 = nan",
            "domain.T = inf",
            "optimizer.rho = nan",
            "box.beta_max = -inf",
            "sensors.positions = 0.01, nan",
            "optimizer.landweber_damping = nan",
        ],
    )
    def test_non_finite_values_rejected(self, line):
        # NaN passes every ordering check, so each would otherwise slip through.
        with pytest.raises(ValidationError, match="must be finite"):
            parse_config_text(line + "\n")


class TestDerivedObjects:
    def test_observation_times_cover_horizon(self):
        spec = config_mod.observation_spec(ExperimentConfig())
        assert spec.m == 300
        assert spec.times[0] == pytest.approx(0.1)
        assert spec.times[-1] == pytest.approx(30.0)
        assert spec.d == 5

    def test_partition_spans_enthalpy_range(self):
        part = config_mod.inversion_partition(ExperimentConfig())
        assert part.size == 20
        assert part[0] == 0.0 and part[-1] == 5.5e9
        assert np.allclose(np.diff(part), part[1] - part[0])

    def test_grids_from_config(self):
        cfg = ExperimentConfig()
        sim = config_mod.sim_grid(cfg)
        inv = config_mod.inv_grid(cfg)
        assert (sim.nx, sim.nt) == (cfg.sim_nx, cfg.sim_nt)
        assert (inv.nx, inv.nt) == (cfg.inv_nx, cfg.inv_nt)
        assert sim.L == inv.L and sim.T == inv.T

    def test_overrides_skip_none(self):
        cfg = ExperimentConfig()
        assert config_mod.with_overrides(cfg, seed=None) is cfg
        assert config_mod.with_overrides(cfg, seed=9).seed == 9


class TestBuiltinProfiles:
    def test_vanish_at_zero_and_stay_in_box(self):
        cfg = ExperimentConfig()
        b0, bL = config_mod.leidenfrost_profiles(cfg.u_max, cfg.beta_max)
        dense = np.linspace(0.0, cfg.u_max, 4001)
        for p in (b0, bL):
            assert pchip.eval(p, 0.0)[0] == 0.0
            vals = pchip.eval(p, dense)[0]
            assert vals.min() >= 0.0
            assert vals.max() <= cfg.beta_max

    def test_peak_rises_above_high_enthalpy_plateau(self):
        cfg = ExperimentConfig()
        b0, bL = config_mod.leidenfrost_profiles(cfg.u_max, cfg.beta_max)
        dense = np.linspace(0.0, cfg.u_max, 4001)
        for p in (b0, bL):
            vals = pchip.eval(p, dense)[0]
            peak_at = dense[np.argmax(vals)]
            assert 0.1 * cfg.u_max < peak_at < 0.6 * cfg.u_max
            assert vals.max() > 2.0 * pchip.eval(p, cfg.u_max)[0]

    def test_distinct_faces_and_own_partition(self):
        cfg = ExperimentConfig()
        b0, bL = config_mod.leidenfrost_profiles(cfg.u_max, cfg.beta_max)
        assert b0.n == bL.n == 41
        assert b0.n != config_mod.inversion_partition(cfg).size
        assert not np.array_equal(b0.values, bL.values)

    def test_exact_flux_parameter_wraps_profiles(self):
        cfg = ExperimentConfig()
        fp = config_mod.exact_flux_parameter(cfg)
        assert fp.beta.size == 82
        assert fp.partition[0] == 0.0 and fp.partition[-1] == cfg.u_max
        assert fp.beta_max == cfg.beta_max

    def test_flux_source_none_yields_no_parameter(self):
        cfg = ExperimentConfig(flux_source="none")
        assert config_mod.exact_flux_parameter(cfg) is None

    def test_csv_flux_source_roundtrip(self, write_csv):
        cfg = ExperimentConfig()
        b0, bL = config_mod.leidenfrost_profiles(cfg.u_max, cfg.beta_max)
        p0, pL = (
            write_csv(name, config_mod.FLUX_CSV_HEADER, zip(p.knots, p.values, p.slopes))
            for name, p in (("beta0.csv", b0), ("betaL.csv", bL))
        )
        cfg_csv = ExperimentConfig(
            flux_source="csv", flux_beta0_csv=str(p0), flux_betaL_csv=str(pL)
        )
        fp = config_mod.exact_flux_parameter(cfg_csv)
        assert np.allclose(fp.beta[:41], b0.values, rtol=0, atol=0)

    def test_csv_fluxes_must_share_partition(self, write_csv):
        cfg = ExperimentConfig()
        b0, _ = config_mod.leidenfrost_profiles(cfg.u_max, cfg.beta_max)
        other = pchip.Pchip(
            np.linspace(0.0, cfg.u_max, 21), np.zeros(21)
        )
        p0, pL = (
            write_csv(name, config_mod.FLUX_CSV_HEADER, zip(p.knots, p.values, p.slopes))
            for name, p in (("beta0.csv", b0), ("betaL.csv", other))
        )
        cfg_csv = ExperimentConfig(
            flux_source="csv", flux_beta0_csv=str(p0), flux_betaL_csv=str(pL)
        )
        with pytest.raises(ValidationError, match="share"):
            config_mod.exact_flux_parameter(cfg_csv)

    def test_csv_source_requires_both_paths(self):
        with pytest.raises(ValidationError):
            config_mod.exact_flux_parameter(ExperimentConfig(flux_source="csv"))


class TestTables:
    """Both input tables go through `read_table`; a short or long row is
    reported as such, not as a non-numeric cell."""

    def test_flux_row_of_wrong_length_is_reported(self, tmp_path):
        path = tmp_path / "beta0.csv"
        path.write_text("knot,value,slope\n0.0,1.0,0.0\n1.0,2.0\n2.0,3.0,0.0\n")
        cfg = ExperimentConfig(
            flux_source="csv", flux_beta0_csv=str(path), flux_betaL_csv=str(path)
        )
        with pytest.raises(ValidationError, match="row 3 has 2 cells, not 3"):
            config_mod.exact_flux_parameter(cfg)

    def test_material_row_of_wrong_length_is_reported(self, tmp_path):
        path = tmp_path / "steel.csv"
        path.write_text(
            "theta,capacity,conductivity\n273.15,3.8e6,30.0\n\n"
            "373.15,3.8e6,30.0,1.0\n473.15,3.8e6,30.0\n"
        )
        cfg = ExperimentConfig(material_source=str(path))
        with pytest.raises(ValidationError, match="row 4 has 4 cells, not 3"):
            config_mod.load_configured_material(cfg)


class TestFluxTables:
    """Flux tables as the config reads them (`fluxes.source = csv`)."""

    @staticmethod
    def load(path) -> pchip.Pchip:
        """The interpolant configured from the flux table at `path`."""
        cfg = ExperimentConfig(
            flux_source="csv", flux_beta0_csv=str(path), flux_betaL_csv=str(path)
        )
        return pchip.flux_interpolants(config_mod.exact_flux_parameter(cfg))[0]

    def test_save_load_round_trip(self, write_csv):
        p = pchip.Pchip(np.linspace(0.0, 2.0, 5), [0.0, 1.0, 0.5, 2.0, 2.0])
        path = write_csv("p.csv", config_mod.FLUX_CSV_HEADER, zip(p.knots, p.values, p.slopes))
        q = self.load(path)
        assert np.array_equal(p.knots, q.knots)
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.slopes, q.slopes)

    def test_loaded_interpolant_is_the_built_one(self, write_csv):
        # The slope column is not read: slopes that disagree with the values
        # would make the value sensitivities differentiate another interpolant.
        knots = np.linspace(0.0, 2.0, 5)
        values = np.array([0.0, 1.0, 0.5, 2.0, 2.0])
        path = write_csv(
            "zero_slopes.csv", config_mod.FLUX_CSV_HEADER, zip(knots, values, np.zeros(5))
        )
        q = self.load(path)
        p = pchip.Pchip(knots, values)
        assert np.array_equal(q.slopes, p.slopes)
        xs = np.linspace(0.0, 2.0, 41)
        vq, dq = pchip.eval(q, xs)
        vp, dp = pchip.eval(p, xs)
        assert np.array_equal(vq, vp) and np.array_equal(dq, dp)
        G = grad_wrt_values_many(q, xs)
        assert np.abs(G @ values - vq).max() / np.abs(values).max() <= 1e-13

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError):
            self.load(path)

    def test_load_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("knot,value,slope\n0.0,x,0.0\n")
        with pytest.raises(ValidationError):
            self.load(path)


class TestMaterialTables:
    """Material tables as the config reads them (`material.source = PATH`)."""

    @staticmethod
    def load(path) -> pchip.Pchip:
        return config_mod.load_configured_material(ExperimentConfig(material_source=str(path)))

    def test_save_load_round_trip(self, write_csv):
        theta = material.THETA_REF + 100.0 * np.arange(6)
        cap, cond = np.full(6, 2.0e6), np.full(6, 20.0)
        cond = cond + np.linspace(0.0, 5.0, 6)
        m = material.build_material(theta, cap, cond)
        path = write_csv("mat.csv", config_mod.MATERIAL_CSV_HEADER, zip(theta, cap, cond))
        q = self.load(path)
        assert np.array_equal(m.knots, q.knots)
        assert np.array_equal(m.values, q.values)

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            self.load(path)
