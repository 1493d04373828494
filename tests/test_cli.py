"""End-to-end CLI behavior on small twin configurations, and the measurement
files `simulate` writes and `invert` reads."""

import functools
import json

import numpy as np
import pytest

from heatflux import (
    adjoint, cli, config as config_mod, forward, marchlib, material, observation, pchip,
)
from heatflux.config import ExperimentConfig
from heatflux.errors import ValidationError
from heatflux.observation import Measurement, ObservationSpec
from heatflux.optimizer import OptimizerState
from heatflux.cli import _directional_error, _iterations_to_levels, gradient_check, main


SMALL = """
domain.T = 4.0
grids.sim.nx = 41
grids.sim.nt = 400
grids.inv.nx = 31
grids.inv.nt = 240
partition.n = 8
sensors.positions = 0.01, 0.025, 0.04
sensors.sample_interval = 0.2
optimizer.max_iter = 12
"""


def write_config(tmp_path, name="exp.cfg", extra=""):
    path = tmp_path / name
    out_dir = tmp_path / "out"
    path.write_text(SMALL + f"output.dir = {out_dir}\n" + extra)
    return path, out_dir


@pytest.fixture
def solves(monkeypatch):
    """Forward solves made through any module that calls `solve_ibvp`."""
    calls = []
    solve_ibvp = forward.solve_ibvp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_ibvp(*args, **kwargs)

    for module in (forward, cli, adjoint):
        monkeypatch.setattr(module, "solve_ibvp", counted)
    return calls


class TestSimulate:
    def test_writes_measurement_files(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert (out_dir / "clean.csv").exists()
        assert (out_dir / "noisy.csv").exists()
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["seed"] == 7 and meta["amplitude"] == 2e6
        assert meta["sim_nx"] == 41 and meta["sim_nt"] == 400
        assert meta["delta"] > 0.0

    def test_zero_amplitude_means_clean_equals_noisy(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path, extra="noise.amplitude = 0.0\n")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert (out_dir / "clean.csv").read_text() == (out_dir / "noisy.csv").read_text()
        assert json.loads((out_dir / "meta.json").read_text())["delta"] == 0.0

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        main(["simulate", "--config", str(cfg_path)])
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        main(["simulate", "--config", str(cfg_path)])
        second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert first == second

    def test_seed_override_changes_noise_only(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        main(["simulate", "--config", str(cfg_path)])
        noisy7 = (out_dir / "noisy.csv").read_text()
        clean7 = (out_dir / "clean.csv").read_text()
        main(["simulate", "--config", str(cfg_path), "--seed", "9"])
        assert (out_dir / "noisy.csv").read_text() != noisy7
        assert (out_dir / "clean.csv").read_text() == clean7
        assert json.loads((out_dir / "meta.json").read_text())["seed"] == 9

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("grids.sim.resolution = 10\n")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_fluxes_none_cannot_simulate(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, extra="fluxes.source = none\n")
        assert main(["simulate", "--config", str(cfg_path)]) == 2

    def test_sample_interval_not_dividing_horizon_exits_2(self, tmp_path):
        # T = 4 with 0.3 would have sampled every 4/13 s instead.
        cfg_path, out_dir = write_config(tmp_path, extra="sensors.sample_interval = 0.3\n")
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert not (out_dir / "noisy.csv").exists()

    def test_csv_material_matches_builtin(self, tmp_path, write_csv):
        # The builtin tables written out with the expressions of
        # `material.builtin_material` must give the same readings, bytewise.
        theta = material.THETA_REF + 50.0 * np.arange(31)
        cap = np.full(theta.shape, 3.8e6)
        cond = (
            34.0
            - 10.0 * np.exp(-(((theta - 1100.0) / 140.0) ** 2))
            + 6.0 * np.exp(-(((theta - material.THETA_REF) / 250.0) ** 2))
        )
        table = write_csv("steel.csv", config_mod.MATERIAL_CSV_HEADER, zip(theta, cap, cond))
        readings = {}
        for source in ("builtin", table):
            run_dir = tmp_path / f"run{len(readings)}"
            run_dir.mkdir()
            cfg_path, out_dir = write_config(run_dir, extra=f"material.source = {source}\n")
            assert main(["simulate", "--config", str(cfg_path)]) == 0
            readings[source] = [(out_dir / n).read_bytes() for n in ("clean.csv", "noisy.csv")]
        assert readings["builtin"] == readings[table]

    @pytest.mark.parametrize(
        "extra, flags", [("noise.seed = -1\n", []), ("", ["--seed", "-1"])], ids=["config", "flag"]
    )
    def test_negative_seed_exits_2_before_any_solve(self, tmp_path, solves, extra, flags):
        # Formerly a ValueError traceback (exit 1) from the noise generator,
        # after the forward solve.
        cfg_path, out_dir = write_config(tmp_path, extra=extra)
        assert main(["simulate", "--config", str(cfg_path), *flags]) == 2
        assert solves == []
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "line", ["initial.u0 = nan", "domain.T = inf", "optimizer.rho = nan"]
    )
    def test_non_finite_config_value_exits_2(self, tmp_path, line):
        # Formerly a ValueError, an OverflowError (both exit 1) and, for rho,
        # an accepted config whose discrepancy stop could never fire.
        cfg_path, out_dir = write_config(tmp_path, extra=line + "\n")
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert not (out_dir / "noisy.csv").exists()


class TestInvert:
    @pytest.fixture
    def simulated(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        return cfg_path, out_dir

    def test_writes_all_outputs(self, simulated):
        cfg_path, out_dir = simulated
        assert main(["invert", "--config", str(cfg_path)]) == 0
        beta = json.loads((out_dir / "beta.json").read_text())
        assert len(beta["beta"]) == 16
        assert all(0.0 <= v <= 16e6 for v in beta["beta"])
        assert beta["stop_reason"] in ("discrepancy", "max_iter")
        assert beta["k_star"] <= 12

        conv = (out_dir / "convergence.csv").read_text().splitlines()
        assert conv[0] == "k,f,normalized_f,lambda,active_count"
        assert len(conv) == 2 + beta["k_star"]

        fluxes = (out_dir / "fluxes.csv").read_text().splitlines()
        assert fluxes[0] == "u,beta0,betaL"
        assert len(fluxes) == 502
        assert (out_dir / "plotdata" / "residual_curve.csv").exists()
        assert (out_dir / "plotdata" / "flux_comparison.csv").exists()

    def test_convergence_f_is_normalized_times_data_norm(self, simulated):
        cfg_path, out_dir = simulated
        main(["invert", "--config", str(cfg_path)])
        noisy = cli._read_measurement(out_dir)[0].data
        norm_y = float(np.sum(noisy**2))
        rows = (out_dir / "convergence.csv").read_text().splitlines()[1:]
        for row in rows:
            _, f, nf, _, _ = row.split(",")
            assert float(f) == pytest.approx(float(nf) * norm_y, rel=1e-12)

    def test_inverse_crime_guard(self, tmp_path):
        cfg_path, out_dir = write_config(
            tmp_path, extra="grids.inv.nx = 41\ngrids.inv.nt = 240\n"
        )
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["invert", "--config", str(cfg_path)]) == 2
        assert not (out_dir / "beta.json").exists()
        assert (
            main(["invert", "--config", str(cfg_path), "--allow-inverse-crime"]) == 0
        )
        assert (out_dir / "beta.json").exists()

    def test_exact_table_short_of_u_max_is_held_at_its_last_value(self, tmp_path, write_csv):
        # Tables on [0, 4e9] under u_max = 5.5e9: the march holds each flux
        # at its last knot's value, and so does the comparison file. `invert`
        # used to write its outputs and then exit 2 on the unclamped samples.
        cfg = ExperimentConfig()
        knots = np.linspace(0.0, 4e9, 11)
        lasts, paths = [], []
        for name, p in zip(("b0.csv", "bL.csv"),
                           config_mod.leidenfrost_profiles(cfg.u_max, cfg.beta_max)):
            values = pchip.eval(p, knots)[0]
            lasts.append(values[-1])
            paths.append(write_csv(name, config_mod.FLUX_CSV_HEADER,
                                   zip(knots, values, np.zeros(knots.size))))
        cfg_path, out_dir = write_config(
            tmp_path, extra="fluxes.source = csv\nfluxes.beta0_csv = {}\n"
                            "fluxes.betaL_csv = {}\n".format(*paths),
        )
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["invert", "--config", str(cfg_path)]) == 0
        _, table = config_mod.read_table(out_dir / "plotdata" / "flux_comparison.csv")
        past = table[:, 0] > 4e9
        assert past.any()
        assert (table[past, 2] == lasts[0]).all() and (table[past, 4] == lasts[1]).all()

    def test_missing_exact_table_exits_2_before_any_output(self, simulated, tmp_path, solves):
        # It used to exit 2 only after the whole inversion had written its files.
        cfg_path, out_dir = simulated
        missing = tmp_path / "missing.csv"
        cfg_path.write_text(cfg_path.read_text() + f"fluxes.source = csv\n"
                            f"fluxes.beta0_csv = {missing}\nfluxes.betaL_csv = {missing}\n")
        before = sorted(out_dir.rglob("*"))
        solves.clear()
        assert main(["invert", "--config", str(cfg_path)]) == 2
        assert sorted(out_dir.rglob("*")) == before
        assert solves == []

    def test_partial_grid_record_still_guards_the_recorded_resolution(self, tmp_path):
        # A record without sim_nt used to skip the check altogether, and
        # `invert` exited 0 on the data's own nx.
        cfg_path, out_dir = write_config(tmp_path, extra="grids.inv.nx = 41\n")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        meta = out_dir / "meta.json"
        record = json.loads(meta.read_text())
        assert record["sim_nx"] == 41
        del record["sim_nt"]
        meta.write_text(json.dumps(record))
        assert main(["invert", "--config", str(cfg_path)]) == 2
        assert not (out_dir / "beta.json").exists()

    def test_missing_measurements_exit_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["invert", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace('"delta": ', '"delta": NaN, "was": '),
            lambda text: text.replace('"delta": ', '"delta": Infinity, "was": '),
            lambda text: text[: len(text) // 2],
            lambda text: text.replace('"delta": ', '"delta": "abc", "was": '),
        ],
        ids=["nan", "infinity", "truncated", "text"],
    )
    def test_bad_noise_record_exits_2(self, simulated, edit):
        # NaN and Infinity used to exit 0 (NaN never stops by discrepancy,
        # Infinity stops at the start point); the others raised a traceback.
        cfg_path, out_dir = simulated
        meta = out_dir / "meta.json"
        meta.write_text(edit(meta.read_text()))
        assert main(["invert", "--config", str(cfg_path)]) == 2
        assert not (out_dir / "beta.json").exists()

    @pytest.mark.parametrize("reading", ["0.0", "1e160"], ids=["zero", "overflowing"])
    def test_readings_without_a_finite_positive_norm_exit_2(self, simulated, reading):
        # Every reading 0 used to end in a ZeroDivisionError traceback (exit
        # 1); every reading 1e160 overflowed the squared norm the objective
        # is divided by, and `invert` exited 0 at the start point.
        cfg_path, out_dir = simulated
        noisy = out_dir / "noisy.csv"
        head, *rows = noisy.read_text().splitlines()
        rows = [row.split(",", 1)[0] + f",{reading}" * row.count(",") for row in rows]
        noisy.write_text("\n".join([head, *rows]) + "\n")
        assert main(["invert", "--config", str(cfg_path)]) == 2
        assert not (out_dir / "beta.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("sim_nx", "41"), ("sim_nt", "400"), ("sim_nx", 41.0), ("sim_nt", True),
         ("sim_nx", None)],
        ids=["nx-text", "nt-text", "nx-float", "nt-bool", "nx-null"],
    )
    def test_bad_grid_record_exits_2(self, simulated, key, value):
        # A text grid record used to exit 0: the inverse-crime check compared
        # 41 with "41" and skipped the refusal. An absent record is allowed.
        cfg_path, out_dir = simulated
        meta = out_dir / "meta.json"
        record = json.loads(meta.read_text())
        record[key] = value
        meta.write_text(json.dumps(record))
        assert main(["invert", "--config", str(cfg_path)]) == 2
        assert not (out_dir / "beta.json").exists()

    def test_noisy_row_of_wrong_length_exits_2(self, simulated):
        # Formerly reported as a non-numeric cell.
        cfg_path, out_dir = simulated
        noisy = out_dir / "noisy.csv"
        lines = noisy.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        noisy.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="row 3 has 20 cells, not 21"):
            cli._read_measurement(out_dir)
        assert main(["invert", "--config", str(cfg_path)]) == 2
        assert not (out_dir / "beta.json").exists()

    def test_landweber_method_writes_outputs(self, simulated):
        cfg_path, out_dir = simulated
        extra_cfg = cfg_path.read_text() + (
            "optimizer.method = landweber\noptimizer.landweber_max_iter = 15\n"
        )
        lw_path = cfg_path.with_name("lw.cfg")
        lw_path.write_text(extra_cfg)
        assert main(["invert", "--config", str(lw_path)]) == 0
        beta = json.loads((out_dir / "beta.json").read_text())
        assert beta["k_star"] <= 15

    def test_data_dir_redirects_input(self, simulated, tmp_path):
        cfg_path, out_dir = simulated
        inv_out = tmp_path / "inv_out"
        moved = cfg_path.read_text() + f"data.dir = {out_dir}\noutput.dir = {inv_out}\n"
        # later keys override earlier ones, so appending works
        redirected = cfg_path.with_name("redir.cfg")
        redirected.write_text(moved)
        assert main(["invert", "--config", str(redirected)]) == 0
        assert (inv_out / "beta.json").exists()

    def test_stale_temporary_name_does_not_block_outputs(self, simulated):
        # A directory squatting on the old fixed temporary name must not
        # stop the atomic writes.
        cfg_path, out_dir = simulated
        (out_dir / "beta.json.tmp").mkdir()
        assert main(["invert", "--config", str(cfg_path)]) == 0
        assert json.loads((out_dir / "beta.json").read_text())["k_star"] <= 12
        assert not [p for p in out_dir.iterdir() if p.name.endswith(".tmp") and p.is_file()]

    def test_determinism_across_runs(self, simulated, tmp_path):
        cfg_path, out_dir = simulated
        main(["invert", "--config", str(cfg_path)])
        first = (out_dir / "beta.json").read_bytes()
        first_conv = (out_dir / "convergence.csv").read_bytes()
        main(["invert", "--config", str(cfg_path)])
        assert (out_dir / "beta.json").read_bytes() == first
        assert (out_dir / "convergence.csv").read_bytes() == first_conv


class TestCompare:
    # One quasi-Newton step cannot match thirty baseline steps.
    SHORT_PQN = "optimizer.max_iter = 1\noptimizer.landweber_max_iter = 30\n"

    def test_bad_landweber_damping_exits_2_before_any_solve(self, tmp_path, solves):
        # Formerly `compare` ran the whole PQN solve before Landweber refused
        # the damping.
        cfg_path, _ = write_config(tmp_path, extra="optimizer.landweber_damping = -1\n")
        assert main(["compare", "--config", str(cfg_path)]) == 2
        assert solves == []

    def test_pqn_short_of_the_baseline_exits_4(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path, extra=self.SHORT_PQN)
        assert main(["compare", "--config", str(cfg_path)]) == 4
        assert not json.loads((out_dir / "summary.json").read_text())["pqn_superior"]

    def test_table_f_is_normalized_times_data_norm(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path, extra=self.SHORT_PQN)
        main(["compare", "--config", str(cfg_path)])
        _, meas = cli._simulate_measurement(config_mod.load_config(cfg_path))
        norm = float(np.sum(meas.data**2))
        head, *rows = (out_dir / "table.csv").read_text().splitlines()
        assert head == "k,pqn_f,pqn_normalized,landweber_f,landweber_normalized"
        assert len(rows) == 31
        for row in rows:
            _, pf, pn, lf, ln = row.split(",")
            for f, nf in ((pf, pn), (lf, ln)):
                assert (f == nf == "") or float(f) == float(nf) * norm
        assert rows[-1].split(",")[1:3] == ["", ""]

class TestInverseCrime:
    # `compare` and `gradcheck` simulate their data on the config's own
    # simulation grid, so an inversion grid equal to it is the inverse crime.
    CRIME = "grids.inv.nx = 41\ngrids.inv.nt = 400\n"

    @pytest.mark.parametrize("command", ["compare", "gradcheck"])
    def test_same_grid_exits_2_before_any_solve(self, tmp_path, solves, command):
        cfg_path, out_dir = write_config(tmp_path, extra=self.CRIME)
        assert main([command, "--config", str(cfg_path)]) == 2
        assert solves == []
        assert not out_dir.exists()

    def test_flag_lets_gradcheck_run(self, tmp_path, solves):
        cfg_path, out_dir = write_config(tmp_path, extra=self.CRIME)
        assert main(["gradcheck", "--config", str(cfg_path), "--allow-inverse-crime"]) == 0
        assert solves
        assert json.loads((out_dir / "gradcheck.json").read_text())["passed"] is True


class TestGradcheck:
    def test_report_passes_on_small_config(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        assert main(["gradcheck", "--config", str(cfg_path)]) == 0
        report = json.loads((out_dir / "gradcheck.json").read_text())
        assert report["passed"] is True
        assert report["differences_all_zero"] is False
        assert report["rel_l2_error"] <= 1e-2
        assert report["max_directional_error"] <= 1e-2
        assert len(report["directional_errors"]) == 5

    def test_vanishing_differences_give_a_finite_strict_report(self, tmp_path):
        # In 1 ms the walls' heat does not reach the sensor, so the central
        # differences are exactly 0; their norm used to divide rel_l2 and the
        # report held Infinity, which is not JSON. The errors are then tiny,
        # but a check that compared nothing fails, and says why.
        path, out_dir = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text(
            "domain.T = 0.001\ngrids.sim.nx = 41\ngrids.sim.nt = 20\n"
            "grids.inv.nx = 31\ngrids.inv.nt = 15\npartition.n = 6\n"
            "sensors.positions = 0.025\nsensors.sample_interval = 0.001\n"
            f"output.dir = {out_dir}\n"
        )
        assert main(["gradcheck", "--config", str(path)]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((out_dir / "gradcheck.json").read_text(), parse_constant=refuse)
        assert np.isfinite(report["rel_l2_error"])
        assert np.isfinite(report["directional_errors"]).all()
        assert report["differences_all_zero"] is True
        assert report["passed"] is False

    def test_corrupted_trace_is_caught(self, tmp_path, monkeypatch):
        cfg_path, _ = write_config(tmp_path)
        cfg = config_mod.load_config(cfg_path)
        solve_adjoint = adjoint.solve_adjoint

        def flipped(*args):
            phi = solve_adjoint(*args).copy()
            phi[:, 0] *= -1.0
            return phi

        monkeypatch.setattr(adjoint, "solve_adjoint", flipped)
        report = gradient_check(cfg)
        assert report["passed"] is False

    def test_only_the_base_point_records_pivots(self, tmp_path, monkeypatch):
        # The differences need only the misfit; pivots serve the one adjoint
        # solve, along the base point's field.
        cfg = config_mod.load_config(write_config(tmp_path)[0])
        calls = []
        solve_ibvp = forward.solve_ibvp

        def recorded(alpha, fp, u0, g, **kwargs):
            calls.append((fp.beta.copy(), kwargs.get("pivots", False)))
            return solve_ibvp(alpha, fp, u0, g, **kwargs)

        for module in (cli, adjoint):
            monkeypatch.setattr(module, "solve_ibvp", recorded)
        gradient_check(cfg)
        dim = 2 * cfg.n
        base = 0.25 * cfg.beta_max * (1.0 + 0.5 * np.sin(np.arange(dim)))
        assert len(calls) == 2 * dim + 12
        recording = [beta for beta, pivots in calls if pivots]
        assert len(recording) == 1 and np.array_equal(recording[0], base)

    def test_directional_error_scale(self):
        rng = np.random.default_rng(0)
        fd = rng.standard_normal(16)
        grad = fd * (1.0 + 1e-4 * rng.standard_normal(16))
        h = rng.standard_normal(16)
        h -= (h @ fd) / (fd @ fd) * fd
        h /= np.linalg.norm(h)
        # Orthogonal to the gradient: dd_fd is ~0, yet a gradient accurate
        # to 1e-4 must pass.
        dd_fd = float(fd @ h)
        assert abs(dd_fd) < 1e-12
        assert _directional_error(float(grad @ h), dd_fd, fd) <= 1e-2
        corrupted = grad.copy()
        corrupted[:8] *= -1.0
        for d in (h, rng.standard_normal(16)):
            d = d / np.linalg.norm(d)
            assert _directional_error(float(corrupted @ d), float(fd @ d), fd) > 1e-2


class TestLevels:
    def test_checkpoints_track_running_minimum(self):
        lw = [100.0] + [100.0 / (k + 1) for k in range(30)]
        pqn = [100.0, 10.0, 1.0, 0.5]
        rows = _iterations_to_levels(np.minimum.accumulate(pqn), np.minimum.accumulate(lw))
        assert [r["landweber_k"] for r in rows] == [10, 20, 30]
        for r in rows:
            assert r["level"] == 100.0 / r["landweber_k"]
            assert r["pqn_k"] is not None and r["pqn_k"] <= 2

    def test_unreached_levels_reported_as_none(self):
        lw = list(np.linspace(100.0, 1.0, 25))
        pqn = [100.0, 50.0]
        rows = _iterations_to_levels(np.minimum.accumulate(pqn), np.minimum.accumulate(lw))
        assert rows[-1]["pqn_k"] is None


class TestRendering:
    def test_convergence_csv_denormalizes_f(self):
        state = OptimizerState(beta=np.zeros(2), inv_hessian=np.eye(2))
        state.residual_history = [0.5, 0.125]
        state.step_history = [1.0]
        state.active_counts = [1]
        rows = cli._convergence_rows(state, data_norm_sq=4.0)
        lines = cli._csv_text(cli.CONVERGENCE_COLUMNS, rows).splitlines()
        assert lines[0] == "k,f,normalized_f,lambda,active_count"
        assert lines[1].split(",") == ["0", "2.0", "0.5", "0.0", "0"]
        assert lines[2].split(",") == ["1", "0.5", "0.125", "1.0", "1"]

    def test_state_json_rescales_beta(self):
        state = OptimizerState(
            beta=np.array([0.25, 1.0, 0.5, 0.0, 0.125, 1.0]), inv_hessian=np.eye(6)
        )
        state.iteration = 4
        state.stop_reason = "discrepancy"
        fluxes = pchip.FluxParameter(8.0 * state.beta, np.linspace(0.0, 1.0, 3), 8.0)
        payload = json.loads(cli._state_json(state, fluxes))
        assert payload["beta"] == [2.0, 8.0, 4.0, 0.0, 1.0, 8.0]
        assert payload["k_star"] == 4
        assert payload["stop_reason"] == "discrepancy"


class TestFailureExitCodes:
    def test_divergent_march_exits_3(self, tmp_path):
        # Fluxes near the float range overflow the first step.
        cfg_path, out_dir = write_config(tmp_path, extra="box.beta_max = 1.7e308\n")
        assert main(["simulate", "--config", str(cfg_path)]) == 3
        assert not (out_dir / "noisy.csv").exists()

    def test_unwritable_output_exits_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(taken)]) == 2
        assert taken.read_text() == "a file, not a directory\n"

    def test_missing_compiler_exits_2(self, tmp_path, monkeypatch):
        # A fresh process with an empty library cache and no compiler.
        cfg_path, out_dir = write_config(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(marchlib, "COMPILE", ("heatflux-no-such-cc", *marchlib.COMPILE[1:]))
        monkeypatch.setattr(marchlib, "_library", functools.cache(marchlib._library.__wrapped__))
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert not (out_dir / "noisy.csv").exists()


    @pytest.mark.parametrize("bad", ["config", "noisy.csv", "material.source", "fluxes.beta0_csv"])
    def test_input_that_is_not_utf8_exits_2(self, tmp_path, write_csv, caplog, bad):
        # One 0xff byte in a file read as text; formerly a UnicodeDecodeError
        # traceback (exit 1).
        extra, command = "", "simulate"
        if bad == "material.source":
            theta = material.THETA_REF + 50.0 * np.arange(31)
            path = write_csv(
                "steel.csv", config_mod.MATERIAL_CSV_HEADER,
                zip(theta, np.full(31, 3.8e6), np.full(31, 34.0)),
            )
            extra = f"material.source = {path}\n"
        elif bad == "fluxes.beta0_csv":
            cfg = ExperimentConfig()
            path, pL = (
                write_csv(name, config_mod.FLUX_CSV_HEADER, zip(p.knots, p.values, p.slopes))
                for name, p in zip(
                    ("b0.csv", "bL.csv"), config_mod.leidenfrost_profiles(cfg.u_max, cfg.beta_max)
                )
            )
            extra = f"fluxes.source = csv\nfluxes.beta0_csv = {path}\nfluxes.betaL_csv = {pL}\n"
        cfg_path, out_dir = write_config(tmp_path, extra=extra)
        if bad == "config":
            path = cfg_path
        elif bad == "noisy.csv":
            assert main(["simulate", "--config", str(cfg_path)]) == 0
            path, command = out_dir / "noisy.csv", "invert"
        path.write_bytes(path.read_bytes() + b"\xff")
        outputs = lambda: sorted(out_dir.rglob("*")) if out_dir.exists() else []
        before = outputs()
        caplog.clear()
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "validation error" in caplog.text
        assert outputs() == before


class TestParser:
    def test_missing_subcommand_is_an_error(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_all_subcommands_share_flags(self):
        parser = cli.build_parser()
        for name in ("simulate", "invert", "gradcheck", "compare"):
            args = parser.parse_args([name, "--config", "x.cfg", "--seed", "3"])
            assert args.command == name and args.seed == 3


class TestMeasurementFiles:
    """The measurement files: `simulate` writes clean.csv, noisy.csv and
    meta.json through the CLI's writers, and `invert` reads noisy.csv and
    meta.json back with `cli._read_measurement`."""

    @staticmethod
    def write(monkeypatch, out_dir, meas, clean=None):
        """Write `meas` (and `clean`, default its own data) as `simulate` does."""
        clean = meas.data if clean is None else clean
        monkeypatch.setattr(cli, "_simulate_measurement", lambda cfg: (clean, meas))
        assert cli.cmd_simulate(ExperimentConfig(), out_dir) == 0

    def test_csv_roundtrip_is_exact(self, tmp_path, monkeypatch):
        spec = ObservationSpec(
            positions=np.array([0.002, 0.01, 0.025]),
            times=np.linspace(0.1, 30.0, 7),
        )
        rng = np.random.default_rng(5)
        data = rng.uniform(1.0e9, 5.0e9, size=(spec.d, spec.m))
        meas = Measurement(data=data, spec=spec, delta=0.0, seed=0, amplitude=0.0)
        self.write(monkeypatch, tmp_path, meas)
        back, _ = cli._read_measurement(tmp_path)
        assert (back.data == data).all()
        assert (back.spec.positions == spec.positions).all()
        assert (back.spec.times == spec.times).all()

    def test_parse_rejects_malformed_csv(self, tmp_path):
        (tmp_path / "meta.json").write_text('{"delta": 0.0, "seed": 1, "amplitude": 0.0}\n')
        for text in ("just-one-cell\n", ",1.0,2.0\n0.1,alpha,3.0\n", ",1.0,2.0\n0.1,1.0\n"):
            (tmp_path / "noisy.csv").write_text(text)
            with pytest.raises(ValidationError):
                cli._read_measurement(tmp_path)

    def test_measurement_files_roundtrip(self, tmp_path, monkeypatch):
        spec = ObservationSpec(
            positions=np.array([0.002, 0.01]), times=np.linspace(0.1, 5.0, 9)
        )
        rng = np.random.default_rng(9)
        clean = rng.uniform(1.0e9, 5.0e9, size=(spec.d, spec.m))
        meas = observation.add_noise(clean, spec, amplitude=1.0e6, seed=13)
        self.write(monkeypatch, tmp_path, meas, clean)
        back, sim = cli._read_measurement(tmp_path)
        assert (back.data == meas.data).all()
        assert back.delta == meas.delta
        assert back.seed == meas.seed and back.amplitude == meas.amplitude
        assert sim == (101, 3000)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta == {
            "delta": meas.delta, "seed": 13, "amplitude": 1.0e6, "sim_nx": 101, "sim_nt": 3000
        }

    @staticmethod
    def one_reading(monkeypatch, out_dir):
        """Write a one-sensor, one-sample measurement as `simulate` does."""
        spec = ObservationSpec(positions=np.array([0.002]), times=np.array([1.0]))
        meas = Measurement(data=np.array([[1.0]]), spec=spec, delta=0.0, seed=1, amplitude=0.0)
        TestMeasurementFiles.write(monkeypatch, out_dir, meas)

    @pytest.mark.parametrize(
        "meta",
        [
            '{"delta": NaN, "seed": 1, "amplitude": 0.0}',
            '{"delta": Infinity, "seed": 1, "amplitude": 0.0}',
            '{"delta": 0.1, "seed": 1, "amp',
            '{"delta": "abc", "seed": 1, "amplitude": 0.0}',
            '[0.1, 1, 0.0]',
            '{"delta": true, "seed": 1, "amplitude": 0.0}',
            '{"delta": "5e-8", "seed": 1, "amplitude": 0.0}',
            '{"delta": 0.0, "seed": 7.5, "amplitude": 0.0}',
            '{"delta": 0.0, "seed": 1, "amplitude": 1' + 400 * '0' + '}',
        ],
        ids=["nan", "infinity", "truncated", "text", "list", "bool", "numeric-text",
             "fractional-seed", "huge-int"],
    )
    def test_malformed_meta_is_a_validation_error(self, tmp_path, monkeypatch, meta):
        self.one_reading(monkeypatch, tmp_path)
        (tmp_path / "meta.json").write_text(meta + "\n")
        with pytest.raises(ValidationError):
            cli._read_measurement(tmp_path)

    def test_meta_missing_key_is_reported(self, tmp_path, monkeypatch):
        self.one_reading(monkeypatch, tmp_path)
        (tmp_path / "meta.json").write_text('{"delta": 0.0, "seed": 1}\n')
        with pytest.raises(ValidationError, match="missing key"):
            cli._read_measurement(tmp_path)
