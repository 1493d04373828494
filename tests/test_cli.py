"""End-to-end CLI behavior on small twin configurations."""

import json

import numpy as np
import pytest

from heatflux import adjoint, cli, config as config_mod, forward, material
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
        table = write_csv("steel.csv", material.MATERIAL_CSV_HEADER, zip(theta, cap, cond))
        readings = {}
        for source in ("builtin", table):
            run_dir = tmp_path / f"run{len(readings)}"
            run_dir.mkdir()
            cfg_path, out_dir = write_config(run_dir, extra=f"material.source = {source}\n")
            assert main(["simulate", "--config", str(cfg_path)]) == 0
            readings[source] = [(out_dir / n).read_bytes() for n in ("clean.csv", "noisy.csv")]
        assert readings["builtin"] == readings[table]

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
        noisy, _ = __import__("heatflux.observation", fromlist=["x"]).parse_measurement_csv(
            (out_dir / "noisy.csv").read_text()
        )
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
    def test_bad_landweber_damping_exits_2_before_any_solve(self, tmp_path, monkeypatch):
        # Formerly `compare` ran the whole PQN solve before Landweber refused
        # the damping.
        calls = []
        solve_ibvp = forward.solve_ibvp

        def counted(*args):
            calls.append(1)
            return solve_ibvp(*args)

        for module in (forward, cli, adjoint):
            monkeypatch.setattr(module, "solve_ibvp", counted)
        cfg_path, _ = write_config(tmp_path, extra="optimizer.landweber_damping = -1\n")
        assert main(["compare", "--config", str(cfg_path)]) == 2
        assert calls == []


class TestGradcheck:
    def test_report_passes_on_small_config(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        assert main(["gradcheck", "--config", str(cfg_path)]) == 0
        report = json.loads((out_dir / "gradcheck.json").read_text())
        assert report["passed"] is True
        assert report["rel_l2_error"] <= 1e-2
        assert report["max_directional_error"] <= 1e-2
        assert len(report["directional_errors"]) == 5

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
        state = OptimizerState(beta=np.zeros(2), inv_hessian=np.eye(2), beta_max=1.0)
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
            beta=np.array([0.25, 1.0]), inv_hessian=np.eye(2), beta_max=1.0
        )
        state.iteration = 4
        state.stop_reason = "discrepancy"
        payload = json.loads(cli._state_json(state, param_scale=8.0))
        assert payload["beta"] == [2.0, 8.0]
        assert payload["k_star"] == 4
        assert payload["stop_reason"] == "discrepancy"


class TestParser:
    def test_missing_subcommand_is_an_error(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_all_subcommands_share_flags(self):
        parser = cli.build_parser()
        for name in ("simulate", "invert", "gradcheck", "compare"):
            args = parser.parse_args([name, "--config", "x.cfg", "--seed", "3"])
            assert args.command == name and args.seed == 3
