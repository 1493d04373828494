"""Batch driver for twin experiments.

Subcommands:

* ``simulate``  solve the state equation with the exact fluxes on the
  simulation grid, sample the sensors, add noise, and write the measurement
  files (clean.csv, noisy.csv, meta.json).
* ``invert``    run the configured optimizer against measurement files on
  the (coarser) inversion grid and write the recovered fluxes plus
  convergence data.
* ``gradcheck`` compare the adjoint gradient against central finite
  differences on the configured grids and write a pass/fail report.
* ``compare``   run the quasi-Newton solver and the Landweber baseline on
  identical data and write both residual curves plus a summary.

Exit codes: 0 success, 2 invalid configuration or inputs, a failed build of
the march library or an I/O error, 3 solver divergence, 4 optimizer
failure. Verbosity comes from the ``HEATFLUX_LOG`` environment variable
(DEBUG, INFO, ...). All files are written atomically (write then rename)
and contain no timestamps, so repeated runs with the same seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import logging
import os
import sys
import uuid
from pathlib import Path

import numpy as np

from . import adjoint, config as config_mod, observation, optimizer, pchip
from .config import ExperimentConfig
from .errors import BuildError, DivergenceError, OptimizerError, ValidationError
from .forward import solve_ibvp

log = logging.getLogger("heatflux")


def _atomic_write(path: Path, text: str) -> None:
    """Write a uniquely named file beside `path`, then rename it into place:
    concurrent runs never collide and readers never see a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(value) -> str:
    return repr(float(value))


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


CONVERGENCE_COLUMNS = ["k", "f", "normalized_f", "lambda", "active_count"]


def _convergence_rows(state: optimizer.OptimizerState, data_norm_sq: float) -> list:
    """Per-iteration rows under `CONVERGENCE_COLUMNS`.

    Solver histories hold normalized misfits (see `make_pde_problem`);
    `data_norm_sq` multiplies them back to raw residuals for the f column.
    """
    steps = [0.0] + state.step_history
    actives = [0] + state.active_counts
    return [
        (k, _fmt(f * data_norm_sq), _fmt(f), _fmt(steps[k]), actives[k])
        for k, f in enumerate(state.residual_history)
    ]


def _state_json(state: optimizer.OptimizerState, fluxes: pchip.FluxParameter) -> str:
    """`beta.json`: the flux values of the final iterate, `fluxes`, its
    iteration count and stop reason."""
    return _json_text(
        {
            "beta": [float(v) for v in fluxes.beta],
            "k_star": int(state.iteration),
            "stop_reason": state.stop_reason,
        }
    )


def _simulate_measurement(cfg: ExperimentConfig):
    """Shared twin-data generation: returns (clean, measurement)."""
    fp_exact = config_mod.exact_flux_parameter(cfg)
    if fp_exact is None:
        raise ValidationError("simulate needs exact fluxes (builtin or csv)")
    material = config_mod.load_configured_material(cfg)
    grid = config_mod.sim_grid(cfg)
    spec = config_mod.observation_spec(cfg)
    u0 = np.full(grid.nx, cfg.u0)
    field = solve_ibvp(material, fp_exact, u0, grid)
    clean = observation.observe(field, spec)
    meas = observation.add_noise(clean, spec, cfg.noise_amplitude, cfg.seed)
    return clean, meas


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    clean, meas = _simulate_measurement(cfg)
    spec = meas.spec
    log.info("simulated %d x %d readings, delta = %.3e", spec.d, spec.m, meas.delta)
    # Measurement CSV: first row sample times, first column sensor depths.
    header = [""] + [_fmt(t) for t in spec.times]
    for name, data in (("clean.csv", clean), ("noisy.csv", meas.data)):
        rows = ([_fmt(x)] + [_fmt(v) for v in row] for x, row in zip(spec.positions, data))
        _atomic_write(out_dir / name, _csv_text(header, rows))
    meta = {
        "delta": float(meas.delta), "seed": int(meas.seed), "amplitude": float(meas.amplitude),
        "sim_nx": cfg.sim_nx, "sim_nt": cfg.sim_nt,
    }
    _atomic_write(out_dir / "meta.json", _json_text(meta))
    return 0


def _read_measurement(data_dir: Path) -> tuple[observation.Measurement, tuple]:
    """The noisy readings and noise record in `data_dir`, and the (nx, nt)
    of the simulation grid that produced them (None where meta.json has none)."""
    csv_path, meta_path = data_dir / "noisy.csv", data_dir / "meta.json"
    for p in (csv_path, meta_path):
        if not p.exists():
            raise ValidationError(f"measurement file missing: {p}")
    head, table = config_mod.read_table(csv_path)
    if len(head) < 2 or not table.size:
        raise ValidationError(f"{csv_path}: needs a time row and sensor rows")
    try:
        times = [float(c) for c in head[1:]]
    except ValueError as exc:
        raise ValidationError(f"{csv_path}: non-numeric cell ({exc})") from exc
    spec = observation.ObservationSpec(positions=table[:, 0], times=times)
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        delta, seed, amplitude = meta["delta"], meta["seed"], meta["amplitude"]
        if type(seed) is not int or not {type(delta), type(amplitude)} <= {int, float}:
            raise ValidationError(
                f"{meta_path}: delta and amplitude must be numbers and seed an integer, "
                f"got {delta!r}, {amplitude!r} and {seed!r}"
            )
        meas = observation.Measurement(
            data=table[:, 1:], spec=spec, delta=float(delta), seed=seed, amplitude=float(amplitude)
        )
    except KeyError as exc:
        raise ValidationError(f"{meta_path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{meta_path}: malformed noise record ({exc})") from exc
    sim = (meta.get("sim_nx"), meta.get("sim_nt"))
    for key, value in zip(("sim_nx", "sim_nt"), sim):
        if key in meta and type(value) is not int:
            raise ValidationError(f"{meta_path}: {key} must be an integer, got {value!r}")
    return meas, sim


def _check_inverse_crime(cfg: ExperimentConfig, sim: tuple, allow: bool) -> None:
    """Refuse an inversion grid sharing `nx` or `nt` with the simulation
    grid `sim` = (nx, nt) of the data, unless `allow`; a resolution that
    `sim` leaves unknown (None) matches none."""
    if not allow and (cfg.inv_nx == sim[0] or cfg.inv_nt == sim[1]):
        raise ValidationError(
            f"inversion grid {cfg.inv_nx}x{cfg.inv_nt} shares a resolution with the "
            f"simulation grid {sim[0]}x{sim[1]}; pass --allow-inverse-crime to override"
        )


def _inversion_setup(cfg: ExperimentConfig):
    """(material, inversion grid, flux partition, initial profile)."""
    material = config_mod.load_configured_material(cfg)
    grid = config_mod.inv_grid(cfg)
    partition = config_mod.inversion_partition(cfg)
    u0 = np.full(grid.nx, cfg.u0)
    return material, grid, partition, u0


def _solve(cfg: ExperimentConfig, problem: optimizer.Problem, method: str):
    """Run the `method` solver ("pqn" or "landweber") with its configured budget."""
    solve_cfg = optimizer.SolveConfig(
        max_iter=cfg.max_iter if method == "pqn" else cfg.landweber_max_iter,
        rho=cfg.rho,
        damping=cfg.landweber_damping,
    )
    solver = optimizer.pqn_solve if method == "pqn" else optimizer.landweber_solve
    state = solver(problem, solve_cfg)
    log.info(
        "%s finished: k=%d stop=%s normalized=%.3e",
        method, state.iteration, state.stop_reason, state.residual_history[-1],
    )
    return state


def _inversion_problem(cfg: ExperimentConfig, meas: observation.Measurement):
    """The dimensionless problem of fitting `meas` on the inversion grid."""
    material, grid, partition, u0 = _inversion_setup(cfg)
    return optimizer.make_pde_problem(material, meas, u0, grid, partition, cfg.beta_max)


def _write_inversion_outputs(cfg, out_dir: Path, state, problem, exact) -> None:
    fp = problem.fluxes(state.beta)
    _atomic_write(out_dir / "beta.json", _state_json(state, fp))
    convergence = _convergence_rows(state, problem.data_norm_sq)
    _atomic_write(out_dir / "convergence.csv", _csv_text(CONVERGENCE_COLUMNS, convergence))
    b0, bL = pchip.flux_interpolants(fp)
    dense = np.linspace(0.0, cfg.u_max, 501)
    r0, rL = pchip.eval(b0, dense)[0], pchip.eval(bL, dense)[0]
    rows = [tuple(_fmt(v) for v in row) for row in zip(dense, r0, rL)]
    _atomic_write(out_dir / "fluxes.csv", _csv_text(["u", "beta0", "betaL"], rows))

    _atomic_write(
        out_dir / "plotdata" / "residual_curve.csv",
        _csv_text(CONVERGENCE_COLUMNS[:3], [row[:3] for row in convergence]),
    )
    if exact is not None:
        # Held at the last knot's value beyond it, as the march holds it.
        e0, eL = pchip.flux_interpolants(exact)
        x0, xL = pchip.eval(e0, dense, clamp=True)[0], pchip.eval(eL, dense, clamp=True)[0]
        rows = [tuple(_fmt(v) for v in row) for row in zip(dense, r0, x0, rL, xL)]
        _atomic_write(
            out_dir / "plotdata" / "flux_comparison.csv",
            _csv_text(
                ["u", "beta0_recovered", "beta0_exact", "betaL_recovered", "betaL_exact"],
                rows,
            ),
        )


def cmd_invert(cfg: ExperimentConfig, out_dir: Path, allow_crime: bool) -> int:
    data_dir = Path(cfg.data_dir) if cfg.data_dir else Path(cfg.output_dir)
    meas, sim = _read_measurement(data_dir)
    _check_inverse_crime(cfg, sim, allow_crime)
    exact = config_mod.exact_flux_parameter(cfg)
    problem = _inversion_problem(cfg, meas)
    state = _solve(cfg, problem, cfg.method)
    _write_inversion_outputs(cfg, out_dir, state, problem, exact)
    return 0


def _directional_error(dd_adj: float, dd_fd: float, fd: np.ndarray) -> float:
    """|dd_adj - dd_fd| over the larger of |dd_fd| and ||fd||_2 / sqrt(dim),
    the typical size of grad f . h for a random unit h: |dd_fd| alone blows
    up for directions nearly orthogonal to the gradient."""
    typical = float(np.linalg.norm(fd)) / np.sqrt(fd.size)
    return abs(dd_adj - dd_fd) / max(abs(dd_fd), typical, 1e-30)


def gradient_check(cfg: ExperimentConfig) -> dict:
    """Adjoint gradient vs central differences of the objective. A check
    whose 2·dim coordinate differences are all exactly 0 compared nothing
    and fails, with `differences_all_zero` set."""
    _, meas = _simulate_measurement(cfg)
    material, grid, partition, u0 = _inversion_setup(cfg)
    dim = 2 * cfg.n
    beta = 0.25 * cfg.beta_max * (1.0 + 0.5 * np.sin(np.arange(dim)))
    fp = pchip.FluxParameter(beta=beta, partition=partition, beta_max=cfg.beta_max)
    f0, residual, field = adjoint.objective(fp, meas, material, u0, grid)
    grad = adjoint.compute_gradient(meas, field, residual)

    def objective_at(b):
        # A difference needs only the misfit: no pivots, no adjoint.
        fp_b = pchip.FluxParameter(beta=b, partition=partition, beta_max=cfg.beta_max)
        return adjoint.misfit(solve_ibvp(material, fp_b, u0, grid), meas)[0]

    eps = 1e-3 * cfg.beta_max
    fd = np.empty(dim)
    for i in range(dim):
        bp, bm = beta.copy(), beta.copy()
        bp[i] += eps
        bm[i] -= eps
        fd[i] = (objective_at(bp) - objective_at(bm)) / (2.0 * eps)
    rel_l2 = float(np.linalg.norm(grad - fd)) / max(float(np.linalg.norm(fd)), 1e-30)

    rng = np.random.default_rng(cfg.seed + 1)
    directional = []
    for _ in range(5):
        h = rng.standard_normal(dim)
        h /= np.linalg.norm(h)
        dd_fd = (objective_at(beta + eps * h) - objective_at(beta - eps * h)) / (2.0 * eps)
        directional.append(_directional_error(float(grad @ h), dd_fd, fd))

    return {
        "objective": f0,
        "rel_l2_error": rel_l2,
        "max_directional_error": float(max(directional)),
        "directional_errors": [float(e) for e in directional],
        "tolerance": 1e-2,
        "differences_all_zero": not fd.any(),
        "passed": bool(fd.any() and rel_l2 <= 1e-2 and max(directional) <= 1e-2),
    }


def cmd_gradcheck(cfg: ExperimentConfig, out_dir: Path, allow_crime: bool) -> int:
    _check_inverse_crime(cfg, (cfg.sim_nx, cfg.sim_nt), allow_crime)
    report = gradient_check(cfg)
    _atomic_write(out_dir / "gradcheck.json", _json_text(report))
    log.info("gradcheck rel_l2=%.3e passed=%s", report["rel_l2_error"], report["passed"])
    return 0


# `compare` succeeds when the quasi-Newton solver matches the baseline's best
# residual level within this fraction of the baseline's iteration count.
SUPERIORITY_FACTOR = 0.3


def _first_reach(running_min: np.ndarray, level: float):
    """First iteration whose running minimum is at or below `level`, or None."""
    reached = np.flatnonzero(running_min <= level)
    return int(reached[0]) if reached.size else None


def _iterations_to_levels(pqn_min: np.ndarray, lw_min: np.ndarray):
    """Checkpoint levels from the baseline's running minimum and the first
    quasi-Newton iteration reaching each level."""
    last = lw_min.size - 1
    checkpoints = [k for k in (10, 20, 50, 100, 200, 500, 1000, 2000, 5000, last) if 0 < k <= last]
    return [
        {"landweber_k": k, "level": float(lw_min[k]), "pqn_k": _first_reach(pqn_min, lw_min[k])}
        for k in sorted(set(checkpoints))
    ]


def cmd_compare(cfg: ExperimentConfig, out_dir: Path, allow_crime: bool) -> int:
    _check_inverse_crime(cfg, (cfg.sim_nx, cfg.sim_nt), allow_crime)
    _, meas = _simulate_measurement(cfg)
    problem = _inversion_problem(cfg, meas)
    pqn_state = _solve(cfg, problem, "pqn")
    lw_state = _solve(cfg, problem, "landweber")

    def cells(f):
        return ("", "") if f is None else (_fmt(f * problem.data_norm_sq), _fmt(f))

    pqn_hist, lw_hist = pqn_state.residual_history, lw_state.residual_history
    rows = [
        (k, *cells(pf), *cells(lf))
        for k, (pf, lf) in enumerate(itertools.zip_longest(pqn_hist, lw_hist))
    ]
    _atomic_write(
        out_dir / "table.csv",
        _csv_text(["k", "pqn_f", "pqn_normalized", "landweber_f", "landweber_normalized"], rows),
    )

    pqn_min = np.minimum.accumulate(pqn_hist)
    lw_min = np.minimum.accumulate(lw_hist)
    # The baseline's running minima are nested, so matching its best level
    # within the budget means every weaker level it passed through was also
    # matched within that budget.
    lw_best = float(lw_min[-1])
    k_reach = _first_reach(pqn_min, lw_best)
    budget = SUPERIORITY_FACTOR * lw_state.iteration
    superior = k_reach is not None and k_reach < budget
    summary = {
        "pqn_iterations": pqn_state.iteration,
        "pqn_stop_reason": pqn_state.stop_reason,
        "landweber_iterations": lw_state.iteration,
        "landweber_stop_reason": lw_state.stop_reason,
        "landweber_best_normalized": lw_best,
        "pqn_iterations_to_baseline_best": k_reach,
        "superiority_factor": SUPERIORITY_FACTOR,
        "levels": _iterations_to_levels(pqn_min, lw_min),
        "pqn_superior": bool(superior),
    }
    _atomic_write(out_dir / "summary.json", _json_text(summary))
    log.info("compare: pqn k=%d (%s), landweber k=%d (%s), baseline best matched at k=%s",
             pqn_state.iteration, pqn_state.stop_reason,
             lw_state.iteration, lw_state.stop_reason, k_reach)
    if not superior:
        raise OptimizerError(
            "PQN needed "
            + (str(k_reach) if k_reach is not None else "more than its budget of")
            + f" iterations to match the baseline's best level; allowed {budget:.0f}"
        )
    return 0


def _setup_logging() -> None:
    level_name = os.environ.get("HEATFLUX_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatflux",
        description="Twin experiments for enthalpy-dependent boundary flux identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "invert", "gradcheck", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--seed", type=int, default=None, help="override the noise seed")
        p.add_argument(
            "--allow-inverse-crime",
            action="store_true",
            help="permit inversion on the grid that generated the data",
        )
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        cfg = config_mod.load_config(args.config)
        cfg = config_mod.with_overrides(cfg, seed=args.seed, output_dir=args.out)
        out_dir = Path(cfg.output_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "invert":
            return cmd_invert(cfg, out_dir, args.allow_inverse_crime)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, out_dir, args.allow_inverse_crime)
        return cmd_compare(cfg, out_dir, args.allow_inverse_crime)
    except ValidationError as exc:
        log.error("validation error: %s", exc)
        return 2
    except DivergenceError as exc:
        log.error("solver divergence: %s", exc)
        return 3
    except OptimizerError as exc:
        log.error("optimizer failure: %s", exc)
        return 4
    except BuildError as exc:
        log.error("build error: %s", exc)
        return 2
    except OSError as exc:
        log.error("io error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
