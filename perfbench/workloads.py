"""The benchmark's workloads: generated configs and output checks.

Why each workload exists is recorded in BENCHMARK.json and README.md.

Each workload is `simulate` followed by one timed command, both run through
`heatflux.cli.main`. The seed becomes `noise.seed`, so the program sees only
the generated config and the measurement files `simulate` writes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7  # the package's default noise seed
HELD_OUT_SEED = 11  # kept out of tuning; later claims must also hold on it

# Runnable by hand but not listed in BENCHMARK.json: the program's gradcheck
# fails its own directional check on some noise seeds (301 and 311 of 14
# tried), and a benchmark workload must pass on every seed.
NOT_BENCHMARKED = ("gradcheck",)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the timed subcommand that follows `simulate`
    config_lines: tuple = field(default_factory=tuple)

    def config_text(self, seed: int) -> str:
        return "\n".join((f"noise.seed = {seed}",) + self.config_lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="twin-short",
            command="invert",
            # Readings every 0.02 s instead of 0.1 s: five times as many
            # readings make the noise level delta, and with it the
            # discrepancy stopping index k*, far less dependent on the draw
            # (k* 147-175 over 18 seeds; 155-210 over ten seeds at 0.1 s).
            config_lines=(
                "domain.T = 10.0",
                "grids.sim.nt = 1000",
                "grids.inv.nt = 1100",
                "sensors.sample_interval = 0.02",
            ),
        ),
        Workload(
            name="gradcheck",
            command="gradcheck",
        ),
        Workload(
            name="landweber-budget",
            command="invert",
            config_lines=(
                "optimizer.method = landweber",
                "optimizer.landweber_max_iter = 25",
            ),
        ),
    )
}


def _convergence(out: Path) -> np.ndarray:
    with open(out / "convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([float(r["normalized_f"]) for r in rows])


def _flux_rel_l2(cfg, beta: list, heatflux) -> float:
    """Larger relative L2 flux error of the two faces, over the enthalpies
    each face visits in the exact simulation (capped at u_max)."""
    pchip, config = heatflux.pchip, heatflux.config
    exact = config.exact_flux_parameter(cfg)
    grid = config.sim_grid(cfg)
    field_ = heatflux.forward.solve_ibvp(
        config.load_configured_material(cfg), exact, np.full(grid.nx, cfg.u0), grid
    )
    recovered = pchip.FluxParameter(
        np.asarray(beta), config.inversion_partition(cfg), cfg.beta_max
    )
    errors = []
    faces = zip(pchip.flux_interpolants(recovered), pchip.flux_interpolants(exact), (0, -1))
    for rec, ex, col in faces:
        trace = field_.values[:, col]
        lo, hi = float(trace.min()), min(float(trace.max()), cfg.u_max)
        u = np.linspace(max(lo, 0.0), hi, 2001)
        vr = pchip.eval(rec, u, clamp=True)[0]
        vx = pchip.eval(ex, u, clamp=True)[0]
        errors.append(float(np.linalg.norm(vr - vx) / np.linalg.norm(vx)))
    return max(errors)


def check_outputs(workload: Workload, cfg, out: Path, heatflux) -> tuple[dict, list[str]]:
    """Quality figures of one finished command and the checks it failed."""
    failures: list[str] = []
    quality: dict = {}
    if workload.command == "gradcheck":
        report = json.loads((out / "gradcheck.json").read_text())
        quality["grad_rel_l2"] = report["rel_l2_error"]
        if report["passed"] is not True:
            failures.append(
                f"gradcheck did not pass: rel_l2 {report['rel_l2_error']:.3e}, "
                f"max directional {report['max_directional_error']:.3e}"
            )
        return quality, failures

    state = json.loads((out / "beta.json").read_text())
    delta = json.loads((out / "meta.json").read_text())["delta"]
    normalized = _convergence(out)
    quality["k_star"] = state["k_star"]
    quality["stop_reason"] = state["stop_reason"]
    quality["misfit_ratio"] = float(normalized[-1] / (cfg.rho * delta))
    if cfg.method == "pqn":
        quality["flux_rel_l2"] = _flux_rel_l2(cfg, state["beta"], heatflux)
        if state["stop_reason"] != "discrepancy":
            failures.append(f"stop_reason {state['stop_reason']!r}, expected 'discrepancy'")
        if quality["misfit_ratio"] > 1.0:
            failures.append(f"misfit_ratio {quality['misfit_ratio']:.4f} > 1")
        if quality["flux_rel_l2"] > 0.15:
            failures.append(f"flux_rel_l2 {quality['flux_rel_l2']:.4f} > 0.15")
    else:
        if state["stop_reason"] != "max_iter":
            failures.append(f"stop_reason {state['stop_reason']!r}, expected 'max_iter'")
        if state["k_star"] != cfg.landweber_max_iter:
            failures.append(f"k = {state['k_star']}, expected {cfg.landweber_max_iter}")
        if not normalized[-1] < normalized[0]:
            failures.append("final misfit not below the initial misfit")
    return quality, failures


def expected_solves(workload: Workload, cfg) -> tuple[int, int] | None:
    """(forward, adjoint) solve counts the timed command must make, when fixed."""
    if workload.command == "gradcheck":
        # 1 simulation solve, 1 at the base point, 2 per coordinate and
        # 2 per each of the 5 random directions.
        return 2 * (2 * cfg.n) + 12, 1
    if cfg.method == "landweber":
        return cfg.landweber_max_iter + 1, cfg.landweber_max_iter + 1
    return None
