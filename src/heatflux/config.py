"""Experiment configuration: flat dotted-key files plus builtin defaults.

Config files are plain text, one `key = value` per line, `#` comments
allowed. Keys use dotted section prefixes, e.g.::

    domain.L = 0.05
    grids.sim.nx = 161
    sensors.positions = 0.002, 0.01, 0.025, 0.04, 0.048
    optimizer.method = pqn

Unknown keys are rejected so typos fail loudly. All defaults reproduce the
reference twin experiment: a 50 mm plate cooling for 30 s from a uniform
enthalpy of 5.5e9 J/m3, five interior sensors sampled every 0.1 s, uniform
noise of amplitude 2e6, a 20-knot flux partition with box bound 16e6, and
discrepancy factor rho = 2.

The builtin exact fluxes synthesize a Leidenfrost signature on a partition
deliberately different from the inversion partition: a low plateau at high
enthalpy (stable vapor film), a steep peak where the film collapses, and a
smooth decay to zero at zero enthalpy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import pchip
from .errors import ValidationError
from .forward import Grid
from .material import build_material, builtin_material
from .observation import ObservationSpec

# Headers of the input tables: one row per knot of an exact flux (the slope
# column is not read: slopes follow from the values, so the value
# sensitivities differentiate the interpolant that is evaluated), and one row
# per material temperature in K with the volumetric heat capacity in
# J/(m3 K) and the conductivity in W/(m K).
FLUX_CSV_HEADER = ["knot", "value", "slope"]
MATERIAL_CSV_HEADER = ["theta", "capacity", "conductivity"]


@dataclass(frozen=True)
class ExperimentConfig:
    L: float = 0.05
    T: float = 30.0
    sim_nx: int = 101
    sim_nt: int = 3000
    inv_nx: int = 91
    inv_nt: int = 3300
    material_source: str = "builtin"
    u0: float = 5.5e9
    n: int = 20
    u_max: float = 5.5e9
    beta_max: float = 16e6
    sensor_positions: tuple = (0.002, 0.01, 0.025, 0.04, 0.048)
    sample_interval: float = 0.1
    noise_amplitude: float = 2e6
    seed: int = 7
    method: str = "pqn"
    rho: float = 2.0
    max_iter: int = 3000
    landweber_damping: float | None = None
    landweber_max_iter: int = 10000
    flux_source: str = "builtin"
    flux_beta0_csv: str | None = None
    flux_betaL_csv: str | None = None
    output_dir: str = "out"
    data_dir: str | None = None

    def __post_init__(self):
        # NaN passes every comparison below, and inf overflows the grid and
        # observation set-up, so non-finite values are rejected first.
        for f in fields(self):
            val = getattr(self, f.name)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (val if isinstance(val, tuple) else (val,))):
                raise ValidationError(f"{f.name} must be finite")
        for name in ("L", "T", "u0", "u_max", "beta_max", "sample_interval", "rho"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("sim_nx", "sim_nt", "inv_nx", "inv_nt", "n", "max_iter",
                     "landweber_max_iter"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.n < 3:
            raise ValidationError("partition needs at least 3 knots")
        if self.rho <= 1:
            raise ValidationError("rho must exceed 1")
        if self.landweber_damping is not None and self.landweber_damping <= 0:
            raise ValidationError("landweber damping must be positive or auto")
        if self.noise_amplitude < 0:
            raise ValidationError("noise amplitude must be nonnegative")
        if self.seed < 0:
            raise ValidationError("noise seed must be nonnegative")
        if self.method not in ("pqn", "landweber"):
            raise ValidationError(f"unknown optimizer method {self.method!r}")
        if self.flux_source not in ("builtin", "csv", "none"):
            raise ValidationError(f"unknown flux source {self.flux_source!r}")
        if not self.sensor_positions:
            raise ValidationError("at least one sensor position required")
        pos = np.asarray(self.sensor_positions, dtype=float)
        if (pos <= 0).any() or (pos >= self.L).any():
            raise ValidationError("sensor positions must lie strictly inside (0, L)")
        if self.sample_interval > self.T:
            raise ValidationError("sample interval exceeds the total time")
        # `observation_spec` samples every T / round(T / interval) seconds.
        m = round(self.T / self.sample_interval)
        if abs(m * self.sample_interval - self.T) > 1e-9 * self.T:
            raise ValidationError("sample interval must divide the total time")


def _positions(s):
    return tuple(float(tok) for tok in s.replace(",", " ").split())


def _damping(s):
    return None if s.strip().lower() == "auto" else float(s)


def _optional_str(s):
    return None if s.strip().lower() == "none" else s.strip()


# Dotted config key -> (dataclass field, parser).
_KEYMAP = {
    "domain.L": ("L", float),
    "domain.T": ("T", float),
    "grids.sim.nx": ("sim_nx", int),
    "grids.sim.nt": ("sim_nt", int),
    "grids.inv.nx": ("inv_nx", int),
    "grids.inv.nt": ("inv_nt", int),
    "material.source": ("material_source", str),
    "initial.u0": ("u0", float),
    "partition.n": ("n", int),
    "partition.u_max": ("u_max", float),
    "box.beta_max": ("beta_max", float),
    "sensors.positions": ("sensor_positions", _positions),
    "sensors.sample_interval": ("sample_interval", float),
    "noise.amplitude": ("noise_amplitude", float),
    "noise.seed": ("seed", int),
    "optimizer.method": ("method", str),
    "optimizer.rho": ("rho", float),
    "optimizer.max_iter": ("max_iter", int),
    "optimizer.landweber_damping": ("landweber_damping", _damping),
    "optimizer.landweber_max_iter": ("landweber_max_iter", int),
    "fluxes.source": ("flux_source", str),
    "fluxes.beta0_csv": ("flux_beta0_csv", _optional_str),
    "fluxes.betaL_csv": ("flux_betaL_csv", _optional_str),
    "output.dir": ("output_dir", str),
    "data.dir": ("data_dir", _optional_str),
}


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYMAP:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        field_name, parser = _KEYMAP[key]
        try:
            values[field_name] = parser(val)
        except ValueError as exc:
            raise ValidationError(f"config line {lineno}: bad value for {key} ({exc})") from exc
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return replace(cfg, **kwargs) if kwargs else cfg


def sim_grid(cfg: ExperimentConfig) -> Grid:
    return Grid(L=cfg.L, T=cfg.T, nx=cfg.sim_nx, nt=cfg.sim_nt)


def inv_grid(cfg: ExperimentConfig) -> Grid:
    return Grid(L=cfg.L, T=cfg.T, nx=cfg.inv_nx, nt=cfg.inv_nt)


def inversion_partition(cfg: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.u_max, cfg.n)


def observation_spec(cfg: ExperimentConfig) -> ObservationSpec:
    m = int(round(cfg.T / cfg.sample_interval))
    times = np.linspace(cfg.sample_interval, cfg.T, m)
    return ObservationSpec(
        positions=np.asarray(cfg.sensor_positions, dtype=float), times=times
    )


def read_table(path, header=None) -> tuple[list, np.ndarray]:
    """The first row of the CSV file at `path` and the rows under it as floats.

    The file must be UTF-8 text. Blank lines are skipped. Every other row
    must have as many cells as the first, and the first must be `header`
    when one is given.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    head = [c.strip() for c in rows[0]] if rows else []
    if header is not None and head != header:
        raise ValidationError(f"{path}: expected header {','.join(header)}")
    for lineno, row in enumerate(rows[1:], start=2):
        if row and len(row) != len(head):
            raise ValidationError(f"{path}: row {lineno} has {len(row)} cells, not {len(head)}")
    body = [row for row in rows[1:] if row]
    try:
        table = np.array([[float(c) for c in row] for row in body])
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric cell ({exc})") from exc
    return head, table.reshape(len(body), len(head))


def load_configured_material(cfg: ExperimentConfig) -> pchip.Pchip:
    """The diffusivity interpolant of the configured material: the builtin
    one, or one built from the `material.source` table."""
    if cfg.material_source == "builtin":
        return builtin_material()
    _, table = read_table(cfg.material_source, MATERIAL_CSV_HEADER)
    return build_material(*table.T)


def leidenfrost_profiles(u_max: float, beta_max: float) -> tuple[pchip.Pchip, pchip.Pchip]:
    """Builtin exact fluxes on a 41-knot partition of [0, u_max].

    Both interpolants vanish at u = 0, peak where the vapor film collapses
    (at different enthalpies and heights for the two faces), and settle on a
    low plateau toward u_max. All values stay well inside [0, beta_max].
    """
    knots = np.linspace(0.0, u_max, 41)

    def profile(peak, u_peak, width, plateau, onset):
        vals = (
            peak * np.exp(-(((knots - u_peak) / width) ** 2))
            + plateau * 0.5 * (1.0 + np.tanh((knots - u_peak) / onset))
        )
        ramp = 1.0 - np.exp(-((knots / (0.05 * u_max)) ** 2))
        return np.clip(vals * ramp, 0.0, beta_max)

    beta0 = pchip.Pchip(
        knots,
        profile(0.28 * beta_max, 0.30 * u_max, 0.16 * u_max, 0.08 * beta_max, 0.10 * u_max),
    )
    betaL = pchip.Pchip(
        knots,
        profile(0.24 * beta_max, 0.38 * u_max, 0.15 * u_max, 0.10 * beta_max, 0.10 * u_max),
    )
    return beta0, betaL


def exact_flux_parameter(cfg: ExperimentConfig) -> pchip.FluxParameter | None:
    """Exact fluxes as a single parameter vector on their own partition.

    Returns None when the config declares no exact fluxes. CSV sources must
    share one knot vector between the two files; only their knot and value
    columns are read (see `FLUX_CSV_HEADER`).
    """
    if cfg.flux_source == "none":
        return None
    if cfg.flux_source == "builtin":
        b0, bL = leidenfrost_profiles(cfg.u_max, cfg.beta_max)
    else:
        if not cfg.flux_beta0_csv or not cfg.flux_betaL_csv:
            raise ValidationError("flux CSV paths required for fluxes.source = csv")
        b0, bL = (pchip.Pchip(*read_table(path, FLUX_CSV_HEADER)[1].T[:2])
                  for path in (cfg.flux_beta0_csv, cfg.flux_betaL_csv))
        if b0.n != bL.n or np.abs(b0.knots - bL.knots).max() > 1e-9 * cfg.u_max:
            raise ValidationError("exact flux files must share one partition")
    return pchip.FluxParameter(
        beta=np.concatenate([b0.values, bL.values]),
        partition=b0.knots,
        beta_max=cfg.beta_max,
    )
