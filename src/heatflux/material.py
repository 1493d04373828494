"""Temperature/enthalpy transformation and enthalpy-dependent diffusivity.

A material is described by tables of volumetric heat capacity C(theta) and
conductivity k(theta). Integrating C from the reference temperature 273.15 K
gives the enthalpy u, the state variable of the solvers; the interpolated
ratio k/C over enthalpy is the diffusivity that drives conduction. Between
table rows the enthalpy is piecewise linear in temperature (trapezoidal
cumulative integral), so the inverse mapping is piecewise linear too and the
round trip is exact up to roundoff.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass

import numpy as np

from . import pchip
from .errors import ValidationError

THETA_REF = 273.15

MATERIAL_CSV_HEADER = ["theta", "capacity", "conductivity"]


@dataclass(frozen=True, eq=False)
class MaterialModel:
    """Immutable material description with precomputed enthalpy table."""

    theta_table: np.ndarray
    capacity_table: np.ndarray
    conductivity_table: np.ndarray
    enthalpy_table: np.ndarray
    diffusivity: pchip.Pchip

    @property
    def u_range(self) -> tuple[float, float]:
        return 0.0, float(self.enthalpy_table[-1])


def build_material(theta_table, capacity_table, conductivity_table) -> MaterialModel:
    """Validate tables, integrate capacity, and fit the diffusivity interpolant.

    Tables starting above 273.15 K are extended downward with their first row
    held constant, so the enthalpy origin always sits at the reference
    temperature. Diffusivity values k/C are interpolated over enthalpy; when
    the cumulative enthalpy abscissae are not equidistant they are resampled
    onto an equidistant grid first (the interpolant only supports uniform
    spacing).
    """
    theta = np.asarray(theta_table, dtype=float)
    cap = np.asarray(capacity_table, dtype=float)
    cond = np.asarray(conductivity_table, dtype=float)
    if not (theta.shape == cap.shape == cond.shape) or theta.ndim != 1:
        raise ValidationError("material tables must be 1-D with equal lengths")
    if theta.size < 3:
        raise ValidationError("material tables need at least 3 rows")
    for name, arr in (("theta", theta), ("capacity", cap), ("conductivity", cond)):
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} table must be finite")
    if (np.diff(theta) <= 0).any():
        raise ValidationError("temperatures must be strictly increasing")
    if theta[0] < THETA_REF - 1e-9:
        raise ValidationError(f"temperatures must start at or above {THETA_REF} K")
    if (cap <= 0).any():
        raise ValidationError("heat capacity must be strictly positive")
    if (cond <= 0).any():
        raise ValidationError("conductivity must be strictly positive")

    if theta[0] > THETA_REF + 1e-9:
        theta = np.concatenate(([THETA_REF], theta))
        cap = np.concatenate(([cap[0]], cap))
        cond = np.concatenate(([cond[0]], cond))

    increments = 0.5 * (cap[1:] + cap[:-1]) * np.diff(theta)
    enthalpy = np.concatenate(([0.0], np.cumsum(increments)))

    alpha = cond / cap

    try:
        diffusivity = pchip.Pchip(enthalpy, alpha)
    except ValidationError:
        grid = np.linspace(0.0, enthalpy[-1], max(theta.size, 65))
        diffusivity = pchip.Pchip(grid, np.interp(grid, enthalpy, alpha))

    return MaterialModel(
        theta_table=theta,
        capacity_table=cap,
        conductivity_table=cond,
        enthalpy_table=enthalpy,
        diffusivity=diffusivity,
    )


def enthalpy_from_temperature(m: MaterialModel, theta):
    """Cumulative enthalpy at the given temperature(s)."""
    th = np.asarray(theta, dtype=float)
    if (th < m.theta_table[0] - 1e-9).any() or (th > m.theta_table[-1] + 1e-9).any():
        raise ValidationError("temperature outside the tabulated range")
    out = np.interp(th, m.theta_table, m.enthalpy_table)
    return float(out) if np.ndim(theta) == 0 else out


def temperature_from_enthalpy(m: MaterialModel, u):
    """Invert the enthalpy transform (monotone piecewise-linear inversion)."""
    uq = np.asarray(u, dtype=float)
    lo, hi = m.u_range
    if (uq < lo - 1e-9 * hi).any() or (uq > hi * (1 + 1e-12) + 1e-9).any():
        raise ValidationError(f"enthalpy outside [0, {hi:.6g}]")
    out = np.interp(uq, m.enthalpy_table, m.theta_table)
    return float(out) if np.ndim(u) == 0 else out


def diffusivity_at(m: MaterialModel, u):
    """Diffusivity values at the given enthalpies, clamped to the table range."""
    return pchip.eval(m.diffusivity, u, clamp=True)[0]


@functools.cache
def builtin_material() -> MaterialModel:
    """Synthetic steel-like material used when no CSV table is supplied.

    Constant volumetric capacity 3.8e6 J/(m3 K) and a conductivity curve with
    a dip around 1100 K, producing a diffusivity valley in the mid-enthalpy
    band (a stand-in for a phase transition). The table spans 273.15 K to
    1773.15 K, i.e. enthalpies 0 to 5.7e9 J/m3.
    """
    theta = THETA_REF + 50.0 * np.arange(31)
    cap = np.full(theta.shape, 3.8e6)
    cond = (
        34.0
        - 10.0 * np.exp(-(((theta - 1100.0) / 140.0) ** 2))
        + 6.0 * np.exp(-(((theta - THETA_REF) / 250.0) ** 2))
    )
    return build_material(theta, cap, cond)


def render_material_csv(m: MaterialModel) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MATERIAL_CSV_HEADER)
    for th, c, k in zip(m.theta_table, m.capacity_table, m.conductivity_table):
        writer.writerow([repr(float(th)), repr(float(c)), repr(float(k))])
    return buf.getvalue()


def load_material(path) -> MaterialModel:
    """Build a material from a `theta,capacity,conductivity` CSV file, the
    layout :func:`render_material_csv` writes."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != MATERIAL_CSV_HEADER:
        raise ValidationError(
            f"{path}: expected header {','.join(MATERIAL_CSV_HEADER)}"
        )
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:] if row])
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric cell ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValidationError(f"{path}: expected 3 columns")
    return build_material(data[:, 0], data[:, 1], data[:, 2])
