"""Enthalpy-dependent diffusivity from temperature tables.

A material is described by tables of volumetric heat capacity C(theta) and
conductivity k(theta). Integrating C from the reference temperature 273.15 K
(trapezoidal cumulative integral) gives the enthalpy u, the state variable of
the solvers; the interpolated ratio k/C over enthalpy is the diffusivity that
drives conduction, and the only material quantity the marches read. So this
module returns that interpolant itself, a `pchip.Pchip` on equidistant knots
from 0 to the enthalpy of the table's top temperature, which the marches
take as `alpha`; `config` calls it, and nothing downstream imports it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import pchip
from .errors import ValidationError

THETA_REF = 273.15


def build_material(theta_table, capacity_table, conductivity_table) -> pchip.Pchip:
    """Validate tables, integrate capacity, and return the diffusivity
    interpolant.

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
        return pchip.Pchip(enthalpy, alpha)
    except ValidationError:
        grid = np.linspace(0.0, enthalpy[-1], max(theta.size, 65))
        return pchip.Pchip(grid, np.interp(grid, enthalpy, alpha))


@functools.cache
def builtin_material() -> pchip.Pchip:
    """Diffusivity of the synthetic steel-like material used when no CSV
    table is supplied; cached, so every call returns the same interpolant.

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
