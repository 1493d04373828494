"""Sensor sampling, synthetic noise, and point-source injection.

`observe` samples a space-time field at sensor positions and times using
bilinear interpolation of the grid values. `adjoint_source` spreads residual
entries back onto the grid with the transposed interpolation weights scaled
by 1/(dx*dt), as a list of point contributions in time-level order
(`PointSources`): every (level, node) entry of the source is the sum of the
contributions listed at it. That makes the discrete duality

    (observe(w), v)_F == sum_k w[level_k, node_k] * value_k * dx * dt

hold to machine precision; the gradient check depends on that exactness.

Noise is uniform i.i.d. on [-amplitude, amplitude] from an explicitly seeded
generator; the recorded relative noise level is the smallest delta with
0.5 * ||clean - noisy||_F^2 <= delta * ||noisy||_F^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .forward import EnthalpyField, Grid

_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ObservationSpec:
    """Sensor depths (strictly inside the slab) and ascending sample times.

    Both are read-only copies of what the caller passes, so that what
    `_weights` and `_injection` keep on a spec cannot go stale.
    """

    positions: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        times = np.array(self.times, dtype=float)
        pos.flags.writeable = times.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "_by_grid", {})
        if pos.ndim != 1 or pos.size == 0 or times.ndim != 1 or times.size == 0:
            raise ValidationError("positions and times must be non-empty 1-D arrays")
        if not np.isfinite(pos).all() or not np.isfinite(times).all():
            raise ValidationError("positions and times must be finite")
        if (np.diff(times) <= 0).any():
            raise ValidationError("sample times must be strictly ascending")

    @property
    def d(self) -> int:
        return self.positions.size

    @property
    def m(self) -> int:
        return self.times.size


@dataclass(frozen=True, eq=False)
class Measurement:
    """Sensor readings with noise-level bookkeeping."""

    data: np.ndarray
    spec: ObservationSpec
    delta: float
    seed: int
    amplitude: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.shape != (self.spec.d, self.spec.m):
            raise ValidationError(
                f"data shape {data.shape} != (d, m) = {(self.spec.d, self.spec.m)}"
            )
        if not np.isfinite(data).all():
            raise ValidationError("measurement data must be finite")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValidationError("delta must be finite and nonnegative")


def _per_grid(fn):
    """`fn(spec, g)` computed once per grid and kept on the spec, so that it
    lives as long as the spec does and no longer. The arrays it returns are
    shared between calls and must be read-only."""

    @functools.wraps(fn)
    def kept(spec: ObservationSpec, g: Grid):
        key = (fn.__name__, g)
        if key not in spec._by_grid:
            spec._by_grid[key] = fn(spec, g)
        return spec._by_grid[key]

    return kept


@_per_grid
def _weights(spec: ObservationSpec, g: Grid):
    """Shared interpolation cells and weights for observe / adjoint_source.

    Sample j lies in space cell (ix, ix + 1) at weight wx of the right node,
    and sample k in time cell (it[k], it[k] + 1) at weight wt[k] of the
    later level; those two levels are the ones `adjoint_source` reaches.
    Samples at t = T fall into the last time cell with local weight 1, so
    both operators use identical (cell, weight) pairs and stay exact
    transposes of each other.
    """
    if (spec.positions <= 0).any() or (spec.positions >= g.L).any():
        raise ValidationError("sensor positions must lie strictly inside (0, L)")
    if (spec.times <= 0).any() or (spec.times > g.T * (1 + _TOL)).any():
        raise ValidationError("sample times must lie inside (0, T]")
    ix = np.clip((spec.positions / g.dx).astype(int), 0, g.nx - 2)
    wx = spec.positions / g.dx - ix
    it = np.clip((spec.times / g.dt).astype(int), 0, g.nt - 1)
    wt = spec.times / g.dt - it
    for a in (ix, wx, it, wt):
        a.flags.writeable = False
    return ix, wx, it, wt


@_per_grid
def _injection(spec: ObservationSpec, g: Grid):
    """The contributions of `adjoint_source` as tables: (start, node, idx,
    coef), contribution k at node[k] with value coef[k] * (residual.ravel()
    [idx[k]] * scale), those of level s at start[s] <= k < start[s + 1].

    Each sample spreads four contributions, sample (j, k) with a = wx[j]:
    (1 - wt[k]) (1 - a) at (it[k], ix[j]), (1 - wt[k]) a at (it[k], ix[j] +
    1), wt[k] (1 - a) at (it[k] + 1, ix[j]) and wt[k] a at (it[k] + 1, ix[j]
    + 1). They are listed by level in the order sensor, weight term, sample
    time (a stable sort keeps it within a level), the order in which a
    dense source summed them.
    """
    ix, wx, it, wt = _weights(spec, g)
    a = wx[:, None]
    # Axes (sensor, weight term, sample time), flattened in that order.
    coef = np.stack([(1.0 - wt) * (1.0 - a), (1.0 - wt) * a, wt * (1.0 - a), wt * a], 1)
    shape = coef.shape
    level = np.broadcast_to(np.stack([it, it, it + 1, it + 1]), shape)
    node = np.broadcast_to((ix[:, None] + np.array([0, 1, 0, 1]))[:, :, None], shape)
    idx = np.broadcast_to(np.arange(spec.d * spec.m).reshape(spec.d, 1, spec.m), shape)
    order = np.argsort(level, axis=None, kind="stable")
    start = np.searchsorted(level.ravel()[order], np.arange(g.nt + 2))
    tables = (start, node.ravel()[order], idx.ravel()[order], coef.ravel()[order])
    for t in tables:
        t.flags.writeable = False
    return tables


@_per_grid
def _gather(spec: ObservationSpec, g: Grid):
    """The tables `observe` reads: flat[j, k] = it[k] nx + ix[j], the index
    of the earlier-level left node of sample (j, k) in the raveled field,
    and the time weights (1 - wt, wt) as (m,) vectors and the space
    weights (1 - wx, wx) as (d, 1) vectors."""
    ix, wx, it, wt = _weights(spec, g)
    a = wx[:, None]
    tables = (it * g.nx + ix[:, None], 1.0 - wt, wt, 1.0 - a, a)
    for t in tables:
        t.flags.writeable = False
    return tables


def observe(f: EnthalpyField, spec: ObservationSpec) -> np.ndarray:
    """Bilinear samples of the field, shape (d, m): each sensor's two nodes
    interpolated in time first, then the two in space, over all sensors at
    once. The four nodes of every sample are gathered from the raveled
    field with one index table, shifted by one node and by one level."""
    flat, wt0, wt1, wx0, wx1 = _gather(spec, f.grid)
    u = f.values.ravel()
    nx = f.grid.nx
    col0 = wt0 * u[flat] + wt1 * u[nx:][flat]
    col1 = wt0 * u[1:][flat] + wt1 * u[nx + 1 :][flat]
    return wx0 * col0 + wx1 * col1


def add_noise(clean: np.ndarray, spec: ObservationSpec, amplitude: float, seed: int) -> Measurement:
    """Perturb clean readings with seeded uniform noise and record the level.

    Raises `ValidationError` when the amplitude is negative, or so large that
    the noise range or the squared norms of the level overflow."""
    if amplitude < 0:
        raise ValidationError("noise amplitude must be nonnegative")
    if not math.isfinite(2.0 * amplitude):
        raise ValidationError(f"noise amplitude {amplitude} overflows the noise range")
    clean = np.asarray(clean, dtype=float)
    rng = np.random.default_rng(seed)
    noisy = clean + rng.uniform(-amplitude, amplitude, size=clean.shape)
    with np.errstate(over="ignore"):
        diff_sq = float(np.sum((clean - noisy) ** 2))
        noisy_sq = float(np.sum(noisy**2))
    if not (math.isfinite(diff_sq) and math.isfinite(noisy_sq)):
        raise ValidationError(f"noise amplitude {amplitude} overflows the readings' squared norms")
    delta = 0.0 if diff_sq == 0.0 else diff_sq / (2.0 * noisy_sq)
    return Measurement(data=noisy, spec=spec, delta=delta, seed=seed, amplitude=amplitude)


class PointSources(NamedTuple):
    """A source on the grid as point contributions in time-level order:
    those of level s are at start[s] <= k < start[s + 1] (start has one
    entry more than the grid has levels), contribution k adds value[k] at
    node[k]."""

    start: np.ndarray
    node: np.ndarray
    value: np.ndarray


def adjoint_source(residual, spec: ObservationSpec, g: Grid) -> PointSources:
    """Spread residual entries onto the grid as discrete point sources.

    Returns the contributions of every sample to the four nodes around it
    (`_injection`), in time-level order. Within a level they are listed in
    the order sensor, weight term, sample time, so that summing a level's
    contributions into a zero row in list order gives each entry the bits
    of a dense (nt+1) x nx source summed in that order. Each value is the
    interpolation weight times the scaled residual, the product the dense
    sum added.
    """
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (spec.d, spec.m):
        raise ValidationError(
            f"residual shape {residual.shape} != (d, m) = {(spec.d, spec.m)}"
        )
    start, node, idx, coef = _injection(spec, g)
    scale = 1.0 / (g.dx * g.dt)
    return PointSources(start, node, coef * (residual.ravel()[idx] * scale))
