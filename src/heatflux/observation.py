"""Sensor sampling, synthetic noise, and point-source injection.

`observe` samples a space-time field at sensor positions and times using
bilinear interpolation of the grid values. `adjoint_source` spreads residual
entries back onto the grid with the transposed interpolation weights scaled
by 1/(dx*dt). It returns only the time levels the samples reach, as a pair
(levels, rows): every other level of the source is zero. That makes the
discrete duality

    (observe(w), v)_F == sum(w[levels] * rows) * dx * dt

hold to machine precision; the gradient check depends on that exactness.

Noise is uniform i.i.d. on [-amplitude, amplitude] from an explicitly seeded
generator; the recorded relative noise level is the smallest delta with
0.5 * ||clean - noisy||_F^2 <= delta * ||noisy||_F^2.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .forward import EnthalpyField, Grid

_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ObservationSpec:
    """Sensor depths (strictly inside the slab) and ascending sample times."""

    positions: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "times", times)
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
    return ix, wx, it, wt


def observe(f: EnthalpyField, spec: ObservationSpec) -> np.ndarray:
    """Bilinear samples of the field, shape (d, m)."""
    ix, wx, it, wt = _weights(spec, f.grid)
    U = f.values
    out = np.empty((spec.d, spec.m))
    for j in range(spec.d):
        i, a = ix[j], wx[j]
        col0 = (1.0 - wt) * U[it, i] + wt * U[it + 1, i]
        col1 = (1.0 - wt) * U[it, i + 1] + wt * U[it + 1, i + 1]
        out[j] = (1.0 - a) * col0 + a * col1
    return out


def add_noise(clean: np.ndarray, spec: ObservationSpec, amplitude: float, seed: int) -> Measurement:
    """Perturb clean readings with seeded uniform noise and record the level."""
    if amplitude < 0:
        raise ValidationError("noise amplitude must be nonnegative")
    clean = np.asarray(clean, dtype=float)
    rng = np.random.default_rng(seed)
    noisy = clean + rng.uniform(-amplitude, amplitude, size=clean.shape)
    diff_sq = float(np.sum((clean - noisy) ** 2))
    delta = 0.0 if diff_sq == 0.0 else diff_sq / (2.0 * float(np.sum(noisy**2)))
    return Measurement(data=noisy, spec=spec, delta=delta, seed=seed, amplitude=amplitude)


def adjoint_source(residual, spec: ObservationSpec, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Spread residual entries onto the grid as discrete point sources.

    Returns (levels, rows): the ascending time levels the samples reach and
    the (len(levels), nx) source rows at those levels; the source is zero at
    every other level. Each entry sums its contributions in the order sensor,
    weight term, sample time, so it holds the bits of the same entry of a
    dense (nt+1) x nx source summed in that order.
    """
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (spec.d, spec.m):
        raise ValidationError(
            f"residual shape {residual.shape} != (d, m) = {(spec.d, spec.m)}"
        )
    ix, wx, it, wt = _weights(spec, g)
    # The levels some sample reaches, ascending: level it[k] is row at[k]
    # and level it[k] + 1 the next row.
    levels = np.flatnonzero(np.bincount(np.concatenate((it, it + 1))))
    at = np.searchsorted(levels, it)
    S = np.zeros((levels.size, g.nx))
    scale = 1.0 / (g.dx * g.dt)
    for j in range(spec.d):
        i, a = ix[j], wx[j]
        v = residual[j] * scale
        np.add.at(S, (at, np.full(spec.m, i)), (1.0 - wt) * (1.0 - a) * v)
        np.add.at(S, (at, np.full(spec.m, i + 1)), (1.0 - wt) * a * v)
        np.add.at(S, (at + 1, np.full(spec.m, i)), wt * (1.0 - a) * v)
        np.add.at(S, (at + 1, np.full(spec.m, i + 1)), wt * a * v)
    return levels, S


def render_measurement_csv(data: np.ndarray, spec: ObservationSpec) -> str:
    """Readings as CSV: first row sample times, first column sensor depths."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [repr(float(t)) for t in spec.times])
    for j, x in enumerate(spec.positions):
        writer.writerow([repr(float(x))] + [repr(float(v)) for v in data[j]])
    return buf.getvalue()


def render_measurement_meta(meas: Measurement, extra: dict | None = None) -> str:
    payload = {
        "delta": float(meas.delta),
        "seed": int(meas.seed),
        "amplitude": float(meas.amplitude),
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_measurement_csv(text: str) -> tuple[np.ndarray, ObservationSpec]:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ValidationError("measurement CSV needs a time row and sensor rows")
    try:
        times = np.array([float(c) for c in rows[0][1:]])
        positions = np.array([float(r[0]) for r in rows[1:] if r])
        data = np.array([[float(c) for c in r[1:]] for r in rows[1:] if r])
    except ValueError as exc:
        raise ValidationError(f"measurement CSV has a non-numeric cell ({exc})") from exc
    spec = ObservationSpec(positions=positions, times=times)
    if data.shape != (spec.d, spec.m):
        raise ValidationError("measurement CSV rows have inconsistent lengths")
    return data, spec


def load_measurement(csv_path, meta_path) -> tuple[Measurement, dict]:
    """The measurement in `csv_path` with the noise record in `meta_path`,
    and the whole parsed meta payload (it may carry further keys, such as
    the simulation grid)."""
    with open(csv_path, newline="") as fh:
        data, spec = parse_measurement_csv(fh.read())
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        meas = Measurement(
            data=data,
            spec=spec,
            delta=float(meta["delta"]),
            seed=int(meta["seed"]),
            amplitude=float(meta["amplitude"]),
        )
    except KeyError as exc:
        raise ValidationError(f"{meta_path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{meta_path}: malformed noise record ({exc})") from exc
    return meas, meta
