"""The compiled step loops of the state march and of the tangent and
adjoint marches, and the compiled gradient assembly (`_march.c`).

`forward.solve_ibvp` runs its whole step loop in C, `adjoint.solve_sensitivity`
its whole tangent march, `adjoint.solve_adjoint` its whole adjoint march,
point sources included, and `adjoint.assemble_gradient` its sum over the
levels, one C call each; this module builds that library, loads it and
calls it. Its wrappers take the diffusivity and the two fluxes as
`pchip.Pchip`s and make their C views themselves (`interpolant`, built once
and kept on the interpolant), so the callers hand over what they hold and
know nothing of the library's types. The C code does the numpy code's
operations in the same order, with no fused multiply-adds, and the state
march solves with one elimination of the library's own: LAPACK `dgtsv`'s
operations in dgtsv's order, without pivoting, which the matrices I + r K
of the marches never need (`eliminate` in `_march.c` says why). Wherever
dgtsv keeps its pivots in place, as on every grid a default run solves,
the marches and the gradient keep every bit of the numpy code that called
LAPACK. No module of the package imports LAPACK or scipy; the
library also exports the solve as `tridiagonal_solve(n, dl, d, du, b)`,
which returns dgtsv's info, for the tests that hold it to LAPACK's dgtsv
and to a plain reference.

`forward_march` can record each step's pivots in a block the caller
passes. `tangent_march` and `adjoint_march` take that block back, along
the same trajectory with the same diffusivity and step constants, and
solve every step on it, with the bits of an elimination; neither
eliminates. The caller (`adjoint`) passes the block with the trajectory,
diffusivity and fluxes of the record it came in (`forward.Pivots`), so it
belongs to them, and this module checks its shape as it checks every
array.

The three marches stop by one rule: the back substitution tests every
entry it solves, and a loop stops at its first non-finite solved level
(the state march also at a singular step) and returns a stop code with
that step, counted from 1 in march order. This module alone reads the
codes: the three march wrappers make their call through one function
(`_march`), which passes the work buffer and the stop, raises
`DivergenceError` at that step and returns None when the march ran to its
end.

The library is compiled on first use with `COMPILE` (`-O3`, no fused
multiply-adds; a C compiler `cc` must be on the path) and cached as
`march-<key>.so` in `$XDG_CACHE_HOME/heatflux` (by default
`~/.cache/heatflux`), where the key is the SHA-256 of the C source and the
compile command: a changed source or command builds a new file, and an
unchanged one loads the cached file without compiling. Files built for an
earlier source or command are never loaded again and may be deleted. Where
the cache cannot be written, the library is built in a fresh temporary
directory, which is removed once it is loaded. A build is published with
`os.replace`, so concurrent processes never load a half-written file. A
failed build raises `BuildError`, which names the command.

The C code writes through raw pointers, so every wrapper here checks the
shape, dtype and contiguity of each array it passes (`_addr`) and the range
of every index the C code follows (the adjoint's level pointers and
contribution nodes), and raises `ValidationError` before the call; the
callers do not check again.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import BuildError, DivergenceError, ValidationError
from .pchip import EQUIDISTANT_RTOL, Pchip

SOURCE = Path(__file__).with_name("_march.c")
# No -ffast-math and no fused multiply-adds: the loops must round as numpy
# does, and they give the same bits at -O0 and -O3 (tests/test_marchlib.py).
# No -march=native: a library cached in a shared home directory must not
# depend on the CPU that built it.
COMPILE = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")

# Stop codes of the C loops (`_march`), and the type of the adjoint's
# level pointers and contribution nodes (ptrdiff_t in C).
DONE, ALARM, SINGULAR = 0, 1, 2
INDEX = np.dtype(np.intp)


class Interp(ctypes.Structure):
    """A `pchip.Pchip` as the C loops read it (`interp` in `_march.c`)."""

    _fields_ = [
        ("table", ctypes.c_void_p),
        ("intervals", ctypes.c_long),
        ("lo", ctypes.c_double),
        ("hi", ctypes.c_double),
        ("tol", ctypes.c_double),
        ("inv_h", ctypes.c_double),
        ("h", ctypes.c_double),
        ("jac", ctypes.c_void_p),
    ]


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "heatflux"


def build(directory: Path, source: Path = SOURCE) -> Path:
    """The library compiled from `source` in `directory`: the file already
    there for the same source and `COMPILE`, or a new one compiled now."""
    key = hashlib.sha256(source.read_bytes() + "\0".join(COMPILE).encode()).hexdigest()
    target = Path(directory) / f"march-{key[:16]}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    command = [*COMPILE, "-o", partial, str(source)]
    try:
        done = subprocess.run(command, capture_output=True, text=True)
        failure = done.stderr.strip() if done.returncode else None
    except OSError as exc:
        failure = str(exc)
    if failure is not None:
        os.unlink(partial)
        raise BuildError(
            f"cannot build the march library: `{' '.join(command)}` failed ({failure}); "
            "heatflux needs a C compiler `cc` on first use"
        )
    os.replace(partial, target)
    return target


def _load(path: Path) -> ctypes.CDLL:
    """The library at `path`, its functions typed for ctypes."""
    lib = ctypes.CDLL(str(path))
    pointer, index, interp = ctypes.c_void_p, ctypes.c_int, ctypes.POINTER(Interp)
    head, stop = [index, index, ctypes.c_double, ctypes.c_double], ctypes.POINTER(index)
    lib.forward_march.argtypes = head + [interp] * 3 + [pointer] * 3 + [stop]
    lib.tangent_march.argtypes = head + [interp] * 3 + [pointer] * 5 + [stop]
    lib.adjoint_march.argtypes = head + [ctypes.c_double] + [interp] * 3 + [pointer] * 8 + [stop]
    lib.assemble_gradient.argtypes = [index, index, ctypes.c_double, pointer, pointer,
                                      interp, interp, pointer]
    lib.tridiagonal_solve.argtypes = [index] + [pointer] * 4
    lib.forward_march.restype = lib.adjoint_march.restype = lib.tangent_march.restype = index
    lib.tridiagonal_solve.restype = index
    lib.assemble_gradient.restype = None
    return lib


@functools.cache
def _library():
    """The library, loaded once per process."""
    try:
        return _load(build(cache_dir()))
    except OSError:
        scratch = tempfile.mkdtemp(prefix="heatflux-")
        try:
            return _load(build(Path(scratch)))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def _addr(a: np.ndarray, shape: tuple, dtype=np.float64) -> int:
    """The address of `a`, checked to be the C-contiguous array of this shape
    and type that the C loops read or write."""
    if a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous:
        raise ValidationError(f"the compiled marches need a C-contiguous {np.dtype(dtype)} "
                              f"array of shape {shape}, got {a.dtype} {a.shape}")
    return a.ctypes.data


def interpolant(p: Pchip) -> Interp:
    """`p` for the C code, with the clamping tolerance `pchip.eval` takes.
    Built on the first call and kept on `p`, so that it lives as long as
    the interval table and slope Jacobian of `p` it reads."""
    built = p.__dict__.get("_interp")
    if built is None:
        table = p._table
        lo, hi = float(table[0, 0]), float(table[5, -1])
        tol = EQUIDISTANT_RTOL * (hi - lo)
        built = Interp(_addr(table, (9, p.n - 1)), p.n - 1, lo, hi, tol, p._inv_h,
                       p.interval_width, _addr(p._slope_jac, (p.n, 5)))
        object.__setattr__(p, "_interp", built)
    return built


def _march(name: str, size: int, *args) -> None:
    """Call the C march `name` with `args`, then a work buffer of `size`
    doubles and the stop step. Raise `DivergenceError` when the march
    stopped, counted from 1 in march order: the state march's step matrix
    was singular (SINGULAR) or a solved level not finite (ALARM). Return
    when it ran to the end (DONE)."""
    work, stop = np.empty(size), ctypes.c_int()  # both live until the call returns
    code = getattr(_library(), name)(*args, work.ctypes.data, stop)
    if code != DONE:
        what = "singular step matrix" if code == SINGULAR else "solution became non-finite"
        raise DivergenceError(f"{what} at time step {stop.value}", step=stop.value)


def forward_march(U, r: float, c: float, alpha: Pchip, b0: Pchip, bL: Pchip, piv=None) -> None:
    """Run `forward_march` of `_march.c` on the field U, whose level 0 is
    set and finite, with the diffusivity `alpha` and the fluxes `b0` and
    `bL`. `piv`, when given, is an (nt, nx) block that receives each step's
    pivots."""
    nt, nx = U.shape[0] - 1, U.shape[1]
    _march("forward_march", 5 * nx - 3, nx, nt, r, c, *map(interpolant, (alpha, b0, bL)),
           _addr(U, U.shape), None if piv is None else _addr(piv, (nt, nx)))


def tangent_march(W, U, piv, h, r: float, c: float, alpha: Pchip, b0: Pchip, bL: Pchip) -> None:
    """Run `tangent_march` of `_march.c` on the field W, whose level 0 is
    set, along the trajectory U of its shape and the (nt, nx) pivot block
    `piv` that `forward_march` recorded for U with the same `alpha` and r,
    in the direction h of the flux values, those at x = 0 first; the march
    forms each step's two wall sources, grad_beta(u) . h, from h, and
    solves each step on its row of `piv`."""
    nt, nx = W.shape[0] - 1, W.shape[1]
    _march("tangent_march", 6 * nx - 4, nx, nt, r, c, *map(interpolant, (alpha, b0, bL)),
           _addr(U, W.shape), _addr(piv, (nt, nx)), _addr(W, W.shape), _addr(h, (b0.n + bL.n,)))


def adjoint_march(U, piv, start, node, value, r: float, c: float, dt: float, alpha: Pchip,
                  b0: Pchip, bL: Pchip, traces, phi=None) -> None:
    """Run `adjoint_march` of `_march.c` along the trajectory U and the
    (nt, nx) pivot block `piv` that `forward_march` recorded for U with the
    same `alpha` and r, with the point sources (start, node, value): every
    step solves on its row of `piv`, the (nt+1, 2) `traces` receive the
    wall entries of every level of phi, and `phi`, when given, every level
    (U's shape), up to the level it stops at."""
    levels, nx = U.shape
    k = node.size
    addrs = [_addr(U, U.shape), _addr(piv, (levels - 1, nx)), _addr(start, (levels + 1,), INDEX),
             _addr(node, (k,), INDEX), _addr(value, (k,)), _addr(traces, (levels, 2)),
             None if phi is None else _addr(phi, U.shape)]
    if k and (node.min() < 0 or node.max() >= nx):
        raise ValidationError(f"contribution node outside [0, {nx})")
    if (np.diff(start) < 0).any():
        raise ValidationError("level pointer decreases")
    if start[0] < 0 or start[-1] > k:
        raise ValidationError(f"level pointer outside the {k} contributions")
    _march("adjoint_march", 10 * nx - 4, nx, levels - 1, r, c, dt,
           *map(interpolant, (alpha, b0, bL)), *addrs)


def assemble_gradient(U, traces, dt: float, b0: Pchip, bL: Pchip) -> np.ndarray:
    """Run `assemble_gradient` of `_march.c` on the trajectory U and the
    (levels, 2) wall traces; returns the gradient, the values of the flux
    at x = 0 first."""
    levels, nx = U.shape
    grad = np.empty(b0.n + bL.n)
    _library().assemble_gradient(levels, nx, dt, _addr(U, U.shape), _addr(traces, (levels, 2)),
                                 interpolant(b0), interpolant(bL), grad.ctypes.data)
    return grad
