"""The loader of the compiled march library: its cache, its build error, a
compile of its source with warnings as errors, the shipped optimized build
held to an unoptimized one bit for bit and at every stop, a run of the march
tests on a build under the address and undefined-behaviour sanitizers, the
interpolants it keeps and the argument checks that guard the C code's raw
pointers, each a `ValidationError`; and the library's tridiagonal solve,
the one elimination every march step calls, held to scipy's dgtsv bit for
bit where dgtsv keeps every pivot in place, to the plain reference
(`tests/plain_solve.py`) on every system, and shown to need no pivoting on
the matrices the marches build (scipy is imported by the tests only)."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgtsv

from heatflux import adjoint, forward, marchlib, observation, pchip
from heatflux.config import ExperimentConfig, exact_flux_parameter, inversion_partition
from heatflux.errors import BuildError, DivergenceError, ValidationError
from heatflux.forward import EnthalpyField, Grid
from plain_solve import plain_tridiagonal_solve


@pytest.mark.parametrize("command", [("false",), ("heatflux-no-such-compiler", "-O2")])
def test_failed_build_raises_an_error_naming_the_command(tmp_path, monkeypatch, command):
    # A compiler that fails and one that is not there at all.
    monkeypatch.setattr(marchlib, "COMPILE", command)
    with pytest.raises(BuildError, match=f"`{' '.join(command)} -o "):
        marchlib.build(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_unchanged_source_reuses_the_cached_library(tmp_path, monkeypatch):
    built = marchlib.build(tmp_path)
    stamp = built.stat().st_mtime_ns

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran for a cached library")

    monkeypatch.setattr(marchlib.subprocess, "run", no_compiler)
    assert marchlib.build(tmp_path) == built
    assert built.stat().st_mtime_ns == stamp
    assert list(tmp_path.iterdir()) == [built]


def test_changed_source_builds_a_new_library(tmp_path):
    cache = tmp_path / "cache"
    built = marchlib.build(cache)
    changed = tmp_path / "_march.c"
    changed.write_text(marchlib.SOURCE.read_text() + "/* changed */\n")
    rebuilt = marchlib.build(cache, changed)
    assert rebuilt != built
    assert sorted(cache.iterdir()) == sorted([built, rebuilt])


def test_source_compiles_without_warnings(tmp_path):
    # The shipped command with GCC's common warnings as errors: a C warning
    # fails the suite.
    command = [*marchlib.COMPILE, "-Wall", "-Wextra", "-Werror", "-o",
               str(tmp_path / "march.so"), str(marchlib.SOURCE)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def compile_source(path, level, *flags):
    """`_march.c` compiled into `path` with `COMPILE`'s flags, the
    optimization `level` for its -O flag and `flags` added; returns path."""
    command = [level if flag.startswith("-O") else flag for flag in marchlib.COMPILE]
    done = subprocess.run([*command, *flags, "-o", str(path), str(marchlib.SOURCE)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return path


@pytest.fixture(scope="module")
def unoptimized(tmp_path_factory):
    """The library built at -O0 with the shipped flags otherwise: no fused
    multiply-adds, so the optimizer may reorder no floating-point operation,
    and the shipped build must give every byte and every stop it gives."""
    assert "-O3" in marchlib.COMPILE and "-ffp-contract=off" in marchlib.COMPILE
    return marchlib._load(compile_source(tmp_path_factory.mktemp("O0") / "march.so", "-O0"))


def march_outputs(m, fp, u0, g, source):
    """Every array the four compiled functions give on one case: the state
    field and its pivots, the tangent field along it in a random direction,
    every level of phi with the wall traces, solved on the pivots and
    eliminated, and the assembled gradient."""
    field = forward.solve_ibvp(m, fp, u0, g, pivots=True)
    h = np.random.default_rng(23).standard_normal(2 * fp.n)
    W = adjoint.solve_sensitivity(field, m, fp, h)
    phi, eliminated = np.empty_like(field.values), np.empty_like(field.values)
    traces = adjoint.solve_adjoint(field, m, fp, source, phi)
    adjoint.solve_adjoint(EnthalpyField(g, field.values), m, fp, source, eliminated)
    return [field.values, field.pivots.rows, W.values, phi, eliminated, traces,
            adjoint.assemble_gradient(traces, field, fp)]


def test_marches_match_an_unoptimized_build_bitwise(monkeypatch, builtin_material, unoptimized):
    # On the march tests' grid (c = 33), at the exact fluxes, random ones
    # and the steep box corner where c*beta' exceeds 2, with a dense adjoint
    # source.
    cfg = ExperimentConfig()
    g = Grid(L=0.05, T=3.3, nx=31, nt=120)
    part, bmax = inversion_partition(cfg), cfg.beta_max
    rng = np.random.default_rng(19)
    steep = np.concatenate([np.where(part > 4.6e9, bmax, 0.0), np.where(part > 4.9e9, bmax, 0.0)])
    fluxes = [exact_flux_parameter(cfg),
              pchip.FluxParameter(rng.uniform(0.0, bmax, 2 * part.size), part, bmax),
              pchip.FluxParameter(steep, part, bmax)]
    u0 = np.full(g.nx, cfg.u0)
    levels = g.nt + 1
    source = observation.PointSources(np.arange(levels + 1) * g.nx,
                                      np.tile(np.arange(g.nx), levels),
                                      rng.standard_normal(levels * g.nx))
    shipped = [march_outputs(builtin_material, fp, u0, g, source) for fp in fluxes]
    monkeypatch.setattr(marchlib, "_library", lambda: unoptimized)
    for fp, want in zip(fluxes, shipped):
        got = march_outputs(builtin_material, fp, u0, g, source)
        names = ("state", "pivots", "tangent", "phi", "eliminated phi", "traces", "gradient")
        for name, a, b in zip(names, got, want):
            assert a.tobytes() == b.tobytes(), name


def divergence(solve):
    """The step and the message of the `DivergenceError` that `solve()`
    raises."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as got:
        solve()
    return got.value.step, str(got.value)


def test_march_stops_match_an_unoptimized_build(monkeypatch, builtin_material,
                                                singular_level_case, unoptimized):
    # Each march's stop on both builds: the state march where c*beta
    # overflows (both fluxes 1e307 below 5.2e9), the adjoint at an inf in
    # its source, eliminating and on the state march's pivots, and the
    # tangent march, in a direction whose boundary source overflows, at a
    # non-finite level and at a singular step.
    cfg = ExperimentConfig()
    g = Grid(L=0.05, T=3.3, nx=31, nt=120)
    exact = exact_flux_parameter(cfg)
    part = exact.partition
    u0 = np.full(g.nx, cfg.u0)
    with np.errstate(over="ignore", invalid="ignore"):
        hot = pchip.FluxParameter(np.where(np.tile(part, 2) < 5.2e9, 1e307, exact.beta), part, 1e307)
    field = forward.solve_ibvp(builtin_material, exact, u0, g, pivots=True)
    levels = g.nt + 1
    value = np.random.default_rng(19).standard_normal(levels * g.nx)
    value[40 * g.nx + 3] = np.inf
    source = observation.PointSources(np.arange(levels + 1) * g.nx,
                                      np.tile(np.arange(g.nx), levels), value)
    sg, sm, su, sfp = singular_level_case
    h = np.zeros(2 * sfp.n)
    h[sfp.n - 1] = 1e308
    hot_level = su.values.copy()
    hot_level[2] = 2.0
    cases = [
        lambda: forward.solve_ibvp(builtin_material, hot, u0, g),
        lambda: adjoint.solve_adjoint(EnthalpyField(g, field.values), builtin_material, exact,
                                      source),
        lambda: adjoint.solve_adjoint(field, builtin_material, exact, source),
        lambda: adjoint.solve_sensitivity(EnthalpyField(sg, hot_level), sm, sfp, h),
        lambda: adjoint.solve_sensitivity(su, sm, sfp, h),
    ]
    shipped = [divergence(case) for case in cases]
    assert [message.split(" at ")[0] for _, message in shipped] == [
        "solution became non-finite"] * 4 + ["singular step matrix"]
    assert shipped[1] == shipped[2]
    monkeypatch.setattr(marchlib, "_library", lambda: unoptimized)
    assert [divergence(case) for case in cases] == shipped


def test_march_tests_pass_under_the_sanitizers(tmp_path):
    # `_march.c` built at -O1 with the shipped flags otherwise under the
    # address and undefined-behaviour sanitizers (float casts that overflow
    # included), every report fatal, and put where the loader finds the
    # shipped build; the march, state and adjoint tests then run on it in
    # a fresh interpreter.
    runtime = Path(subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                                  text=True, timeout=120).stdout.strip())
    if not (runtime.is_absolute() and runtime.is_file()):
        pytest.skip("the C compiler has no AddressSanitizer runtime (libasan.so) to preload")
    shipped = marchlib.build(tmp_path / "heatflux")
    compile_source(shipped, "-O1", "-fsanitize=address,undefined,float-cast-overflow",
                   "-fno-sanitize-recover=all")
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "XDG_CACHE_HOME": str(tmp_path),
           "LD_PRELOAD": str(runtime), "ASAN_OPTIONS": "detect_leaks=0"}
    tests = ["tests/test_march_kernels.py", "tests/test_forward.py", "tests/test_adjoint.py"]
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, (done.stdout + done.stderr)[-4000:]
    assert list(shipped.parent.iterdir()) == [shipped]  # no other build was loaded


def test_interpolant_is_built_once_per_pchip():
    p = pchip.Pchip([0.0, 1.0, 2.0], [1.0, 3.0, 2.0])
    first = marchlib.interpolant(p)
    assert marchlib.interpolant(p) is first
    assert marchlib.interpolant(pchip.Pchip(p.knots, p.values)) is not first


def test_unwritable_cache_builds_in_a_temporary_directory(tmp_path, monkeypatch):
    # A regular file where the cache directory should be: the library is
    # built in a temporary directory instead, which is gone once it is loaded.
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(marchlib, "cache_dir", lambda: blocker / "heatflux")
    monkeypatch.setattr(marchlib.tempfile, "tempdir", str(tmp_path))
    lib = marchlib._library.__wrapped__()
    assert lib.forward_march and lib.tridiagonal_solve
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((3, 4)),  # the wrong shape
        np.zeros((4, 3), dtype=np.float32),  # the wrong dtype
        np.zeros((4, 6))[:, ::2],  # a strided view
        np.zeros((4, 3), order="F"),  # Fortran order
    ],
)
def test_addr_refuses_an_array_the_c_code_cannot_read(a):
    with pytest.raises(ValidationError, match="C-contiguous float64 array of shape \\(4, 3\\)"):
        marchlib._addr(a, (4, 3))


# One interpolant for the wrapper calls below, as diffusivity and both fluxes.
FLAT = pchip.Pchip([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])


def adjoint_args():
    """Valid arguments of `marchlib.adjoint_march`: 3 steps on 5 nodes along
    a flat trajectory, with a point source on level 1 and two on level 3,
    which the first step reads."""
    return dict(U=np.zeros((4, 5)), start=np.array([0, 0, 1, 1, 3], dtype=marchlib.INDEX),
                node=np.array([2, 0, 4], dtype=marchlib.INDEX), value=np.array([1.0, 2.0, -1.0]),
                r=1.0, c=1.0, dt=1.0, alpha=FLAT, b0=FLAT, bL=FLAT, traces=np.empty((4, 2)))


def test_adjoint_march_runs_on_valid_arguments():
    args = adjoint_args()
    phi = np.full((4, 5), np.nan)
    assert marchlib.adjoint_march(**args, phi=phi) is None
    traces = args["traces"]
    assert np.isfinite(phi).all() and (phi[3] == 0.0).all() and (phi[2] != 0.0).all()
    assert traces.tobytes() == phi[:, [0, -1]].tobytes()
    again = adjoint_args()
    assert marchlib.adjoint_march(**again) is None
    assert again["traces"].tobytes() == traces.tobytes()


@pytest.mark.parametrize(
    "name, value",
    [
        ("U", np.zeros((4, 5), order="F")),
        ("start", np.array([0, 0, 1, 3], dtype=marchlib.INDEX)),  # one level short
        ("start", np.array([0, 0, 1, 1, 3], dtype=np.int32)),
        ("node", np.array([2, 0], dtype=marchlib.INDEX)),  # fewer nodes than values
        ("node", np.array([[2, 0, 4]], dtype=marchlib.INDEX)),
        ("value", np.array([1.0, 2.0, -1.0], dtype=np.float32)),
        ("value", np.array([1.0, 0.0, 2.0, 0.0, -1.0, 0.0])[::2]),
        ("traces", np.empty((3, 2))),  # no trace for the last level
        ("traces", np.empty((2, 4)).T),
        ("phi", np.empty((4, 6))),
        ("phi", np.empty((4, 5), dtype=np.float32)),
        ("piv", np.ones((4, 5))),  # a row for the last level, which no step solves from
        ("piv", np.ones((3, 5), dtype=np.float32)),
        ("piv", np.ones((3, 5), order="F")),
    ],
    ids=["U-fortran", "start-levels", "start-dtype", "node-count", "node-2d", "value-dtype",
         "value-strided", "traces-levels", "traces-fortran", "phi-shape", "phi-dtype",
         "piv-shape", "piv-dtype", "piv-fortran"],
)
def test_adjoint_march_refuses_a_misshapen_array(name, value):
    args = adjoint_args()
    args[name] = value
    with pytest.raises(ValidationError, match="C-contiguous"):
        marchlib.adjoint_march(**args)


@pytest.mark.parametrize(
    "name, index, value, message",
    [
        ("node", 1, 5, "contribution node outside"),
        ("node", 2, -1, "contribution node outside"),
        ("start", 3, 0, "level pointer decreases"),
        ("start", 4, 4, "level pointer outside"),
        ("start", 0, -1, "level pointer outside"),
    ],
    ids=["node-past-the-wall", "node-negative", "start-decreases", "start-overruns",
         "start-negative"],
)
def test_adjoint_march_refuses_an_index_out_of_range(name, index, value, message):
    args = adjoint_args()
    args[name][index] = value
    with pytest.raises(ValidationError, match=message):
        marchlib.adjoint_march(**args)


def tangent_args(nt=3, nx=5):
    """Valid arguments of `marchlib.tangent_march`: nt steps on nx nodes
    along a flat trajectory at the left knot of `FLAT`, where the row of
    value sensitivities is (1, 0, 0), in a direction that gives each step
    the wall sources 1 and -1."""
    h = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])
    return dict(W=np.zeros((nt + 1, nx)), U=np.zeros((nt + 1, nx)), h=h,
                r=1.0, c=1.0, alpha=FLAT, b0=FLAT, bL=FLAT)


def test_tangent_march_runs_on_valid_arguments():
    args = tangent_args()
    assert marchlib.tangent_march(**args) is None
    W = args["W"]
    assert np.isfinite(W).all() and (W[0] == 0.0).all() and (W[1] != 0.0).any()


@pytest.mark.parametrize(
    "name, value",
    [
        ("W", np.zeros((4, 6))),  # more nodes than the trajectory
        ("U", np.zeros((3, 5))),  # as many trajectory levels as steps, not one more
        ("h", np.zeros(5)),  # one flux value short
        ("h", np.zeros((2, 3))),  # the two fluxes' values as rows
        ("W", np.zeros((4, 5), dtype=np.float32)),
        ("U", np.zeros((4, 5), order="F")),
        ("h", np.zeros(12)[::2]),
    ],
    ids=["W-shape", "U-levels", "h-length", "h-2d", "W-dtype", "U-fortran", "h-strided"],
)
def test_tangent_march_refuses_a_misshapen_array(name, value):
    args = tangent_args()
    args[name] = value
    with pytest.raises(ValidationError, match="C-contiguous"):
        marchlib.tangent_march(**args)


def test_marches_stop_at_a_level_that_overflows_at_one_node():
    # Two steps on 5 nodes with r = 1 on the flat diffusivity, and a wall
    # term of 1.5e308 at x = 0 on the first step of each march (the flux
    # there; the tangent's wall source, the row (1, 0, 0) of a wall at the
    # left knot of FLAT times h; the adjoint's point source): the
    # elimination stays finite and only the back substitution's last
    # division, at node 0, overflows. Each march must stop at that level,
    # step 1, not at the next one, which the infinite wall entry spoils.
    p, hot = FLAT, pchip.Pchip([0.0, 1.0, 2.0], [1.5e308] * 3)
    U, W, phi = np.zeros((3, 5)), np.zeros((3, 5)), np.zeros((3, 5))
    h = np.array([1.5e308, 0.0, 0.0, 0.0, 0.0, 0.0])
    start, node = np.array([0, 0, 0, 1], dtype=marchlib.INDEX), np.zeros(1, dtype=marchlib.INDEX)
    marches = [
        (lambda: marchlib.forward_march(U, 1.0, 1.0, p, hot, p), U[1]),
        (lambda: marchlib.tangent_march(W, np.zeros((3, 5)), h, 1.0, 1.0, p, p, p), W[1]),
        (lambda: marchlib.adjoint_march(np.zeros((3, 5)), start, node, np.array([0.75e308]),
                                        1.0, 1.0, 1.0, p, p, p, np.empty((3, 2)), phi), phi[1]),
    ]
    for march, level in marches:
        with pytest.raises(DivergenceError, match="non-finite at time step 1$"):
            march()
        assert np.isinf(level[0]) and np.isfinite(level[1:]).all()


def test_forward_march_refuses_a_fortran_ordered_field():
    with pytest.raises(ValidationError, match="C-contiguous"):
        marchlib.forward_march(np.zeros((4, 5), order="F"), 1.0, 1.0, FLAT, FLAT, FLAT)


@pytest.mark.parametrize(
    "piv",
    [np.empty((4, 5)), np.empty((3, 5), dtype=np.float32), np.empty((3, 5), order="F")],
    ids=["shape", "dtype", "fortran"],
)
def test_forward_march_refuses_a_misshapen_pivot_block(piv):
    # Three steps on 5 nodes record a (3, 5) block.
    U = np.zeros((4, 5))
    with pytest.raises(ValidationError, match="C-contiguous float64 array of shape \\(3, 5\\)"):
        marchlib.forward_march(U, 1.0, 1.0, FLAT, FLAT, FLAT, piv)
    assert not U[1:].any()  # refused before the march ran


@pytest.mark.parametrize("traces", [np.zeros((4, 3)), np.zeros((3, 2)), np.zeros((2, 4)).T])
def test_assemble_gradient_refuses_misshapen_traces(traces):
    with pytest.raises(ValidationError, match="C-contiguous"):
        marchlib.assemble_gradient(np.zeros((4, 5)), traces, 1.0, FLAT, FLAT)


def library_solve(dl, d, du, b):
    """The library's `tridiagonal_solve` on copies of the system, returned
    as scipy's dgtsv returns its outputs: (dl, d, du, x, info)."""
    dl, d, du, b = (np.array(a, dtype=float) for a in (dl, d, du, b))
    info = marchlib._library().tridiagonal_solve(d.size, *(a.ctypes.data for a in (dl, d, du, b)))
    return dl, d, du, b, info


def assert_solves_as_lapack(dl, d, du, b):
    """The solve leaves every output array with LAPACK's bytes (signed
    zeros, infinities and NaNs included) and returns its info; returns the
    solve's outputs."""
    got = library_solve(dl, d, du, b)
    with np.errstate(all="ignore"):
        want = dgtsv(*(np.array(a, dtype=float) for a in (dl, d, du, b)))
    assert got[4] == want[4]
    for name, g, w in zip(("dl", "d", "du", "x"), got[:4], want[:4]):
        assert g.tobytes() == w.tobytes(), f"{name}: {g} != {w}"
    return got


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (5, 2), (31, 3), (91, 4)])
def test_tridiagonal_solve_matches_lapack_on_dominant_systems(n, seed):
    rng = np.random.default_rng(seed)
    dl, du = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1)
    d = 2.5 + rng.uniform(0, 1, n)
    d[rng.uniform(size=n) < 0.5] *= -1
    for scale in (1.0, 1e-300, 1e300):
        got = assert_solves_as_lapack(dl * scale, d * scale, du * scale, rng.standard_normal(n))
        assert got[4] == 0 and (got[0][:-1] == 0.0).all()  # eliminated below the diagonal


@pytest.mark.parametrize(
    "dl, d, du, info",
    [
        ([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0], 1),  # a zero first pivot
        ([1.0, 0.0, 1.0], [1.0, 1.0, 2.0, 1.0], [1.0, 1.0, 1.0], 2),  # eliminated to zero
        ([1.0, 0.5], [2.0, 1.0, 2.0], [1.0, 2.0], 3),  # only the last pivot
        ([1.0], [1.0, 1.0], [1.0], 2),  # two equal rows
        ([0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0], 1),  # all zero
    ],
)
def test_tridiagonal_solve_reports_the_singular_row_lapack_reports(dl, d, du, info):
    assert assert_solves_as_lapack(dl, d, du, np.arange(1.0, len(d) + 1))[4] == info


def test_tridiagonal_solve_matches_lapack_on_non_finite_entries():
    # Random systems whose entries are drawn from a pool of zeros of both
    # signs, infinities, NaNs of both signs and tiny and huge numbers, with
    # NaN and inf in every position: the solve leaves NaN where the plain
    # reference does and every other byte as it does. IEEE 754 does not say
    # which of two NaN operands an operation returns, so the signs of NaNs
    # are not compared.
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, np.inf, -np.inf, np.nan, -np.nan,
                     1e-300, 1e300])
    for _ in range(3000):
        n = int(rng.integers(2, 7))
        system = [pool[rng.integers(0, pool.size, k)] for k in (n - 1, n, n - 1, n)]
        got = library_solve(*system)
        want = plain_tridiagonal_solve(*system)
        assert got[4] == want[4]
        for name, g, w in zip(("dl", "d", "du", "x"), got[:4], want[:4]):
            nan = np.isnan(w)
            assert (np.isnan(g) == nan).all(), f"{name}: {g} != {w}"
            assert g[~nan].tobytes() == w[~nan].tobytes(), f"{name}: {g} != {w}"


def test_tridiagonal_solve_keeps_the_signs_of_zeros():
    # Right-hand sides of signed zeros on a system whose off-diagonals are
    # zeros of both signs: the back substitution's dl term, 0 * x[i+2],
    # decides the sign of 10 of the 16 solutions.
    dl = np.array([-0.0, 0.0, -0.0])
    d = np.array([-2.0, 3.0, -4.0, 5.0])
    du = np.array([0.0, -0.0, -0.0])
    for signs in itertools.product((0.0, -0.0), repeat=4):
        x = assert_solves_as_lapack(dl, d, du, signs)[3]
        assert (x == 0.0).all()


def march_bands(r, alpha):
    """The bands (dl, d, du) of I + r K from the nodal diffusivities alpha,
    with the operations of `fill_bands` in `_march.c`."""
    s = alpha[:-1] + alpha[1:]
    du, dl = s * (-0.5 * r), s * (-0.5 * r)
    du[0], dl[-1] = s[0] * -r, s[-1] * -r
    d = np.concatenate([[s[0] + s[0]], s[:-1] + s[1:], [s[-1] + s[-1]]]) * (0.5 * r) + 1.0
    return dl, d, du


def backward_error(dl, d, du, b, x):
    """The componentwise backward error max_i |b - A x|_i / (|A| |x| + |b|)_i
    of x for the tridiagonal A = (dl, d, du), its residual summed exactly."""
    n, worst = d.size, 0.0
    for i in range(n):
        terms = [Fraction(d[i]) * Fraction(x[i])]
        if i > 0:
            terms.append(Fraction(dl[i - 1]) * Fraction(x[i - 1]))
        if i < n - 1:
            terms.append(Fraction(du[i]) * Fraction(x[i + 1]))
        residual = abs(Fraction(b[i]) - sum(terms))
        scale = abs(Fraction(b[i])) + sum(abs(t) for t in terms)
        worst = max(worst, float(residual / scale))
    return worst


@settings(max_examples=150, deadline=None)
@given(first=st.floats(min_value=-3.0, max_value=8.0),
       steps=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=199),
       r=st.floats(min_value=1e-2, max_value=1e2), seed=st.integers(0, 2**32 - 1))
def test_march_matrices_need_no_pivoting(first, steps, r, seed):
    # The invariant the elimination without pivoting rests on: on the
    # matrix I + r K of any positive diffusivity, here r alpha from 1e-3 to
    # 1e8 with neighbouring nodes up to 1e3 apart on 3 to 200 nodes, every
    # pivot is at least 1 and the solve is backward stable componentwise.
    log_ra = np.clip(first + np.concatenate([[0.0], np.cumsum(steps)]), -3.0, 8.0)
    alpha = 10.0**log_ra / r
    dl, d, du = march_bands(r, alpha)
    b = np.random.default_rng(seed).standard_normal(d.size)
    _, pivots, _, x, info = library_solve(dl, d, du, b)
    assert info == 0
    assert pivots.min() >= 1.0
    assert backward_error(dl, d, du, b, x) <= 4 * np.finfo(float).eps
