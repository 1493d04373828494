"""Layering: the numerical modules do no file work, one module builds and
calls the compiled marches, and no module reaches into another's private
names.

The file formats live in `cli` (measurement and result files) and `config`
(config files and input tables); the pipeline's modules see arrays only.
`marchlib` alone starts the compiler and talks to the compiled library;
`forward` and `adjoint` reach it through `marchlib` only, handing it the
`pchip.Pchip`s they hold: only `marchlib` makes their C views
(`interpolant`, `Interp`) and reads the C loops' stop codes, which it turns
into `DivergenceError`. No module imports a `_`-prefixed name from another
module of the package. No module imports scipy: every tridiagonal solve runs
in the compiled loops, on the library's own port of LAPACK's dgtsv, and
scipy is a dependency of the tests and the benchmark only. The march
pipeline (`forward`, `observation`, `adjoint`) calls no BLAS either, whose
summation order depends on the CPU's kernel. The pipeline, with `optimizer`
and `marchlib`, imports nothing from `material`, which only builds the
diffusivity interpolant the pipeline takes (`config` calls it). Every
exception class in `errors` is raised by some package module. In
`_march.c` only the state march and the exported solve eliminate: the
tangent and adjoint marches solve on the pivots the state march recorded.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heatflux

NUMERIC_MODULES = ["pchip", "material", "forward", "observation", "adjoint", "optimizer"]
FILE_MODULES = {"csv", "io", "json"}
NATIVE_MODULES = {"ctypes", "subprocess"}
STOP_CODES = {"DONE", "ALARM", "SINGULAR"}
C_VIEWS = {"interpolant", "Interp"}
MARCH_MODULES = ["forward", "observation", "adjoint"]
BLAS_NAMES = {"dot", "vdot", "linalg"}
PACKAGE = Path(heatflux.__file__).parent


def imported_names(path: Path) -> set:
    """Full dotted names of every module and `from` import in `path`:
    `from a.b import c` gives a.b and a.b.c."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def imported_modules(path: Path) -> set:
    """Top-level names of every module imported anywhere in `path`."""
    return {name.split(".")[0] for name in imported_names(path)}


@pytest.mark.parametrize("module", NUMERIC_MODULES)
def test_numeric_module_imports_no_file_format(module):
    path = Path(heatflux.__file__).parent / f"{module}.py"
    assert not imported_modules(path) & FILE_MODULES


def test_only_the_loader_builds_or_calls_native_code():
    package = Path(heatflux.__file__).parent
    users = {
        path.stem for path in package.glob("*.py") if imported_modules(path) & NATIVE_MODULES
    }
    assert users == {"marchlib"}


def test_no_module_imports_scipy():
    package = Path(heatflux.__file__).parent
    users = {path.stem for path in package.glob("*.py") if "scipy" in imported_modules(path)}
    assert users == set()


def test_importing_the_cli_leaves_scipy_unloaded():
    # A fresh interpreter: the package's imports and what they import.
    program = "import heatflux.cli, sys; assert 'scipy' not in sys.modules"
    source = Path(heatflux.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(source)}, timeout=120)
    assert done.returncode == 0, done.stderr


def test_no_module_imports_a_private_name_of_another():
    private = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "heatflux"
            ):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names if alias.name.startswith("heatflux.")
                         for part in alias.name.split(".")]
            else:
                continue
            private.update(f"{path.stem}: {name}" for name in names if name.startswith("_"))
    assert private == set()


def modules_naming(names: set) -> set:
    """The modules of the package that name one of `names`: as a variable,
    an attribute or an import."""
    users = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in names or isinstance(node, ast.alias) and node.name in names:
                users.add(path.stem)
    return users


def test_only_the_loader_reads_the_stop_codes():
    assert modules_naming(STOP_CODES) == {"marchlib"}


def test_only_the_loader_makes_the_c_views():
    # The march wrappers take `pchip.Pchip`s; their C views stay inside.
    assert modules_naming(C_VIEWS) == {"marchlib"}


@pytest.mark.parametrize("module", MARCH_MODULES)
def test_march_pipeline_calls_no_blas(module):
    # No matrix product and no np.dot, np.vdot or np.linalg: OpenBLAS picks
    # the order of such a sum by CPU, so the marches' bytes would too.
    uses = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.add(f"@ at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            uses.add(f"{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.alias) and set(node.name.split(".")) & BLAS_NAMES:
            uses.add(f"import {node.name} at line {node.lineno}")
    assert uses == set()


@pytest.mark.parametrize("module", MARCH_MODULES + ["optimizer", "marchlib"])
def test_march_pipeline_imports_nothing_from_material(module):
    path = PACKAGE / f"{module}.py"
    package = {name.split(".")[1] for name in imported_names(path) if name.startswith("heatflux.")}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module else [a.name for a in node.names])
    assert "material" not in package


def test_no_module_makes_an_object_past_its_constructor():
    # `object.__new__` would make a `Pchip` without its knot and value checks.
    calls = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__":
                calls.add(f"{path.stem}: line {node.lineno}")
    assert calls == set()


def test_every_package_error_is_raised():
    # Each subclass of HeatfluxError in `errors` is raised by some package
    # module, so that no exception class outlives its last `raise`.
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    errors = {"HeatfluxError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and {ast.unparse(b) for b in node.bases} & errors:
            errors.add(node.name)
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).split(".")[-1])
    assert errors - {"HeatfluxError"} - raised == set()


def c_functions(source: str) -> dict:
    """The function definitions of a C source, name -> body, as `_march.c`
    writes them: the definition starts at column 0 and its body ends at the
    next "}" at column 0."""
    pattern = r"^[a-z][^;{}()]*?\b(\w+)\([^;{]*\)\s*\{(.*?)^\}"
    return {m.group(1): m.group(2) for m in re.finditer(pattern, source, re.M | re.S)}


def test_only_the_state_march_eliminates():
    # A tangent step and the adjoint step solve the matrix the state step
    # from the same level eliminated, on the pivots it recorded: one solve
    # path for the linearized marches, with no elimination of their own.
    bodies = c_functions((PACKAGE / "_march.c").read_text())
    assert {"eliminate", "forward_march", "tangent_march", "adjoint_march"} <= bodies.keys()
    callers = {name for name, body in bodies.items() if re.search(r"\beliminate\(", body)}
    assert callers == {"forward_march", "tridiagonal_solve"}
