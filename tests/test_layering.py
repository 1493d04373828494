"""Layering: the numerical modules do no file work, one module builds and
calls the compiled marches, and no module reaches into another's private
names.

The file formats live in `cli` (measurement and result files) and `config`
(config files and input tables); the pipeline's modules see arrays only.
`marchlib` alone starts the compiler and talks to the compiled library;
`forward`, `adjoint` and `pchip` reach it through `marchlib` only, and only
`marchlib` reads the C loops' stop codes, which it turns into
`DivergenceError`. No module imports a `_`-prefixed name from another
module of the package. No module imports scipy: every tridiagonal solve
runs in the compiled loops, on the library's own port of LAPACK's dgtsv,
and scipy is a dependency of the tests and the benchmark only.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heatflux

NUMERIC_MODULES = ["pchip", "material", "forward", "observation", "adjoint", "optimizer"]
FILE_MODULES = {"csv", "io", "json"}
NATIVE_MODULES = {"ctypes", "subprocess"}
STOP_CODES = {"DONE", "ALARM", "SINGULAR"}
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


def test_only_the_loader_reads_the_stop_codes():
    users = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in STOP_CODES or isinstance(node, ast.alias) and node.name in STOP_CODES:
                users.add(path.stem)
    assert users == {"marchlib"}
