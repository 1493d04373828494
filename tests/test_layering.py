"""Layering: the numerical modules do no file work, and one module builds
and calls the compiled marches.

The file formats live in `cli` (measurement and result files) and `config`
(config files and input tables); the pipeline's modules see arrays only.
`marchlib` alone starts the compiler and talks to the compiled library;
`forward`, `adjoint` and `pchip` reach it through `marchlib` only. No module
imports scipy: every tridiagonal solve runs in the compiled loops, on the
library's own port of LAPACK's dgtsv, and scipy is a dependency of the
tests and the benchmark only.
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
