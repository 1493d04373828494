"""Shared fixtures: materials, coarse grids, manufactured solutions, and
CSV input files."""

import numpy as np
import pytest

from heatflux import material as material_mod
from heatflux import pchip
from heatflux.forward import EnthalpyField, Grid


@pytest.fixture(scope="session")
def builtin_material():
    return material_mod.builtin_material()


def make_constant_material(alpha: float, u_top: float = 8.0e9):
    """Material with constant diffusivity `alpha` covering [0, u_top].

    Constant capacity and conductivity give alpha'(u) = k/C everywhere, which
    makes manufactured solutions exactly representable.
    """
    cap = 3.8e6
    theta_top = material_mod.THETA_REF + u_top / cap
    theta = np.linspace(material_mod.THETA_REF, theta_top, 33)
    return material_mod.build_material(
        theta, np.full(theta.shape, cap), np.full(theta.shape, alpha * cap)
    )


@pytest.fixture(scope="session")
def constant_material():
    return make_constant_material(4.0e-6)


@pytest.fixture
def singular_level_case():
    """(grid, material, trajectory, flux): a made-up trajectory on three nodes
    with r = 1 whose level 4 sits where the diffusivity is -1/4: the bands
    of the step from that level, 0.5 on the diagonal, 0.5 and 0.25 off it,
    make I + rK exactly singular (its eigenvalues are 1 + r*alpha*(0, 2,
    4)). Every other level sits at 0, where the diffusivity is 1. The
    fluxes are zero."""
    g = Grid(L=2.0, T=8.0, nx=3, nt=8)
    m = material_mod.MaterialModel(
        diffusivity=pchip.Pchip([0.0, 1.0, 2.0], [1.0, -0.25, 1.0])
    )
    U = np.zeros((g.nt + 1, g.nx))
    U[4] = 1.0
    fp = pchip.FluxParameter(np.zeros(6), np.linspace(0.0, 2.0, 3), 1.0)
    return g, m, EnthalpyField(g, U), fp


@pytest.fixture
def coarse_grid():
    return Grid(L=0.05, T=2.0, nx=21, nt=40)


@pytest.fixture
def write_csv(tmp_path):
    """Write `rows` under `header` to `tmp_path / name`, floats as `repr`
    (which round-trips exactly), and return the path. Builds the input files
    that `load_material` and `load_pchip` read."""

    def write(name, header, rows):
        lines = [",".join(header)]
        lines += [",".join(repr(float(v)) for v in row) for row in rows]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    return write
