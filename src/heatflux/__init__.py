"""Identification of enthalpy-dependent boundary heat fluxes.

The package solves a one dimensional quasilinear cooling problem forward in
time, observes it at interior sensors, and recovers the two boundary flux
functions from noisy readings with adjoint gradients and a box-constrained
projected quasi-Newton method (plus a damped Landweber baseline).
"""

__version__ = "0.1.0"

from .errors import (
    DivergenceError,
    HeatfluxError,
    OptimizerError,
    RefinementError,
    ValidationError,
)

__all__ = [
    "DivergenceError",
    "HeatfluxError",
    "OptimizerError",
    "RefinementError",
    "ValidationError",
    "__version__",
]
