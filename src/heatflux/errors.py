"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: validation problems and a failed
build of the compiled march library exit with 2, solver divergence with 3,
optimizer failures with 4.
"""


class HeatfluxError(Exception):
    """Base class for all package errors."""


class ValidationError(HeatfluxError):
    """Invalid input data, shapes, partitions, bounds, or configuration."""


class DivergenceError(HeatfluxError):
    """A time-stepping solve produced non-finite values."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class RefinementError(HeatfluxError):
    """Nested-partition refinement hit the level cap before reaching tolerance."""

    def __init__(self, message: str, level: int, max_error: float):
        super().__init__(message)
        self.level = level
        self.max_error = max_error


class OptimizerError(HeatfluxError):
    """Optimization could not proceed (bad damping, inconsistent setup, ...)."""


class BuildError(HeatfluxError):
    """The compiled march library could not be built (no C compiler `cc`, or
    the compile failed); the message names the command."""
