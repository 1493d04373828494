"""Reference march: a machine-speed probe timed inside the timed command.

On a shared host the speed of one vCPU drifts by 20-40% within a minute,
host-wide, and the drift slows the program and any other code on that vCPU
alike. The benchmark therefore times a fixed kernel of its own, a small
tridiagonal march much like the program's, every `PERIOD` seconds between the
program's marches, and reports the timed command's wall time in units of the
kernel's step time. The drift cancels in that ratio; a change to the program
leaves the kernel alone, so the ratio still moves with the program.
"""

from __future__ import annotations

import time
from array import array

import numpy as np
from scipy.linalg.lapack import dgtsv

NX = 91  # nodes, as on the default inversion grid
STEPS = 800  # time steps per probe: about 15-20 ms
PERIOD = 0.25  # seconds between probes, at the first march end after it

_U0 = 0.2 + 0.6 * np.sin(np.linspace(0.0, np.pi, NX)) ** 2
_TABLE_U = np.array([0.0, 0.5, 1.0])
_TABLE_A = np.array([1.0, 2.0, 1.5])


def reference_march(steps: int = STEPS) -> np.ndarray:
    """March a fixed nonlinear diffusion problem `steps` steps: a lookup of
    the diffusivity, the banded operator and one tridiagonal solve per step."""
    u = _U0.copy()
    ab = np.zeros((3, NX))
    for _ in range(steps):
        a = np.interp(u, _TABLE_U, _TABLE_A)
        amid = 0.5 * (a[:-1] + a[1:])
        ab[0, 1:] = -0.05 * amid
        ab[1, 0] = ab[1, -1] = 1.2
        ab[1, 1:-1] = 1.0 + 0.1 * (amid[:-1] + amid[1:])
        ab[2, :-1] = -0.05 * amid
        rhs = u.copy()
        rhs[0] -= 1e-3
        u = dgtsv(ab[2, :-1].copy(), ab[1].copy(), ab[0, 1:].copy(), rhs)[3]
    return u


class ReferenceProbe:
    """Times `reference_march` at most every `period` seconds."""

    def __init__(self, period: float = PERIOD, steps: int = STEPS, clock=time.perf_counter):
        self.period = period
        self.steps = steps
        self.clock = clock
        self.samples = array("d")  # seconds per probe
        self._last = clock()

    def run(self) -> float:
        """Run one probe now; its duration in seconds."""
        t0 = self.clock()
        reference_march(self.steps)
        t1 = self.clock()
        self.samples.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def maybe_run(self) -> None:
        """Run a probe when `period` has passed since the last one ended."""
        if self.clock() - self._last >= self.period:
            self.run()
