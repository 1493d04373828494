"""Box-constrained projected quasi-Newton solver and Landweber baseline.

Both solvers work on the unit box [0, 1]^dim: `make_pde_problem` scales the
flux values by their physical bound, and a start point `SolveConfig.beta0`
is given in those unit-box coordinates.

The projected quasi-Newton (PQN) iteration keeps a dense BFGS approximation
S of the inverse Hessian. Before each step two index sets are masked out of
S: variables pinned at a bound whose gradient pushes outward, and variables
that the once-masked matrix would still push outward. The step direction is
the masked matrix applied to the negative gradient, and the step length
comes from one backtracking loop over the projected trial points, lambda =
1, 1/2, ... down to `LAMBDA_MIN` (projected Armijo backtracking; Nocedal &
Wright, *Numerical Optimization*, sections 3.1 and 16.7). A trial passes
when its objective satisfies the Armijo test and its gradient is finite and
within `GRAD_GUARD_FACTOR` of the running gradient scale; a trial whose
objective or gradient raises `DivergenceError` is rejected like one that
fails either test, not the end of the run. Iterations stop once the
normalized residual falls below rho times the recorded noise level
(discrepancy principle), the iteration budget runs out, the iterate is
stationary, or the step underflows (`line_search_failure`).

The attenuated Landweber baseline iterates projected gradient descent with a
constant damping factor, serving as the comparison method; a streak of ten
consecutive residual increases aborts it as a damping problem.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import adjoint
from .errors import DivergenceError, OptimizerError, ValidationError
from .forward import Grid
from .observation import Measurement
from .pchip import FluxParameter, Pchip

log = logging.getLogger(__name__)

ARMIJO_C = 0.5
ARMIJO_TAU = 0.5
LAMBDA_MIN = 1e-12
CURVATURE_RTOL = 1e-12
STATIONARITY_RTOL = 1e-14
DIVERGENCE_STREAK = 10
# A trial whose gradient exceeds the running gradient scale by this factor is
# rejected like one that fails the Armijo test; see _backtrack.
GRAD_GUARD_FACTOR = 1e5


@dataclass
class Problem:
    """Inverse problem seen by the solvers.

    `gradient` returns the pair (objective value, gradient vector) at a
    point; `objective` just the value. `delta` feeds the discrepancy test
    f <= rho * delta, so f must be normalized the way `delta` is.
    The solvers search the unit box [0, 1]^dim. Problems built by
    `make_pde_problem` are dimensionless (see there): their f is the misfit
    over `data_norm_sq`, the squared norm of the readings, and `fluxes`
    maps a unit-box iterate to the physical `FluxParameter` the objective
    solves with. Their callers read both from here rather than derive them
    again.
    """

    dim: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], tuple[float, np.ndarray]]
    delta: float = 0.0
    data_norm_sq: float = 1.0
    fluxes: Callable[[np.ndarray], FluxParameter] | None = None


@dataclass
class SolveConfig:
    """Iteration budget, discrepancy factor rho, start point and Landweber
    damping. `beta0` is in unit-box coordinates (None: all zeros) and is
    projected onto the box before the first step."""

    max_iter: int = 500
    rho: float = 2.0
    beta0: np.ndarray | None = None
    damping: float | None = None


@dataclass
class OptimizerState:
    """The record of one run: the final iterate and metric, the stop
    reason, and the per-iteration histories."""

    beta: np.ndarray
    # The quasi-Newton metric; None for Landweber, which has none.
    inv_hessian: np.ndarray | None = None
    iteration: int = 0
    residual_history: list = field(default_factory=list)
    stop_reason: str | None = None
    step_history: list = field(default_factory=list)
    active_counts: list = field(default_factory=list)
    iterate_history: list = field(default_factory=list)


def project_box(beta: np.ndarray) -> np.ndarray:
    """Componentwise clamp onto the unit box [0, 1]."""
    return np.clip(beta, 0.0, 1.0)


def search_direction(beta: np.ndarray, S: np.ndarray, grad: np.ndarray):
    """Masked quasi-Newton direction with the two active index sets.

    I1 holds variables sitting on a bound with the raw gradient pointing
    outward; I2 holds variables that S masked by I1 would still push
    outward. Rows and columns of both sets are zeroed before applying the
    matrix S, so the direction never points out of the box at an active
    bound. Returns the direction and the indices of I1 and I2.
    """
    at_lo = beta == 0.0
    at_hi = beta == 1.0
    in_I1 = (at_lo & (grad > 0.0)) | (at_hi & (grad < 0.0))
    S_bar = S.copy()
    S_bar[in_I1, :] = 0.0
    S_bar[:, in_I1] = 0.0
    w = S_bar @ grad
    in_I2 = (at_lo & (w > 0.0)) | (at_hi & (w < 0.0))
    S_hat = S_bar
    S_hat[in_I2, :] = 0.0
    S_hat[:, in_I2] = 0.0
    p = -(S_hat @ grad)
    return p, np.flatnonzero(in_I1), np.flatnonzero(in_I2)


def bfgs_inverse_update(S: np.ndarray, s_k: np.ndarray, g_k: np.ndarray) -> np.ndarray:
    """Rank-two inverse Hessian update with a cautious curvature skip.

    With sg = s_k . g_k the applied update is

        S+ = S + (sg + g_k . S g_k) / sg^2 * s_k s_k^T
               - (S g_k s_k^T + s_k g_k^T S) / sg,

    which satisfies the secant equation S+ g_k = s_k. Updates with
    nonpositive (or numerically tiny) curvature are skipped to preserve
    positive definiteness, since Armijo steps alone do not guarantee it.
    """
    sg = float(s_k @ g_k)
    if sg <= CURVATURE_RTOL * float(np.linalg.norm(s_k) * np.linalg.norm(g_k)):
        return S
    Sg = S @ g_k
    gSg = float(g_k @ Sg)
    S_new = (
        S
        + ((sg + gSg) / sg**2) * np.outer(s_k, s_k)
        - (np.outer(Sg, s_k) + np.outer(s_k, Sg)) / sg
    )
    return 0.5 * (S_new + S_new.T)


def _discrepancy_reached(f: float, problem: Problem, rho: float) -> bool:
    return f <= rho * problem.delta


def _start(problem: Problem, config: SolveConfig):
    """State at the box-projected start point, its objective and gradient."""
    beta = (
        np.zeros(problem.dim)
        if config.beta0 is None
        else project_box(np.asarray(config.beta0, dtype=float))
    )
    state = OptimizerState(beta=beta)
    f, grad = problem.gradient(beta)
    state.residual_history.append(f)
    state.iterate_history.append(beta.copy())
    return state, f, grad


def _advance(state: OptimizerState, beta, f: float, step: float, active: int):
    """Record an accepted iterate with its objective, step and active count."""
    state.beta = beta
    state.iteration += 1
    state.residual_history.append(f)
    state.step_history.append(step)
    state.active_counts.append(active)
    state.iterate_history.append(beta.copy())


def _budget_spent(state: OptimizerState, f: float, problem: Problem, config: SolveConfig):
    """Stop reason once the iteration budget runs out."""
    reached = _discrepancy_reached(f, problem, config.rho)
    state.stop_reason = "discrepancy" if reached else "max_iter"
    return state


def _backtrack(problem: Problem, beta, f: float, p, grad, grad_scale: float):
    """The first passing trial P(beta + lam p), lam = 1, 1/2, ... >= LAMBDA_MIN.

    A trial passes when f - f(trial) >= -c lam grad.p (Armijo, with f the
    objective at beta), and its gradient is finite and at most
    GRAD_GUARD_FACTOR times `grad_scale`. A trial whose objective or
    gradient raises DivergenceError fails. Returns (lam, trial, its
    objective, its gradient), or None when the step underflows.
    """
    slope = float(grad @ p)
    lam = 1.0
    while lam >= LAMBDA_MIN:
        trial = project_box(beta + lam * p)
        try:
            f_trial = problem.objective(trial)
            if f - f_trial >= -ARMIJO_C * lam * slope:
                f_trial, grad_trial = problem.gradient(trial)
                gmax = float(np.abs(grad_trial).max())
                if math.isfinite(gmax) and gmax <= GRAD_GUARD_FACTOR * grad_scale:
                    return lam, trial, f_trial, grad_trial
                log.info(
                    "trial step %.3g rejected: gradient %.3e above scale %.3e",
                    lam, gmax, grad_scale,
                )
        except DivergenceError as exc:
            log.info("trial step %.3g rejected: %s", lam, exc)
        lam *= ARMIJO_TAU
    return None


def pqn_solve(problem: Problem, config: SolveConfig) -> OptimizerState:
    """Projected quasi-Newton iteration with discrepancy stopping.

    The metric starts as the identity and evolves only through the cautious
    rank-two updates. A Rayleigh-quotient rescale of the initial metric was
    tried and rejected: the larger early steps it produces walk the iterate
    into flux configurations whose linearized boundary recursion amplifies,
    where the gradient guard can only shrink the step to underflow.

    The guard is there because the linearized boundary recursion amplifies
    perturbations at iterates whose flux curve has a steep falling flank
    where the boundary enthalpy lingers: the adjoint (and hence the
    gradient) can come back many orders of magnitude too large, non-finite,
    or overflow altogether, even though the objective at the trial looks
    fine. Ingesting such a pair would poison the quasi-Newton metric and
    permanently stall the iteration.
    """
    state, f, grad = _start(problem, config)
    state.inv_hessian = np.eye(problem.dim)
    grad_scale = float(np.abs(grad).max())

    for _ in range(config.max_iter):
        if _discrepancy_reached(f, problem, config.rho):
            state.stop_reason = "discrepancy"
            return state
        p, I1, I2 = search_direction(state.beta, state.inv_hessian, grad)
        free = problem.dim - I1.size - I2.size
        if free == 0 or np.abs(p).max() < STATIONARITY_RTOL:
            log.info("stationary point reached at iteration %d", state.iteration)
            state.stop_reason = "stationary"
            return state
        step = _backtrack(problem, state.beta, f, p, grad, grad_scale)
        if step is None:
            state.stop_reason = "line_search_failure"
            return state
        lam, beta_new, f_new, grad_new = step
        grad_scale = max(grad_scale, float(np.abs(grad_new).max()))
        state.inv_hessian = bfgs_inverse_update(
            state.inv_hessian, beta_new - state.beta, grad_new - grad
        )
        _advance(state, beta_new, f_new, lam, int(I1.size + I2.size))
        f, grad = f_new, grad_new
        log.debug(
            "pqn k=%d f=%.6e lam=%.3g active=%d",
            state.iteration, f, lam, I1.size + I2.size,
        )

    return _budget_spent(state, f, problem, config)


def landweber_solve(problem: Problem, config: SolveConfig) -> OptimizerState:
    """Projected gradient descent with constant damping.

    `config.damping` of None selects an automatic factor scaled so the first
    step moves the largest component by a tenth of the unit box's width.
    """
    state, f, grad = _start(problem, config)
    if config.damping is None:
        gmax = float(np.abs(grad).max())
        damping = 0.1 / gmax if gmax > 0 else 1.0
        log.info("auto landweber damping: %.6g", damping)
    else:
        damping = float(config.damping)
        if damping <= 0:
            raise ValidationError("landweber damping must be positive")

    streak = 0
    for _ in range(config.max_iter):
        if _discrepancy_reached(f, problem, config.rho):
            state.stop_reason = "discrepancy"
            return state
        if np.abs(grad).max() == 0.0:
            state.stop_reason = "stationary"
            return state
        beta = project_box(state.beta - damping * grad)
        f_new, grad = problem.gradient(beta)
        streak = streak + 1 if f_new > f else 0
        if streak >= DIVERGENCE_STREAK:
            raise OptimizerError(
                f"residual increased {DIVERGENCE_STREAK} steps in a row: "
                f"damping {damping:g} too large"
            )
        f = f_new
        active = int((beta == 0.0).sum() + (beta == 1.0).sum())
        _advance(state, beta, f, damping, active)

    return _budget_spent(state, f, problem, config)


def make_pde_problem(
    alpha: Pchip,
    data: Measurement,
    u0,
    g: Grid,
    partition: np.ndarray,
    beta_max: float,
) -> Problem:
    """Wrap the forward/adjoint chain as a dimensionless `Problem`.

    The solver-facing parameters are the flux values divided by `beta_max`,
    so the box becomes [0, 1]^2n, and the objective is the misfit divided by
    the squared data norm, the same normalization the discrepancy rule uses.
    Physical fluxes are huge (~1e7) and the raw misfit is huger (~1e20);
    with the identity initial metric the first quasi-Newton direction is the
    raw gradient, which in physical units is off-scale by eight orders of
    magnitude and leaves the line search comparing objective differences at
    the floating-point noise floor. In the scaled variables unit steps are
    meaningful and the curvature pairs feeding the BFGS update are O(1).
    The problem carries that norm (`data_norm_sq`) and the map back to flux
    values (`fluxes`: beta_max times the iterate, on `partition`), which the
    objective's own solves go through as well.

    The most recent state solve is cached by parameter bytes, so the
    gradient call following an accepted line-search trial reuses its field
    (and the pivots its march recorded) instead of repeating the forward
    solve. The entry is dropped before a new point is solved.

    Raises `ValidationError` when the readings' squared norm is zero or
    overflows, since the objective cannot be normalized by it.
    """
    partition = np.asarray(partition, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    with np.errstate(over="ignore"):
        norm_y = float(np.sum(data.data**2))
    if not 0.0 < norm_y < math.inf:
        raise ValidationError(f"the readings' squared norm is {norm_y}, not finite and positive")
    scale = float(beta_max)
    cache: dict = {}

    def fluxes(b: np.ndarray) -> FluxParameter:
        return FluxParameter(beta=scale * b, partition=partition, beta_max=beta_max)

    def _solve(b: np.ndarray):
        key = b.tobytes()
        if cache.get("key") != key:
            cache.clear()  # one field and its pivots alive at a time
            fp = fluxes(b)
            f, residual, field = adjoint.objective(fp, data, alpha, u0, g)
            cache.update(key=key, fp=fp, f=f, residual=residual, field=field)
        return cache

    def objective_fn(b: np.ndarray) -> float:
        return _solve(np.asarray(b, dtype=float))["f"] / norm_y

    def gradient_fn(b: np.ndarray):
        c = _solve(np.asarray(b, dtype=float))
        grad = adjoint.compute_gradient(c["fp"], data, alpha, c["field"], c["residual"])
        return c["f"] / norm_y, grad * (scale / norm_y)

    return Problem(
        dim=2 * partition.size,
        objective=objective_fn,
        gradient=gradient_fn,
        delta=float(data.delta),
        data_norm_sq=norm_y,
        fluxes=fluxes,
    )

