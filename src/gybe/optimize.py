"""Damped least-squares minimization.

Small, dependency-free Levenberg-style solver shared by the witness search
and the zero-pattern solution search.  The residual function maps a real
parameter vector to a real residual vector; the objective is the sum of
squared residual entries.  The Jacobian comes from the caller when it has
an exact one, and from central differences otherwise.  Steps are accepted
only when they reduce the objective, so the recorded trace is
non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

FD_STEP = 1e-7
INITIAL_DAMPING = 1e-3
DAMPING_GROW = 10.0
DAMPING_SHRINK = 3.0
STEP_TOL = 1e-15
MAX_INNER_RETRIES = 25


@dataclass(frozen=True)
class LeastSquaresResult:
    """Outcome of one solve.

    ``reason`` says why the solve stopped: ``converged``, ``step_tol``,
    ``damping_stall``, ``budget`` or ``non_finite``.  ``residual_evals`` and
    ``jacobian_evals`` count the calls it made, finite-difference residuals
    included.
    """

    x: np.ndarray
    objective: float
    trace: tuple[float, ...]
    iterations: int
    converged: bool
    reason: str
    residual_evals: int
    jacobian_evals: int


def _objective(residual: np.ndarray) -> float:
    return float(np.dot(residual, residual))


def _jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, m: int) -> np.ndarray:
    jac = np.empty((m, x.size))
    for j in range(x.size):
        bumped = x.copy()
        bumped[j] = x[j] + FD_STEP
        upper = fn(bumped)
        bumped[j] = x[j] - FD_STEP
        lower = fn(bumped)
        jac[:, j] = (upper - lower) / (2.0 * FD_STEP)
    return jac


def damped_least_squares(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    jacobian_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    objective_tol: float = 0.0,
    max_iterations: int = 200,
    step_tol: float = STEP_TOL,
) -> LeastSquaresResult:
    """Minimize ``sum(residual_fn(x)**2)`` from ``x0``.

    ``jacobian_fn(x)`` returns the (residuals, parameters) Jacobian at the
    current point; it is called once per iteration.  Without it the
    Jacobian is taken by central differences, at 2 residual evaluations per
    parameter.

    Stops when the objective reaches ``objective_tol``, the accepted step
    norm falls below ``step_tol``, damping growth stalls, the iteration
    budget is exhausted, or the residual or Jacobian turns non-finite.
    """
    x = np.asarray(x0, dtype=float).copy()
    residual = np.asarray(residual_fn(x), dtype=float)
    residual_evals = 1
    jacobian_evals = 0
    objective = _objective(residual)
    trace = [objective]
    damping = INITIAL_DAMPING
    iterations = 0
    stop = "budget"

    while objective > objective_tol and iterations < max_iterations:
        iterations += 1
        jacobian_evals += 1
        if jacobian_fn is None:
            jac = _jacobian(residual_fn, x, residual.size)
            residual_evals += 2 * x.size
        else:
            jac = np.asarray(jacobian_fn(x), dtype=float)
        if not np.all(np.isfinite(jac)):
            stop = "non_finite"
            break
        jtj = jac.T @ jac
        jtr = jac.T @ residual
        eye = np.eye(x.size)

        accepted = False
        step_norm = 0.0
        for _ in range(MAX_INNER_RETRIES):
            try:
                step = np.linalg.solve(jtj + damping * eye, -jtr)
            except np.linalg.LinAlgError:
                damping *= DAMPING_GROW
                continue
            candidate = x + step
            cand_residual = np.asarray(residual_fn(candidate), dtype=float)
            residual_evals += 1
            cand_objective = _objective(cand_residual)
            if cand_objective < objective:
                step_norm = float(np.linalg.norm(step))
                x, residual, objective = candidate, cand_residual, cand_objective
                trace.append(objective)
                damping /= DAMPING_SHRINK
                accepted = True
                break
            damping *= DAMPING_GROW
        if not accepted:
            stop = "damping_stall"
            break
        if step_norm <= step_tol:
            stop = "step_tol"
            break

    if not np.isfinite(objective):
        reason = "non_finite"
    elif objective <= objective_tol:
        reason = "converged"
    else:
        reason = stop
    return LeastSquaresResult(
        x=x,
        objective=objective,
        trace=tuple(trace),
        iterations=iterations,
        converged=objective <= objective_tol,
        reason=reason,
        residual_evals=residual_evals,
        jacobian_evals=jacobian_evals,
    )
