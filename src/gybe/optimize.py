"""Damped least-squares minimization.

Small, dependency-free Levenberg-style solver behind the zero-pattern
solution search (:func:`gybe.search.solve_pattern`), through
:func:`solve_stack`.  The witness search in :mod:`gybe.equivalence` needs
no optimizer: it decides every 2x2 conjugator in closed form.  The
residual function maps a real parameter vector to a real residual vector;
the objective is the sum of squared residual entries.  Every caller
supplies the exact Jacobian, so one iteration costs one Jacobian and one
residual per tried step.  Steps are accepted only when they reduce the
objective, so the recorded trace is non-increasing.

:func:`solve_stack` minimizes a stack of independent starting points in
one loop: each iteration evaluates the residuals and Jacobians of the live
rows together and solves their damped normal equations in one batched
``np.linalg.solve``.  Every row keeps its own damping, retries, trace and
stop reason, and leaves the stack when it stops, so a row's result does not
depend on the rows beside it.  An iteration's bookkeeping is a fixed number
of whole-stack numpy calls: one finiteness check of all Jacobians (row by
row only when it fails), one index of the pending rows per retry round,
and trace appends and stop checks read from ``tolist()``.
:func:`damped_least_squares` is the stack of one, for a caller with a
single 1-D start.

Besides the budget, a solve stops on convergence, an accepted step no
longer than ``STEP_TOL`` (read on every check), a damping stall, a
non-finite residual or Jacobian, or a plateau: after ``PLATEAU_STEPS``
accepted steps the objective fell by less than ``PLATEAU_RTOL``
(relative) over the last ``PLATEAU_STEPS`` of them, a stalled-progress
test in the spirit of Moré, "The Levenberg–Marquardt algorithm:
implementation and theory" (1978).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

INITIAL_DAMPING = 1e-3
DAMPING_GROW = 10.0
DAMPING_SHRINK = 3.0
STEP_TOL = 1e-15
PLATEAU_STEPS = 10
PLATEAU_RTOL = 1e-4
MAX_INNER_RETRIES = 25


@dataclass(frozen=True)
class LeastSquaresResult:
    """Outcome of one solve.

    ``reason`` says why the solve stopped: ``converged``, ``step_tol``,
    ``plateau``, ``damping_stall``, ``budget`` or ``non_finite``.
    ``residual_evals`` counts the start and every candidate step it
    evaluated; ``jacobian_evals`` counts Jacobians, one per iteration, so
    it always equals ``iterations``.
    """

    x: np.ndarray
    objective: float
    trace: tuple[float, ...]
    iterations: int
    converged: bool
    reason: str
    residual_evals: int
    jacobian_evals: int


def _objectives(residual: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", residual, residual)


def _damped_steps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each slice ``a[i] s = b[i]``; returns the steps and which slices solved.

    One batched solve fails as a whole on a singular slice, so only then
    is each slice solved on its own to find the ones that fail.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(b)
    solved = np.zeros(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            steps[i] = np.linalg.solve(a[i], b[i])
            solved[i] = True
        except np.linalg.LinAlgError:
            pass
    return steps, solved


def solve_stack(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    objective_tol: float = 0.0,
    max_iterations: int = 200,
) -> tuple[LeastSquaresResult, ...]:
    """Minimize ``sum(residual_fn(x)**2)`` from each row of ``x0`` (rows, params).

    ``residual_fn`` maps a (k, params) stack of points to a (k, residuals)
    stack; ``jacobian_fn`` maps it to the (k, residuals, params) Jacobians
    and is called once per iteration.  Returns one result per row, in row
    order.
    """
    if np.isnan(objective_tol):
        raise ValueError("objective_tol must not be NaN")
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a (rows, params) stack of starts, got shape {x.shape}")
    rows, n_params = x.shape
    residual = np.asarray(residual_fn(x), dtype=float)
    objective = _objectives(residual)
    traces = [[value] for value in objective.tolist()]
    damping = np.full(rows, INITIAL_DAMPING)
    # Each iteration evaluates one Jacobian, so this also counts Jacobians.
    iterations = np.zeros(rows, dtype=int)
    residual_evals = np.ones(rows, dtype=int)
    stop = ["budget"] * rows
    eye = np.eye(n_params)
    live = np.flatnonzero((objective > objective_tol) & (max_iterations > 0))

    while live.size:
        iterations[live] += 1
        jac = np.asarray(jacobian_fn(x[live]), dtype=float)
        if not np.isfinite(jac).all():
            finite = np.isfinite(jac).all(axis=(1, 2))
            for row in live[~finite].tolist():
                stop[row] = "non_finite"
            live, jac = live[finite], jac[finite]
        jac_t = jac.transpose(0, 2, 1)
        jtj = jac_t @ jac
        neg_jtr = -(jac_t @ residual[live][..., None])[..., 0]
        del jac, jac_t  # so that two Jacobians are never held at once

        # Rows retry with growing damping until a step lowers their objective.
        pending = np.arange(live.size)
        step_norm = np.zeros(rows)
        for _ in range(MAX_INNER_RETRIES):
            if not pending.size:
                break
            at = live[pending]
            steps, solved = _damped_steps(
                jtj[pending] + damping[at, None, None] * eye, neg_jtr[pending]
            )
            damping[at[~solved]] *= DAMPING_GROW
            if not solved.any():
                continue
            tried, steps, at = pending[solved], steps[solved], at[solved]
            candidate = x[at] + steps
            cand_residual = np.asarray(residual_fn(candidate), dtype=float)
            residual_evals[at] += 1
            cand_objective = _objectives(cand_residual)
            better = cand_objective < objective[at]
            won = at[better]
            x[won] = candidate[better]
            residual[won] = cand_residual[better]
            objective[won] = cand_objective[better]
            step_norm[won] = np.linalg.norm(steps[better], axis=1)
            for row, value in zip(won.tolist(), cand_objective[better].tolist()):
                traces[row].append(value)
            damping[won] /= DAMPING_SHRINK
            damping[at[~better]] *= DAMPING_GROW
            pending = np.concatenate([pending[~solved], tried[~better]])

        stalled = np.zeros(live.size, dtype=bool)
        stalled[pending] = True
        kept = []
        for row, stall, norm in zip(live.tolist(), stalled.tolist(), step_norm[live].tolist()):
            trace = traces[row]
            if stall:
                stop[row] = "damping_stall"
            elif norm <= STEP_TOL:
                stop[row] = "step_tol"
            elif len(trace) > PLATEAU_STEPS and (
                trace[-1] > (1.0 - PLATEAU_RTOL) * trace[-1 - PLATEAU_STEPS]
            ):
                stop[row] = "plateau"
            else:
                kept.append(row)
        live = np.array(kept, dtype=int)
        live = live[(objective[live] > objective_tol) & (iterations[live] < max_iterations)]

    results = []
    for row, (value, count, evals) in enumerate(
        zip(objective.tolist(), iterations.tolist(), residual_evals.tolist())
    ):
        if not np.isfinite(value):
            reason = "non_finite"
        elif value <= objective_tol:
            reason = "converged"
        else:
            reason = stop[row]
        results.append(
            LeastSquaresResult(
                x=x[row].copy(),
                objective=value,
                trace=tuple(traces[row]),
                iterations=count,
                converged=value <= objective_tol,
                reason=reason,
                residual_evals=evals,
                jacobian_evals=count,
            )
        )
    return tuple(results)


def damped_least_squares(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    objective_tol: float = 0.0,
    max_iterations: int = 200,
) -> LeastSquaresResult:
    """Minimize ``sum(residual_fn(x)**2)`` from the 1-D start ``x0``.

    ``jacobian_fn(x)`` returns the (residuals, parameters) Jacobian at the
    current point; it is called once per iteration.  This is
    :func:`solve_stack` on a stack of one, with the same stop reasons.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError(f"expected a 1-D start, got shape {x0.shape}")

    (fit,) = solve_stack(
        lambda xs: np.asarray(residual_fn(xs[0]), dtype=float)[None],
        x0[None],
        jacobian_fn=lambda xs: np.asarray(jacobian_fn(xs[0]), dtype=float)[None],
        objective_tol=objective_tol,
        max_iterations=max_iterations,
    )
    return fit
