"""Damped least-squares minimization.

Small, dependency-free Levenberg-style solver behind the zero-pattern
solution search (:func:`gybe.search.solve_pattern`), through
:func:`solve_stack`.  The witness search in :mod:`gybe.equivalence` needs
no optimizer: it decides every 2x2 conjugator in closed form.  The
residual function maps a real parameter vector to a real residual vector;
the objective is the sum of squared residual entries.  Every caller
supplies the exact normal equations JᵀJ and Jᵀr, J the Jacobian, so one
iteration costs one of those and one residual per tried step.  Steps are
accepted only when they reduce the objective, so the recorded trace is
non-increasing.

:func:`solve_stack` minimizes a stack of independent starting points in
one loop: each iteration evaluates the normal equations of the live rows
together and solves their damped systems in one batched
``np.linalg.solve``.  Every row keeps its own damping, retries, trace and
stop reason, and leaves the stack when it stops, so a row's result does not
depend on the rows beside it.  Numpy sees only the stacks: the live rows'
points, residuals and normal equations, and per retry round the pending
rows' damped systems, steps and candidates.  Each row's damping,
trace, counts, stop reason and step length are plain Python values kept by
row, and its point and residual are rows of the stack it was last
evaluated in, so a round's bookkeeping is a loop over ``tolist()``.
:func:`damped_least_squares` is the stack of one, for a caller with a
single 1-D start.

Besides the budget, a solve stops on convergence, an accepted step no
longer than ``STEP_TOL`` (read on every check), a damping stall, a
non-finite residual or normal equations, or a plateau: after
``PLATEAU_STEPS`` accepted steps the objective fell by less than
``PLATEAU_RTOL`` (relative) over the last ``PLATEAU_STEPS`` of them, a
stalled-progress test in the spirit of Moré, "The Levenberg–Marquardt
algorithm: implementation and theory" (1978).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg

INITIAL_DAMPING = 1e-3
DAMPING_GROW = 10.0
DAMPING_SHRINK = 3.0
STEP_TOL = 1e-15
PLATEAU_STEPS = 10
PLATEAU_RTOL = 1e-4
MAX_INNER_RETRIES = 25


@dataclass(frozen=True, eq=False)
class LeastSquaresResult:
    """Outcome of one solve; ``objective`` is the last entry of ``trace``,
    the objective at the start and after each accepted step.

    ``reason`` says why the solve stopped: ``converged``, ``step_tol``,
    ``plateau``, ``damping_stall``, ``budget`` or ``non_finite``.
    ``residual_evals`` counts the start and every candidate step it
    evaluated; ``iterations`` counts the normal-equation evaluations, one per
    iteration.
    """

    x: np.ndarray
    trace: tuple[float, ...]
    iterations: int
    reason: str
    residual_evals: int

    @property
    def objective(self) -> float:
        return self.trace[-1]

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


def _objectives(residual: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", residual, residual)


def _damped_steps(a: np.ndarray, b: np.ndarray) -> tuple[list[bool], np.ndarray]:
    """Solve each slice ``a[i] s = b[i]``; returns which slices solved and
    the steps of those, stacked.

    One batched solve fails as a whole on a singular slice, so only then
    is each slice solved on its own to find the ones that fail.
    """
    try:
        return [True] * len(a), np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    solved, steps = [], []
    for a_i, b_i in zip(a, b):
        try:
            steps.append(np.linalg.solve(a_i, b_i))
        except np.linalg.LinAlgError:
            solved.append(False)
        else:
            solved.append(True)
    return solved, np.array(steps).reshape(-1, b.shape[-1])


def solve_stack(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    normal_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    objective_tol: float = 0.0,
    max_iterations: int = 200,
) -> tuple[LeastSquaresResult, ...]:
    """Minimize ``sum(residual_fn(x)**2)`` from each row of ``x0`` (rows, params).

    ``residual_fn`` maps a (k, params) stack of points to a (k, residuals)
    stack; ``normal_fn`` maps the stack and its residuals to JᵀJ and Jᵀr,
    stacked (k, params, params) and (k, params), once per iteration.
    Returns one result per row, in row order.
    """
    objective_tol = linalg.tolerance(objective_tol, "objective_tol")
    max_iterations = linalg.count(max_iterations, "max_iterations", 0)
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 2:
        raise ValueError(f"expected a (rows, params) stack of starts, got shape {x0.shape}")
    start_residual = np.asarray(residual_fn(x0), dtype=float)
    # Each row's point and residual are views of the stack they were
    # evaluated in; its scalars are plain Python values.
    x, residual = list(x0), list(start_residual)
    traces = [[value] for value in _objectives(start_residual).tolist()]
    rows = len(traces)
    damping = [INITIAL_DAMPING] * rows
    # One evaluation of the normal equations per iteration, so this counts those too.
    iterations = [0] * rows
    residual_evals = [1] * rows
    stop = ["budget"] * rows
    eye = np.eye(x0.shape[1])
    live = [row for row in range(rows) if traces[row][-1] > objective_tol and max_iterations > 0]

    while live:
        for row in live:
            iterations[row] += 1
        points = np.array([x[row] for row in live])
        jtj, jtr = normal_fn(points, np.array([residual[row] for row in live]))
        if not (np.isfinite(jtj).all() and np.isfinite(jtr).all()):
            finite = np.isfinite(jtj).all(axis=(1, 2)) & np.isfinite(jtr).all(axis=1)
            for row, ok in zip(live, finite.tolist()):
                if not ok:
                    stop[row] = "non_finite"
            live = [row for row, ok in zip(live, finite.tolist()) if ok]
            if not live:
                break
            points, jtj, jtr = points[finite], jtj[finite], jtr[finite]

        # Rows retry with growing damping until a step lowers their objective;
        # ``pending`` holds their places in ``live``.
        pending = list(range(len(live)))
        step_norm = {}
        for _ in range(MAX_INNER_RETRIES):
            if not pending:
                break
            solved, steps = _damped_steps(
                jtj[pending] + np.multiply.outer([damping[live[i]] for i in pending], eye),
                -jtr[pending],
            )
            tried = [i for i, ok in zip(pending, solved) if ok]
            pending = [i for i, ok in zip(pending, solved) if not ok]
            for i in pending:
                damping[live[i]] *= DAMPING_GROW
            if not tried:
                continue
            candidate = points[tried] + steps
            cand_residual = np.asarray(residual_fn(candidate), dtype=float)
            squares = np.add.reduce(steps * steps, axis=1).tolist()  # as np.linalg.norm sums
            for k, (i, value) in enumerate(zip(tried, _objectives(cand_residual).tolist())):
                row = live[i]
                residual_evals[row] += 1
                if value < traces[row][-1]:
                    x[row], residual[row] = candidate[k], cand_residual[k]
                    traces[row].append(value)
                    damping[row] /= DAMPING_SHRINK
                    step_norm[row] = math.sqrt(squares[k])
                else:
                    damping[row] *= DAMPING_GROW
                    pending.append(i)

        kept = []
        for row in live:
            trace = traces[row]
            if row not in step_norm:
                stop[row] = "damping_stall"
            elif step_norm[row] <= STEP_TOL:
                stop[row] = "step_tol"
            elif len(trace) > PLATEAU_STEPS and (
                trace[-1] > (1.0 - PLATEAU_RTOL) * trace[-1 - PLATEAU_STEPS]
            ):
                stop[row] = "plateau"
            elif trace[-1] > objective_tol and iterations[row] < max_iterations:
                kept.append(row)
        live = kept

    results = []
    for row, trace in enumerate(traces):
        if not math.isfinite(trace[-1]):
            reason = "non_finite"
        elif trace[-1] <= objective_tol:
            reason = "converged"
        else:
            reason = stop[row]
        results.append(
            LeastSquaresResult(
                x=x[row].copy(),
                trace=tuple(trace),
                iterations=iterations[row],
                reason=reason,
                residual_evals=residual_evals[row],
            )
        )
    return tuple(results)


def damped_least_squares(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    normal_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    objective_tol: float = 0.0,
    max_iterations: int = 200,
) -> LeastSquaresResult:
    """Minimize ``sum(residual_fn(x)**2)`` from the 1-D start ``x0``.

    ``normal_fn(x, r)`` returns JᵀJ and Jᵀr at the current point and its
    residual, once per iteration.  This is :func:`solve_stack` on a stack
    of one, with the same stop reasons.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError(f"expected a 1-D start, got shape {x0.shape}")

    (fit,) = solve_stack(
        lambda xs: np.asarray(residual_fn(xs[0]), dtype=float)[None],
        x0[None],
        normal_fn=lambda xs, rs: tuple(np.asarray(a, dtype=float)[None] for a in normal_fn(xs[0], rs[0])),
        objective_tol=objective_tol,
        max_iterations=max_iterations,
    )
    return fit
