"""Tests for the damped least-squares solver and its stop reasons."""

import numpy as np
import pytest
from normal_equations import normal_equations

from gybe import optimize
from gybe.optimize import (
    MAX_INNER_RETRIES,
    PLATEAU_RTOL,
    PLATEAU_STEPS,
    damped_least_squares,
    solve_stack,
)


def identity_jacobian(x):
    return np.eye(x.size)


def offset(x):
    """Minimum 1 at x = 0, never reaching a zero objective."""
    return np.array([x[0], 1.0])


def offset_jacobian(x):
    return np.array([[1.0], [0.0]])


def test_converged_on_a_zero_residual():
    fit = damped_least_squares(
        lambda x: x - 1.0, np.zeros(2), normal_fn=normal_equations(identity_jacobian), objective_tol=1e-20
    )
    assert fit.reason == "converged" and fit.converged
    assert fit.objective <= 1e-20
    # The start, plus one residual per candidate step.
    assert fit.residual_evals >= 1 + fit.iterations


def test_converged_at_the_start_takes_no_iteration():
    fit = damped_least_squares(lambda x: x, np.zeros(3), normal_fn=normal_equations(identity_jacobian))
    assert fit.reason == "converged"
    assert (fit.iterations, fit.residual_evals) == (0, 1)


def test_step_tol_when_steps_shrink_above_a_floor(monkeypatch):
    monkeypatch.setattr(optimize, "STEP_TOL", 1e-6)
    fit = damped_least_squares(offset, np.ones(1), normal_fn=normal_equations(offset_jacobian))
    assert fit.reason == "step_tol" and not fit.converged
    assert abs(fit.objective - 1.0) <= 1e-10


def test_damping_stall_at_a_nonzero_minimum():
    fit = damped_least_squares(offset, np.zeros(1), normal_fn=normal_equations(offset_jacobian))
    assert fit.reason == "damping_stall"
    assert fit.iterations == 1 and fit.trace == (1.0,)
    assert fit.residual_evals == 1 + MAX_INNER_RETRIES  # the start, then every retry


def test_budget_when_iterations_run_out():
    fit = damped_least_squares(
        lambda x: x**3 - 8.0,
        np.array([0.5]),
        normal_fn=normal_equations(lambda x: np.diag(3.0 * x**2)),
        max_iterations=2,
    )
    assert fit.reason == "budget"
    assert fit.iterations == 2 and not fit.converged


def test_non_finite_residual_or_jacobian_stops():
    fit = damped_least_squares(
        lambda x: np.array([np.nan]), np.zeros(1), normal_fn=normal_equations(identity_jacobian)
    )
    assert fit.reason == "non_finite" and fit.iterations == 0
    fit = damped_least_squares(
        lambda x: x - 1.0, np.zeros(1), normal_fn=normal_equations(lambda x: np.array([[np.inf]]))
    )
    assert fit.reason == "non_finite"
    assert fit.iterations == 1 and fit.trace == (1.0,)


def test_exact_jacobian_replaces_differences():
    def residual(x):
        return np.array([x[0] ** 2 + x[1] - 3.0, x[0] - x[1] ** 3 + 1.0, 0.1 * x[0] * x[1]])

    def jacobian(x):
        return np.array([[2 * x[0], 1.0], [1.0, -3 * x[1] ** 2], [0.1 * x[1], 0.1 * x[0]]])

    x0 = np.array([0.3, -0.2])
    exact = damped_least_squares(residual, x0, normal_fn=normal_equations(jacobian), max_iterations=40)
    # Residuals are the start plus one per candidate step, at most every retry.
    assert len(exact.trace) <= exact.residual_evals <= 1 + exact.iterations * MAX_INNER_RETRIES
    # The fit stops at a stationary point of the objective.
    gradient = jacobian(exact.x).T @ residual(exact.x)
    assert np.max(np.abs(gradient)) <= 1e-6


def test_nan_objective_tol_is_rejected():
    # A NaN tolerance used to report "budget" after 0 iterations.
    with pytest.raises(ValueError, match="objective_tol"):
        damped_least_squares(
            lambda x: x - 1.0,
            np.zeros(2),
            normal_fn=normal_equations(identity_jacobian),
            objective_tol=float("nan"),
        )


def test_plateau_stops_a_creeping_residual():
    # The second entry decays toward zero, so the objective creeps down to
    # its floor of 1: every step is accepted, yet over PLATEAU_STEPS steps it
    # falls by far less than PLATEAU_RTOL.
    def creeping(x):
        return np.array([1.0, 1e-3 * np.exp(-x[0])])

    def creeping_jacobian(x):
        return np.array([[0.0], [-1e-3 * np.exp(-x[0])]])

    fit = damped_least_squares(
        creeping, np.zeros(1), normal_fn=normal_equations(creeping_jacobian), max_iterations=250
    )
    assert fit.reason == "plateau" and not fit.converged
    assert fit.iterations == PLATEAU_STEPS and len(fit.trace) == PLATEAU_STEPS + 1
    assert fit.trace[-1] > (1.0 - PLATEAU_RTOL) * fit.trace[0]


def test_linear_convergence_is_not_a_plateau():
    # Gauss-Newton halves x on r = x^2, so the objective falls by about 16x
    # per step: linear, not quadratic, convergence over many steps.
    fit = damped_least_squares(
        lambda x: x**2,
        np.ones(1),
        normal_fn=normal_equations(lambda x: np.diag(2.0 * x)),
        objective_tol=1e-20,
        max_iterations=250,
    )
    assert fit.reason == "converged"
    assert fit.iterations > PLATEAU_STEPS


def floored(x):
    """(x0 - 1)^2 + sinh(x1)^2 + x2^2 per row; x2 never moves (see the Jacobian)."""
    with np.errstate(over="ignore"):
        return np.stack([x[..., 0] - 1.0, np.sinh(x[..., 1]), x[..., 2]], axis=-1)


def floored_jacobian(x):
    # The x2 column is left zero, so x2 keeps its start value and sets the
    # row's floor.
    jac = np.zeros(x.shape[:-1] + (3, 3))
    jac[..., 0, 0] = 1.0
    with np.errstate(over="ignore"):
        jac[..., 1, 1] = np.cosh(x[..., 1])
    return jac


def test_stacked_rows_match_their_solo_solves_bit_for_bit():
    starts = np.array(
        [
            [1.0, 0.0, 0.0],  # converged before any iteration
            [3.0, 2.0, 0.0],  # converges
            [1.0, 0.0, 0.5],  # at its floor: every retry fails
            [np.nan, 0.0, 0.0],  # non-finite start
            [0.0, 800.0, 0.0],  # sinh overflows: non-finite Jacobian
            [2.0, 1.0, 1.0],  # runs down to its floor, then stalls
            [-4.0, -3.0, 0.0],  # converges from further out
        ]
    )
    options = dict(normal_fn=normal_equations(floored_jacobian), objective_tol=1e-20, max_iterations=40)
    stacked = solve_stack(floored, starts, **options)
    assert len(stacked) == len(starts)
    for start, fit in zip(starts, stacked):
        solo = damped_least_squares(floored, start, **options)
        np.testing.assert_array_equal(fit.x, solo.x)
        np.testing.assert_array_equal(np.array(fit.trace), np.array(solo.trace))
        np.testing.assert_array_equal(fit.objective, solo.objective)
        for name in ("reason", "converged", "iterations", "residual_evals"):
            assert getattr(fit, name) == getattr(solo, name)
    reasons = [fit.reason for fit in stacked]
    assert reasons[:5] == ["converged", "converged", "damping_stall", "non_finite", "non_finite"]
    assert stacked[0].iterations == 0 and stacked[3].iterations == 0
    assert stacked[4].iterations == 1


def test_every_stacked_row_counts_one_jacobian_per_iteration():
    starts = np.array([[1.0, 0.0, 0.0], [3.0, 2.0, 0.0], [1.0, 0.0, 0.5], [0.0, 800.0, 0.0], [2.0, 1.0, 1.0]])
    rows_seen = []

    def counted_jacobian(x):
        rows_seen.append(len(x))
        return floored_jacobian(x)

    options = dict(normal_fn=normal_equations(counted_jacobian), objective_tol=1e-20, max_iterations=40)
    fits = solve_stack(floored, starts, **options)
    assert {fit.reason for fit in fits} >= {"converged", "damping_stall", "non_finite"}
    # Each Jacobian row handed out is one row's iteration.
    assert sum(rows_seen) == sum(fit.iterations for fit in fits)


def scaled_sum(x):
    """x2·(x0 + x1) - 1 per row; x2 never moves (see the Jacobian)."""
    return x[..., 2:] * (x[..., :1] + x[..., 1:2]) - 1.0


def scaled_sum_jacobian(x):
    jac = np.zeros(x.shape[:-1] + (1, 3))
    jac[..., 0, :2] = x[..., 2:]
    return jac


def test_singular_row_grows_only_its_own_damping():
    # At x2 = 1e20 the damped normal matrix is singular in floating point
    # (1e40 + damping rounds to 1e40) for every retry, so that row stalls
    # without evaluating a candidate; the other row converges as it would
    # alone.
    starts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1e20]])
    options = dict(normal_fn=normal_equations(scaled_sum_jacobian), objective_tol=1e-20, max_iterations=40)
    stacked = solve_stack(scaled_sum, starts, **options)
    assert [fit.reason for fit in stacked] == ["converged", "damping_stall"]
    assert (stacked[1].iterations, stacked[1].residual_evals) == (1, 1)
    for start, fit in zip(starts, stacked):
        solo = damped_least_squares(scaled_sum, start, **options)
        np.testing.assert_array_equal(fit.x, solo.x)
        assert fit.trace == solo.trace and fit.reason == solo.reason
        assert (fit.iterations, fit.residual_evals) == (solo.iterations, solo.residual_evals)


def test_every_solve_takes_its_jacobian_from_the_caller():
    with pytest.raises(TypeError, match="normal_fn"):
        solve_stack(lambda x: x - 1.0, np.zeros((1, 2)))
    with pytest.raises(TypeError, match="normal_fn"):
        damped_least_squares(lambda x: x - 1.0, np.zeros(2))
