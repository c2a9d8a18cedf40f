"""Tests for the damped least-squares solver and its stop reasons."""

import numpy as np

from gybe.optimize import _jacobian, damped_least_squares


def offset(x):
    """Minimum 1 at x = 0, never reaching a zero objective."""
    return np.array([x[0], 1.0])


def test_converged_on_a_zero_residual():
    fit = damped_least_squares(lambda x: x - 1.0, np.zeros(2), objective_tol=1e-20)
    assert fit.reason == "converged" and fit.converged
    assert fit.objective <= 1e-20
    assert fit.jacobian_evals == fit.iterations
    # Central differences: two residuals per parameter, plus one per candidate.
    assert fit.residual_evals >= 1 + fit.iterations * (2 * 2 + 1)


def test_converged_at_the_start_takes_no_iteration():
    fit = damped_least_squares(lambda x: x, np.zeros(3))
    assert fit.reason == "converged"
    assert (fit.iterations, fit.residual_evals, fit.jacobian_evals) == (0, 1, 0)


def test_step_tol_when_steps_shrink_above_a_floor():
    fit = damped_least_squares(offset, np.ones(1), step_tol=1e-6)
    assert fit.reason == "step_tol" and not fit.converged
    assert abs(fit.objective - 1.0) <= 1e-10


def test_damping_stall_at_a_nonzero_minimum():
    fit = damped_least_squares(offset, np.zeros(1))
    assert fit.reason == "damping_stall"
    assert fit.iterations == 1 and fit.trace == (1.0,)
    assert fit.residual_evals == 1 + 2 + 25  # start, one Jacobian, every retry


def test_budget_when_iterations_run_out():
    fit = damped_least_squares(lambda x: x**3 - 8.0, np.array([0.5]), max_iterations=2)
    assert fit.reason == "budget"
    assert fit.iterations == 2 and not fit.converged


def test_non_finite_residual_or_jacobian_stops():
    fit = damped_least_squares(lambda x: np.array([np.nan]), np.zeros(1))
    assert fit.reason == "non_finite" and fit.iterations == 0
    fit = damped_least_squares(
        lambda x: x - 1.0, np.zeros(1), jacobian_fn=lambda x: np.array([[np.inf]])
    )
    assert fit.reason == "non_finite"
    assert fit.iterations == 1 and fit.trace == (1.0,)


def test_exact_jacobian_replaces_differences():
    def residual(x):
        return np.array([x[0] ** 2 + x[1] - 3.0, x[0] - x[1] ** 3 + 1.0, 0.1 * x[0] * x[1]])

    def jacobian(x):
        return np.array([[2 * x[0], 1.0], [1.0, -3 * x[1] ** 2], [0.1 * x[1], 0.1 * x[0]]])

    x0 = np.array([0.3, -0.2])
    exact = damped_least_squares(residual, x0, jacobian_fn=jacobian, max_iterations=40)
    numeric = damped_least_squares(residual, x0, max_iterations=40)
    assert exact.jacobian_evals == exact.iterations
    # Without differences, residuals are the start plus one per candidate step.
    assert len(exact.trace) <= exact.residual_evals < numeric.residual_evals
    assert numeric.residual_evals - 2 * 2 * numeric.jacobian_evals >= len(numeric.trace)
    assert abs(exact.objective - numeric.objective) <= 1e-12
    np.testing.assert_allclose(exact.x, numeric.x, atol=1e-6)
    # Passing the difference Jacobian explicitly reproduces the default bit for bit.
    explicit = damped_least_squares(
        residual, x0, jacobian_fn=lambda x: _jacobian(residual, x, 3), max_iterations=40
    )
    np.testing.assert_array_equal(explicit.x, numeric.x)
    assert explicit.trace == numeric.trace and explicit.iterations == numeric.iterations
