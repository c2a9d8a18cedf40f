"""Central-difference Jacobians, the references the exact derivatives are tested against."""

import numpy as np

STEP = 1e-7


def central_differences(fn, x: np.ndarray) -> np.ndarray:
    """d fn / d x along the last axis of ``x``; leading axes are a stack.

    Returns (..., residuals, params), two evaluations of ``fn`` per parameter.
    """
    columns = []
    for j in range(x.shape[-1]):
        bumped = x.copy()
        bumped[..., j] = x[..., j] + STEP
        upper = fn(bumped)
        bumped[..., j] = x[..., j] - STEP
        columns.append((upper - fn(bumped)) / (2.0 * STEP))
    return np.stack(columns, axis=-1)


def five_point_differences(fn, x: np.ndarray, step: float = 0.25) -> np.ndarray:
    """d fn / d x at a 1-D ``x`` by the five-point stencil, (residuals, params).

    The stencil is exact for a polynomial of degree at most four, so for a
    cubic only rounding is left, and ``step`` can be large.
    """
    columns = []
    for j in range(x.size):
        values = []
        for h in (2 * step, step, -step, -2 * step):
            bumped = x.copy()
            bumped[j] += h
            values.append(fn(bumped))
        columns.append((8.0 * (values[1] - values[2]) - (values[0] - values[3])) / (12.0 * step))
    return np.stack(columns, axis=-1)
