"""Central-difference Jacobians, the reference the exact Jacobians are tested against."""

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
