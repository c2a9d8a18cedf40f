"""Normal equations of a toy problem, formed from its Jacobian in the test."""

import numpy as np


def normal_equations(jacobian_fn):
    """The ``normal_fn`` of a problem whose Jacobian is ``jacobian_fn``.

    It returns JᵀJ and Jᵀr for one point and its residual, or for a
    (rows, params) stack of points and their residuals.  A non-finite
    Jacobian gives non-finite products, without a warning, for the solver
    to stop on.
    """

    def normal_fn(x, residual):
        jac = np.asarray(jacobian_fn(x), dtype=float)
        jac_t = np.swapaxes(jac, -1, -2)
        with np.errstate(invalid="ignore", over="ignore"):
            return jac_t @ jac, (jac_t @ residual[..., None])[..., 0]

    return normal_fn
