"""Haar-random unitaries, the random inputs of the property tests."""

import numpy as np


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style random unitary from the QR factorization of a Gaussian."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
