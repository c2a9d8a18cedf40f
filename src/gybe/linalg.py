"""Dense complex matrix arithmetic for small matrices.

Everything in this package runs on plain ``numpy.ndarray`` values of dtype
complex128.  This module collects the handful of operations the rest of the
library is built from: Kronecker products, direct sums, conjugate transpose,
inversion with an explicit singularity threshold, eigenvalues of small
matrices, and tolerance-based comparisons in the max-abs-entry norm.

All functions are pure; none mutate their arguments.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

import numpy as np

# Pivot magnitude below which Gaussian elimination declares the matrix singular.
PIVOT_THRESHOLD = 1e-13

# Default tolerance for verifying exactly constructed solutions.
DEFAULT_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when a matrix has no inverse at the pivot threshold."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative eigenvalue computation fails to converge."""


def as_matrix(values) -> np.ndarray:
    """Coerce nested sequences or an ndarray to a 2-D complex128 array."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: block (i, j) of the result equals ``a[i, j] * b``."""
    return np.kron(as_matrix(a), as_matrix(b))


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = None
    for f in factors:
        out = as_matrix(f) if out is None else np.kron(out, as_matrix(f))
    if out is None:
        return identity(1)
    return out


def kron_power(a: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power of ``a``; k = 0 gives the 1x1 identity."""
    if k < 0:
        raise ValueError("negative Kronecker power")
    return kron_all([a] * k)


def direct_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix with ``x`` upper-left and ``y`` lower-right.

    Both inputs must be square.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[0] != x.shape[1] or y.shape[0] != y.shape[1]:
        raise ValueError("direct_sum requires square blocks")
    n, m = x.shape[0], y.shape[0]
    out = np.zeros((n + m, n + m), dtype=np.complex128)
    out[:n, :n] = x
    out[n:, n:] = y
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def max_abs(m: np.ndarray) -> float:
    """Chebyshev norm on entries; the comparison norm used everywhere here."""
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return max_abs(np.asarray(a) - np.asarray(b))


class UnitaryCheck(NamedTuple):
    """Outcome of a unitarity test: the verdict plus the achieved residual."""

    passed: bool
    residual: float

    def __bool__(self) -> bool:
        return self.passed


def unitarity_residual(m: np.ndarray) -> float:
    """max-abs entry of M M^dagger - I."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("unitarity is defined for square matrices only")
    return max_abs(m @ dagger(m) - identity(m.shape[0]))


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> UnitaryCheck:
    """Test unitarity at tolerance ``tol``, returning verdict and residual."""
    residual = unitarity_residual(m)
    return UnitaryCheck(residual <= tol, residual)


def inverse(m: np.ndarray, pivot_threshold: float = PIVOT_THRESHOLD) -> np.ndarray:
    """Invert by Gaussian elimination with partial pivoting.

    A pivot of magnitude below ``pivot_threshold`` raises
    :class:`SingularMatrixError`.
    """
    a = as_matrix(m).copy()
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("cannot invert a non-square matrix")
    aug = np.hstack([a, identity(n)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if abs(pivot) < pivot_threshold:
            raise SingularMatrixError(
                f"matrix is singular at pivot threshold {pivot_threshold:g}"
            )
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] = aug[col] / pivot
        others = [r for r in range(n) if r != col]
        aug[others] -= np.outer(aug[others, col], aug[col])
    return aug[:, n:]


def determinant(m: np.ndarray) -> complex:
    """Determinant via LU-style elimination with partial pivoting."""
    a = as_matrix(m).copy()
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    det = 1.0 + 0.0j
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if pivot == 0:
            return 0.0 + 0.0j
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            det = -det
        det *= pivot
        a[col + 1 :] -= np.outer(a[col + 1 :, col] / pivot, a[col])
    return complex(det)


def char_poly_coefficients(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial by the Faddeev-LeVerrier recurrence.

    Returns coefficients in descending powers, leading coefficient 1, so the
    result can be fed to ``numpy.polyval`` directly.  Intended for n <= 16.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("characteristic polynomial of a non-square matrix")
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    aux = np.zeros_like(a)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        aux = a @ aux + c * identity(n)
        c = -np.trace(a @ aux) / k
        coeffs[k] = c
    return coeffs


def sort_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Canonical eigenvalue order: by (real, imag) rounded at 1e-6.

    The rounding makes the order stable against root-ordering
    nondeterminism in the underlying solver.
    """
    vals = np.asarray(values, dtype=np.complex128)
    keys = [(round(v.real, 6), round(v.imag, 6), v.real, v.imag) for v in vals]
    order = sorted(range(len(vals)), key=lambda i: keys[i])
    return vals[order]


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues with multiplicity, in canonical sorted order.

    Scoped to matrices of side <= 16.  Residuals of the characteristic
    polynomial at the returned values stay below 1e-8 for well-scaled
    inputs (entries of modulus O(1)).
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eigenvalues of a non-square matrix")
    if a.shape[0] > 16:
        raise ValueError("eigenvalue computation is scoped to side <= 16")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(str(exc)) from exc
    return sort_eigenvalues(vals)


def eigenvalue_multisets_close(a, b, tol: float = 1e-8) -> bool:
    """Compare two eigenvalue multisets after canonical sorting."""
    a = sort_eigenvalues(np.asarray(a, dtype=np.complex128))
    b = sort_eigenvalues(np.asarray(b, dtype=np.complex128))
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= tol))


def matrix_to_json_dict(m: np.ndarray) -> dict:
    """Encode a matrix as ``{"rows", "cols", "entries"}`` with [re, im] pairs.

    Entries are row-major 64-bit floats; the encoding round-trips bit-exactly
    through ``json``.
    """
    m = as_matrix(m)
    entries = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def matrix_from_json_dict(data: dict) -> np.ndarray:
    try:
        rows = int(data["rows"])
        cols = int(data["cols"])
        entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix JSON must have positive dimensions")
    if len(entries) != rows * cols:
        raise ValueError(
            f"matrix JSON has {len(entries)} entries, expected {rows * cols}"
        )
    flat = np.empty(rows * cols, dtype=np.complex128)
    for idx, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError("matrix JSON entries must be [re, im] pairs")
        flat[idx] = complex(float(pair[0]), float(pair[1]))
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix JSON entries must be finite")
    return flat.reshape(rows, cols)


def matrix_to_json(m: np.ndarray) -> str:
    return json.dumps(matrix_to_json_dict(m))


def matrix_from_json(text: str) -> np.ndarray:
    return matrix_from_json_dict(json.loads(text))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style random unitary from the QR factorization of a Gaussian."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
