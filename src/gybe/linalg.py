"""Dense complex matrix arithmetic for small matrices.

Everything in this package runs on plain ``numpy.ndarray`` values of dtype
complex128.  This module collects the handful of operations the rest of the
library is built from: Kronecker products, direct sums, conjugate transpose,
read-only copies, inversion gated on the smallest singular value,
eigenvalues of small matrices, tolerance-based comparisons in the
max-abs-entry norm, and a bit-exact JSON encoding.  The arithmetic itself is numpy's.

Matrix output formats each distinct entry once: :func:`format_entries`
groups entries by their 16-byte bit pattern, sorted as two uint64 words
(so ``-0.0`` stays apart from ``0.0``), and gathers the texts back, so the
cost follows the distinct values, not the side.  :func:`matrix_to_json`
writes strict JSON with it, byte for byte ``json.dumps(matrix_to_json_dict(m),
allow_nan=False)``, and rejects non-finite entries.

All functions are pure; none mutate their arguments.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Iterable, NamedTuple

import numpy as np

# Smallest singular value below which ``inverse`` declares a matrix singular.
SINGULAR_VALUE_THRESHOLD = 1e-13

# Default tolerance for verifying exactly constructed solutions.
DEFAULT_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when a matrix has no inverse at the singular-value threshold."""


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
    """Conjugate transpose of a matrix, or of each matrix of a (..., n, n) stack."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    return m.conj().swapaxes(-1, -2)


def frozen(values: np.ndarray) -> np.ndarray:
    """A read-only copy of ``values``, for the arrays immutable objects hold."""
    out = np.array(values)
    out.flags.writeable = False
    return out


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
    if not np.all(np.isfinite(m)):
        raise ValueError("unitarity candidate must have finite entries")
    return max_abs(m @ dagger(m) - identity(m.shape[0]))


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> UnitaryCheck:
    """Test unitarity at tolerance ``tol``, returning verdict and residual."""
    residual = unitarity_residual(m)
    return UnitaryCheck(residual <= tol, residual)


def inverse(m: np.ndarray) -> np.ndarray:
    """Matrix inverse, gated on the smallest singular value.

    Raises :class:`SingularMatrixError` for non-finite entries, and unless
    the smallest singular value is at least ``SINGULAR_VALUE_THRESHOLD``.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("cannot invert a non-square matrix")
    if not np.all(np.isfinite(a)):
        raise SingularMatrixError("cannot invert a matrix with non-finite entries")
    smallest = np.linalg.svd(a, compute_uv=False).min(initial=np.inf)
    if not smallest >= SINGULAR_VALUE_THRESHOLD:
        raise SingularMatrixError(
            f"matrix is singular: smallest singular value {smallest:.3e} "
            f"is below {SINGULAR_VALUE_THRESHOLD:g}"
        )
    return np.linalg.inv(a)


def sort_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Canonical eigenvalue order: by (real, imag) rounded at 1e-6, ties
    broken by the exact (real, imag), in one stable ``np.lexsort``.

    The rounding makes the order stable against root-ordering
    nondeterminism in the underlying solver.
    """
    vals = np.asarray(values, dtype=np.complex128)
    re, im = vals.real, vals.imag
    return vals[np.lexsort((im, re, np.round(im, 6), np.round(re, 6)))]


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues with multiplicity, in canonical sorted order.

    Scoped to matrices of side <= 16.  These are LAPACK's eigenvalues
    (``numpy.linalg.eigvals``); for well-scaled inputs (entries of modulus
    O(1)) their product matches the determinant and each makes
    ``m - lambda I`` singular to about 1e-8.
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
    entries = np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def matrix_from_json_dict(data: dict) -> np.ndarray:
    """Decode :func:`matrix_to_json_dict` output; malformed input is a ValueError.

    ``rows`` and ``cols`` must be JSON integers and entries JSON numbers:
    numeric strings, fractions and booleans, which Python and numpy would
    convert, are malformed.
    """
    try:
        rows, cols = data["rows"], data["cols"]
        pairs = np.array(data["entries"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if type(rows) is not int or type(cols) is not int:
        raise ValueError("malformed matrix JSON: rows and cols must be integers")
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix JSON must have positive dimensions")
    if pairs.shape != (rows * cols, 2):
        raise ValueError(
            f"malformed matrix JSON: entries of shape {pairs.shape}, "
            f"expected {rows * cols} [re, im] pairs"
        )
    kinds = set(map(type, itertools.chain.from_iterable(data["entries"])))
    bad = sorted(k.__name__ for k in kinds if k is bool or not issubclass(k, (int, float)))
    if bad:
        raise ValueError(f"malformed matrix JSON: entries must be numbers, not {', '.join(bad)}")
    if not np.all(np.isfinite(pairs)):
        raise ValueError("matrix JSON entries must be finite")
    # Reinterpreting the (re, im) float pairs keeps every bit, -0.0 included.
    return pairs.view(np.complex128).reshape(rows, cols)


def format_entries(m: np.ndarray, fmt: Callable[[complex], str]) -> np.ndarray:
    """``fmt`` of every entry of ``m``, as an object array of ``m``'s shape.

    ``fmt`` runs once per distinct 16-byte bit pattern and the texts are
    gathered back by index; grouping by bits, not by value, keeps ``-0.0``
    and ``0.0`` (and NaN payloads) apart.  The patterns are the two uint64
    words of each entry, sorted by ``np.lexsort`` and split where a word
    changes, which is several times faster than ``np.unique`` on 16-byte
    void keys.
    """
    a = np.ascontiguousarray(m, dtype=np.complex128)
    flat = a.reshape(-1)
    bits = flat.view(np.uint64)
    # Contiguous copies of the two words sort faster than strided views.
    real, imag = bits[0::2].copy(), bits[1::2].copy()
    order = np.lexsort((imag, real))
    real, imag = real[order], imag[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (real[1:] != real[:-1]) | (imag[1:] != imag[:-1])
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    texts = np.array([fmt(z) for z in flat[order[starts]].tolist()], dtype=object)
    return texts[index].reshape(a.shape)


def _json_pair(z: complex) -> str:
    # float.__repr__ is what json.dumps writes for a finite float.
    return f"[{z.real!r}, {z.imag!r}]"


def matrix_to_json(m: np.ndarray) -> str:
    """Strict JSON text of :func:`matrix_to_json_dict`, bit-exact like it.

    The bytes are those of ``json.dumps(matrix_to_json_dict(m),
    allow_nan=False)``; non-finite entries raise ValueError.
    """
    m = as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix JSON entries must be finite")
    entries = ", ".join(format_entries(m, _json_pair).reshape(-1).tolist())
    return f'{{"rows": {m.shape[0]}, "cols": {m.shape[1]}, "entries": [{entries}]}}'


def matrix_from_json(text: str) -> np.ndarray:
    return matrix_from_json_dict(json.loads(text))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style random unitary from the QR factorization of a Gaussian."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
