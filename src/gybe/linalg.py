"""Dense complex matrix arithmetic for small matrices.

Everything in this package runs on plain ``numpy.ndarray`` values of dtype
complex128.  This module collects the handful of operations the rest of the
library is built from: Kronecker products, direct sums, conjugate transpose,
read-only copies, inversion gated on the smallest singular value (which
the inverse itself certifies where it can, with no SVD), eigenvalues of
small matrices, tolerance-based comparisons in the max-abs-entry norm, the
one least-squares fit of a scalar (:func:`scalar_fit`), and a bit-exact
JSON encoding.  The arithmetic itself is numpy's.
Three gates check what a caller hands the library: :func:`square_matrix` a
matrix, :func:`tolerance` a tolerance and :func:`count` a count, the last two
through :func:`number`, the one rule for what an integer, a real and a complex
are; two readers, :func:`integer` and :func:`real`, take a number typed as text.

Matrix output pays for the entries that are not +0.0+0.0j, not for the
side: :func:`matrix_to_json` and :func:`matrix_to_text` gather the two
uint64 words of those live entries and format each distinct word once, so
-0.0 and 0.0, and x and -x, keep their own texts.  The JSON text is one
join of a header, per live entry its preceding run of zero entries as one
repeated string, its real part and its imaginary part, and the trailing
run; it is byte for byte ``json.dumps(matrix_to_json_dict(m),
allow_nan=False)``, and a non-finite entry raises (checked on the live
words: a non-finite part never has all-zero bits).

All functions are pure; none mutate their arguments.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Callable, Iterable

import numpy as np

# Smallest singular value below which ``inverse`` declares a matrix singular.
SINGULAR_VALUE_THRESHOLD = 1e-13

# The rounding allowance of the inverse's own certificate of the gate (see
# ``inverse``), 64 times the unit roundoff, and the largest ||X||_F^2 it accepts.
_CERTIFICATE_MARGIN = 64 * 2.0**-53
_MAX_CERTIFIED_NORM2 = (1 / (4 * SINGULAR_VALUE_THRESHOLD)) ** 2

# Default tolerance for verifying exactly constructed solutions.
DEFAULT_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when a matrix has no inverse at the singular-value threshold."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative eigenvalue computation fails to converge."""


def as_matrix(values) -> np.ndarray:
    """Coerce nested sequences or an ndarray to a 2-D complex128 array with entries."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a 2-D matrix with entries, got shape {m.shape}")
    return m


def square_matrix(values, name: str) -> np.ndarray:
    """``values`` as a non-empty square complex128 matrix with finite entries,
    else a ValueError naming ``name`` and the failed check: the one gate on a
    matrix handed to the library.  Some keep their own checks: a non-finite
    matrix is a :class:`SingularMatrixError` to :func:`inverse` and
    ``GaugeOp``, ``BlockSolution.from_matrices`` names the non-finite block,
    :func:`matrix_from_json_dict` also decodes state columns, ``StateVector``
    takes a vector and ``core.lifted_difference`` a batched stack."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must have finite entries")
    return m


_REALS = (int, float, np.integer, np.floating)
_NUMBERS = {int: (int, np.integer), float: _REALS, complex: (*_REALS, complex, np.complexfloating)}


def number(kind: type, value, name: str):
    """``value`` as a plain ``kind``, ``int``, ``float`` or ``complex``, if it is a Python or
    numpy number of that kind, else a ValueError naming ``name``: the one rule for a scalar.
    A bool, a text, ``None``, a ``Fraction`` and a complex where a real is asked are refused."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS[kind]):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be finite, got {value}") from None


def tolerance(value, name: str = "tolerance") -> float:
    """``value`` as a float if it is a real :func:`number`, finite and non-negative,
    else a ValueError naming ``name``: the one gate on a tolerance handed to the
    library, since a NaN or infinite one makes a "residual <= tol" verdict
    meaningless.  ``SearchConfig`` keeps one side condition: positive."""
    tol = number(float, value, name)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be non-negative and finite, got {value}")
    return tol


def count(value, name: str, minimum: int | None = None) -> int:
    """``value`` as a plain int if it is an integer :func:`number` of at least ``minimum``,
    else a ValueError naming ``name`` and the value: the one gate on a count handed to the
    library, so a bool or a float, integral or not, is never read as 0, 1 or a truncated index."""
    value = number(int, value, name)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def integer(text: str) -> int:
    """An integer as typed by a user: an optional minus and ASCII digits, where ``int``
    would also take ``_``, ``+``, surrounding space and other scripts' digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


_REAL_RE = re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[-+]?[0-9]+)?|inf)|nan")


def real(text: str) -> float:
    """A real number as typed by a user: an optional minus, ASCII digits with at most one
    point and an optional exponent ``e±k``, or ``nan``, ``inf`` or ``-inf``, so every
    ``repr`` of a float, where ``float`` would also take ``_``, ``+``, surrounding space
    and other scripts' digits.  A non-finite value is read; the gate it feeds judges it."""
    if not _REAL_RE.fullmatch(text):
        raise ValueError(f"not a decimal real number: {text!r}")
    return float(text)


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
    return kron_all([a] * count(k, "k", 0))


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


def scalar_fit(a: np.ndarray, b: np.ndarray) -> complex:
    """The lambda minimizing ||lambda a - b|| for arrays a, b of one shape.

    That is <a, b> / <a, a>, and 1 when a vanishes.
    """
    a, b = a.ravel(), b.ravel()
    denom = np.einsum("i,i->", a.conj(), a).real
    if denom < 1e-300:
        return 1.0 + 0.0j
    return complex(np.einsum("i,i->", a.conj(), b) / denom)


def unitarity_residual(m: np.ndarray) -> float:
    """max-abs entry of M M^dagger - I."""
    m = square_matrix(m, "unitarity candidate")
    return max_abs(m @ dagger(m) - identity(m.shape[0]))


def inverse(m: np.ndarray) -> np.ndarray:
    """Matrix inverse, gated on the smallest singular value.

    Raises :class:`SingularMatrixError` for non-finite entries, and unless
    the smallest singular value that ``np.linalg.svd`` computes is at least
    ``SINGULAR_VALUE_THRESHOLD``.  The result is ``np.linalg.inv``'s.

    Most gates are decided by that inverse X alone, without an SVD.  numpy
    inverts A of side n by LAPACK's ``gesv`` on the identity: LU with
    partial pivoting, then two triangular solves per column.  Each computed
    column solves (A + dA) x = e_j with |dA| <= g |L||U| entrywise (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 9.4), where
    g <= 20 n u for unit roundoff u: 3n u in real arithmetic, times about
    6 for complex products and quotients (Higham, Lemma 3.5).  Pivoting by
    |Re| + |Im| keeps every |l_ij| <= sqrt 2, so each |u_ij| <= rho ||A||_F
    with rho = (1 + sqrt 2)^(n - 1), and ||L||_F ||U||_F <= n^2 rho ||A||_F.
    Hence F = A X - I has ||F||_F <= 20 n^3 rho u ||A||_F ||X||_F, and

        ||A||_F ||X||_F <= 1 / (n^3 rho _CERTIFICATE_MARGIN),
        _CERTIFICATE_MARGIN = 64 u,

    gives ||F|| <= 20/64 < 1/2 even after the rounding of the two computed
    norms.  Then A^-1 = X (I + F)^-1, so sigma_min(A) >= 1 / (2 ||X||_F).
    LAPACK's singular values are off by at most p(n) u ||A||_2, p(n) a
    modestly growing function (LAPACK Users' Guide, section 4.9), and under
    the same bound that is at most 1 / (4 ||X||_F) for any p(n) <= 16 n^3 rho.
    So when also ||X||_F <= 1 / (4 ``SINGULAR_VALUE_THRESHOLD``), the SVD
    would find sigma_min >= 1 / (4 ||X||_F) >= the threshold, and X is
    returned.  Anywhere else, including when ``np.linalg.inv`` fails or
    overflows, the SVD decides, as it would without X.  From n = 24 on the
    bound is below n, which ||A||_F ||X||_F never is, so the SVD decides
    every gate there.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("cannot invert a non-square matrix")
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:  # singular to LAPACK, or a NaN met on the way
        pass
    else:
        # A non-finite entry of A, or of X, makes its squared norm infinite or
        # NaN, which fails the test.
        n = a.shape[0]
        x_norm2 = float(np.vdot(x, x).real)
        bound = (1 + math.sqrt(2)) ** (1 - n) / (n**3 * _CERTIFICATE_MARGIN)
        if x_norm2 <= _MAX_CERTIFIED_NORM2 and float(np.vdot(a, a).real) * x_norm2 <= bound * bound:
            return x
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
    a = square_matrix(m, "eigenvalue input")
    if a.shape[0] > 16:
        raise ValueError("eigenvalue computation is scoped to side <= 16")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(str(exc)) from exc
    return sort_eigenvalues(vals)


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

    ``rows`` and ``cols`` pass :func:`count` (at least 1) and entries must
    be JSON numbers: numeric strings, fractions and booleans, which Python
    and numpy would convert, are malformed.
    """
    try:
        rows, cols = data["rows"], data["cols"]
        pairs = np.array(data["entries"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    rows, cols = count(rows, "rows", 1), count(cols, "cols", 1)
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


# A zero entry as it follows another entry in the JSON list.
_JSON_ZERO = ", [0.0, 0.0]"
_TEXT_ZERO = "+0.000000+0.000000i"


def _live_words(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the entries of ``m`` whose bits are not both zero
    (all but +0.0+0.0j), and their (re, im) uint64 words, one row each.

    A non-finite part raises ValueError.
    """
    words = np.ascontiguousarray(m, dtype=np.complex128).reshape(-1).view(np.uint64).reshape(-1, 2)
    live = np.flatnonzero(words[:, 0] | words[:, 1])
    words = np.take(words, live, axis=0)
    # A non-finite part never has all-zero bits, so the live words hold every one.
    if not np.all(np.isfinite(words.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return live, words


def _part_texts(words: np.ndarray, fmt: Callable[[float], str]) -> tuple[np.ndarray, np.ndarray]:
    """``fmt`` of each distinct part in ``words``, and the index of each part's text.

    ``fmt`` runs once per distinct 64-bit word, sign bit included, so -0.0
    and 0.0, and x and -x, each get their own text.
    """
    values, index = np.unique(words, return_inverse=True)
    texts = np.array([fmt(x) for x in values.view(np.float64).tolist()], dtype=object)
    return texts, index.reshape(words.shape)


def matrix_to_json(m: np.ndarray) -> str:
    """Strict JSON text of :func:`matrix_to_json_dict`, bit-exact like it.

    The bytes are those of ``json.dumps(matrix_to_json_dict(m),
    allow_nan=False)``; non-finite entries raise ValueError.  Each entry
    that is not +0.0+0.0j is written after the run of zero entries before
    it, as one repeated string, and the text is one join of these pieces.
    """
    m = as_matrix(m)
    live, words = _live_words(m)
    texts, index = _part_texts(words, repr)
    # The zero-run texts, indexed by run length, for the lengths that occur.
    gaps = np.diff(live, prepend=-1) - 1
    counts = np.bincount(gaps)
    lengths = np.flatnonzero(counts)
    runs = np.empty(counts.size, dtype=object)
    runs[lengths] = [_JSON_ZERO * g + ", [" for g in lengths.tolist()]
    # Per entry: its zero run and ", [", the real part, and ", ", the
    # imaginary part and "]"; after the last one, the trailing zero run.
    pieces = np.empty(3 * live.size + 3, dtype=object)
    pieces[0] = f'{{"rows": {m.shape[0]}, "cols": {m.shape[1]}, "entries": ['
    table = pieces[1:-2].reshape(-1, 3)
    table[:, 0] = np.take(runs, gaps)
    table[:, 1] = np.take(texts, index[:, 0])
    table[:, 2] = np.take(", " + texts + "]", index[:, 1])
    pieces[-2] = _JSON_ZERO * int(m.size - 1 - (live[-1] if live.size else -1))
    pieces[-1] = "]}"
    pieces[1] = pieces[1][2:]  # no ", " before the first entry
    return "".join(pieces.tolist())


def matrix_to_text(m: np.ndarray) -> str:
    """The plain-text matrix: each entry as ``f"{re:+.6f}{im:+.6f}i"``, two
    spaces between entries and one line per row.

    Parts are formatted as in :func:`matrix_to_json`, once per distinct
    value; non-finite entries raise ValueError.
    """
    m = as_matrix(m)
    live, words = _live_words(m)
    texts, index = _part_texts(words, "{:+.6f}".format)
    entries = np.full(m.size, _TEXT_ZERO, dtype=object)
    entries[live] = np.take(texts, index[:, 0]) + np.take(texts + "i", index[:, 1])
    return "\n".join("  ".join(row) for row in entries.reshape(m.shape).tolist())


def matrix_from_json(text: str) -> np.ndarray:
    return matrix_from_json_dict(json.loads(text))
