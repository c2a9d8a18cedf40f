"""Generalized Yang-Baxter equations and their verification.

The (d, m, l) equation constrains an invertible operator R on the m-fold
tensor power of a d-dimensional space:

    (R ⊗ I^l)(I^l ⊗ R)(R ⊗ I^l) = (I^l ⊗ R)(R ⊗ I^l)(I^l ⊗ R)

where I is the identity on one tensor factor.  With m = 2, l = 1 this is the
ordinary Yang-Baxter equation.  Residuals are reported in the max-abs-entry
norm of the difference of the two triple products, which mirrors the
entrywise reading of the equation in the computational basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg

# Dense arithmetic stays comfortable below this side length.
MAX_MATRIX_SIDE = 2**10


def _power_exceeds(d: int, k: int, bound: int) -> bool:
    """d^k > bound for positive d and k, without building d^k when 2^k alone exceeds it."""
    return d > 1 and (k >= bound.bit_length() or d**k > bound)


@dataclass(frozen=True)
class GybeSignature:
    """The triple (d, m, l) indexing a generalized Yang-Baxter equation."""

    d: int
    m: int
    l: int

    def __post_init__(self):
        for name in ("d", "m", "l"):
            object.__setattr__(self, name, linalg.count(getattr(self, name), name, 1))

    @property
    def matrix_size(self) -> int:
        """Side length d^m of a conforming R-matrix."""
        return self.d**self.m

    def has_side(self, side: int) -> bool:
        """side == d^m, decided without building d^m when m is large."""
        return not _power_exceeds(self.d, self.m, side) and self.matrix_size == side

    def __str__(self) -> str:
        return f"({self.d},{self.m},{self.l})"


@dataclass(frozen=True, eq=False)
class RMatrix:
    """A candidate or verified solution, tagged with its signature.

    Construction passes the matrix through :func:`linalg.square_matrix`,
    checks its side against the signature, then invertibility at the global
    singular-value threshold by one :func:`linalg.inverse`, whose result is
    kept as ``inverse``; for a well-conditioned R that inverse certifies the
    gate itself and no SVD runs.  Both arrays are immutable copies.
    """

    signature: GybeSignature
    matrix: np.ndarray
    label: str = ""
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = linalg.frozen(linalg.square_matrix(self.matrix, "R-matrix"))
        sig, side = self.signature, m.shape[0]
        if not sig.has_side(side):
            raise ValueError(
                f"matrix side {side} does not match signature {sig} (expected {sig.d}^{sig.m})"
            )
        object.__setattr__(self, "inverse", linalg.frozen(linalg.inverse(m)))
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CheckReport:
    """Per-equation residuals at a tolerance: ``residual`` is their maximum (0.0
    for none, NaN if one is NaN), ``passed`` means it is at most the tolerance,
    and a report on no equation is ``vacuous``."""

    detail: tuple[float, ...]
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "tolerance", linalg.tolerance(self.tolerance))
        object.__setattr__(self, "detail", tuple(self.detail))

    @property
    def residual(self) -> float:
        return float(np.max(self.detail)) if self.detail else 0.0

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    @property
    def vacuous(self) -> bool:
        return not self.detail

    def to_json_dict(self) -> dict:
        data = {
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "detail": [float(v) for v in self.detail],
        }
        if self.vacuous:
            data["vacuous"] = True
        return data


def lifted_difference(matrix: np.ndarray, signature: GybeSignature) -> np.ndarray:
    """L S L - S L S for L = R ⊗ I^l, S = I^l ⊗ R; zero exactly on solutions.

    ``matrix`` may carry leading batch axes; L and S are σ_1 and σ_2 on
    three strands, placed by :func:`_place`, which keeps them.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    size = signature.matrix_size
    if m.ndim < 2 or m.shape[-2:] != (size, size):
        raise ValueError(f"matrix shape {m.shape} does not match signature {signature}")
    left, right = _place(m, signature, 3, 1), _place(m, signature, 3, 2)
    # A product that overflows makes the residual inf or NaN, which fails every check.
    with np.errstate(over="ignore", invalid="ignore"):
        return left @ right @ left - right @ left @ right


def gybe_residual(matrix: np.ndarray, signature: GybeSignature) -> float:
    """max-abs entry of L S L - S L S for L = R ⊗ I^l, S = I^l ⊗ R."""
    return linalg.max_abs(lifted_difference(matrix, signature))


def check_gybe(r: RMatrix, tol: float = linalg.DEFAULT_TOL) -> CheckReport:
    """Verify the (d, m, l) equation for ``r`` at tolerance ``tol``."""
    return CheckReport((gybe_residual(r.matrix, r.signature),), tol)


def check_ybe(x: np.ndarray, tol: float = linalg.DEFAULT_TOL) -> CheckReport:
    """Verify the ordinary Yang-Baxter equation for a d^2 x d^2 matrix."""
    m = linalg.square_matrix(x, "YBE candidate")
    d = math.isqrt(m.shape[0])
    if d * d != m.shape[0]:
        raise ValueError(f"YBE candidate side {m.shape[0]} is not a perfect square")
    return CheckReport((gybe_residual(m, GybeSignature(d, 2, 1)),), tol)


def _qudits(signature: GybeSignature, n: int) -> int:
    """The qudit count m + (n-2)l on n strands, for an n already counted, under
    the one gate on dense size: d^count is decided from the exponent, so a huge
    one builds no huge integer and is reported as d^k."""
    qudits = signature.m + (n - 2) * signature.l
    if _power_exceeds(signature.d, qudits, MAX_MATRIX_SIDE):
        raise ValueError(
            f"representation dimension {signature.d}^{qudits} exceeds the dense cap "
            f"{MAX_MATRIX_SIDE}"
        )
    return qudits


def braid_dimension(signature: GybeSignature, n: int) -> int:
    """Side d^(m + (n-2)l) of the representation on n >= 2 strands, under the dense cap."""
    return signature.d ** _qudits(signature, linalg.count(n, "n", 2))


def apply_local(m: np.ndarray, columns: np.ndarray, left: int) -> np.ndarray:
    """(I_left ⊗ m ⊗ I) @ columns, for a vector or a (dim, k) block.

    The rows split as (left, side of m, rest) and m contracts the middle
    axis; the identity on the right stays implicit in the reshape.
    """
    split = columns.reshape(left, m.shape[0], -1)
    return np.matmul(m, split).reshape(columns.shape)


def pad_identity(m: np.ndarray, left: int, right: int) -> np.ndarray:
    """I_left ⊗ m ⊗ I_right for a square m, with m copied into zeros; m
    itself when there is nothing to pad.

    ``m`` may carry leading batch axes, and the result keeps them.  Nothing
    is multiplied, so every entry off the copies of m is +0.0 (a product
    with an identity's zeros can give -0.0), or 0 for an integer m.
    """
    if left == right == 1:
        return m
    batch, side = m.shape[:-2], m.shape[-1]
    out = np.zeros(batch + (left, side, right, left, side, right), dtype=m.dtype)
    a, b = np.arange(left)[:, None], np.arange(right)
    out[..., a, :, b, a, :, b] = m
    n = left * side * right
    return out.reshape(batch + (n, n))


def _window(signature: GybeSignature, i: int) -> tuple[int, int]:
    """The qudits [l(i-1), l(i-1)+m) that generator i covers."""
    start = signature.l * (i - 1)
    return start, start + signature.m


def _place(m: np.ndarray, signature: GybeSignature, n: int, i: int) -> np.ndarray:
    """I ⊗ m ⊗ I, m at generator i's window on n strands, capped; m's batch and dtype, never m itself."""
    qudits = _qudits(signature, n)
    lo, hi = _window(signature, i)
    placed = pad_identity(m, signature.d**lo, signature.d ** (qudits - hi))
    return m.copy() if placed is m else placed


def braid_generator_matrix(r: RMatrix, n: int, i: int) -> np.ndarray:
    """The i-th generator's image I^(l(i-1)) ⊗ R ⊗ I^(l(n-i-1)) on n strands,
    placed by :func:`_place`, so writable also at n = 2."""
    n = linalg.count(n, "n", 2)
    i = linalg.count(i, "i")
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index i = {i} is out of range for {n} strands")
    return _place(r.matrix, r.signature, n, i)


def far_commutativity_indices(signature: GybeSignature) -> list[int]:
    """Generator indices j > 2 with (j-1) l < m; empty iff 2l >= m."""
    return list(range(3, (signature.m - 1) // signature.l + 2))


def far_commutativity_residual(r: RMatrix, j: int) -> float:
    """max-abs entry of σ_1 σ_j − σ_j σ_1, evaluated on j + 1 strands.

    There σ_1, σ_j are R ⊗ I^(l(j-1)) and I^(l(j-1)) ⊗ R; on more strands
    both products gain the same identity factor, which leaves the residual
    unchanged.
    """
    j = linalg.count(j, "j", 1)  # the side on j + 1 strands is capped
    first, last = _place(r.matrix, r.signature, j + 1, 1), _place(r.matrix, r.signature, j + 1, j)
    with np.errstate(over="ignore", invalid="ignore"):  # as in lifted_difference
        return linalg.max_abs_diff(first @ last, last @ first)


def check_far_commutativity(r: RMatrix, tol: float = linalg.DEFAULT_TOL) -> CheckReport:
    """Check R_s1 R_sj = R_sj R_s1 for every j > 2 with (j-1) l < m.

    Each pair is evaluated by :func:`far_commutativity_residual`.  When no
    such j exists (exactly the case 2l >= m) the condition holds vacuously:
    the report has no detail and is ``vacuous``.
    """
    js = far_commutativity_indices(r.signature)
    return CheckReport([far_commutativity_residual(r, j) for j in js], tol)


def ybe_summation_residual(matrix: np.ndarray, d: int) -> float:
    """Entrywise summation form of the YBE, as an independent cross-check.

    Writes the equation as d^6 cubic constraints on the coefficients
    R^{kl}_{ij} (row index kl, column index ij, row-major) and returns the
    largest violation.  Small d only; the lifted-product form is canonical.
    """
    m = linalg.square_matrix(matrix, "YBE candidate")
    d = linalg.count(d, "d", 1)
    if m.shape != (d * d, d * d):
        raise ValueError("matrix does not match the declared local dimension")
    if d > 4:
        raise ValueError("summation form is a small-d cross-check")

    # t[k, l, i, j] = R^{kl}_{ij}
    t = m.reshape(d, d, d, d)
    lhs = np.einsum("abuv,czbw,xyac->xyzuvw", t, t, t)
    rhs = np.einsum("npvw,xmun,yzmp->xyzuvw", t, t, t)
    return linalg.max_abs(lhs - rhs)
