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
from dataclasses import dataclass
from typing import NamedTuple

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
            if getattr(self, name) < 1:
                raise ValueError(f"signature component {name} must be positive")

    @property
    def matrix_size(self) -> int:
        """Side length d^m of a conforming R-matrix."""
        return self.d**self.m

    def has_side(self, side: int) -> bool:
        """side == d^m, decided without building d^m when m is large."""
        return not _power_exceeds(self.d, self.m, side) and self.matrix_size == side

    @property
    def lifted_size(self) -> int:
        """Side length d^(m+l) on which the two lifted operators act."""
        return self.d ** (self.m + self.l)

    def __str__(self) -> str:
        return f"({self.d},{self.m},{self.l})"


@dataclass(frozen=True)
class RMatrix:
    """A candidate or verified solution, tagged with its signature.

    Construction validates shape against the signature, finiteness of every
    entry, and invertibility at the global pivot threshold.  The stored
    matrix is an immutable copy.
    """

    signature: GybeSignature
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = linalg.frozen(linalg.as_matrix(self.matrix))
        if m.shape[0] != m.shape[1]:
            raise ValueError("an R-matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("an R-matrix must have finite entries")
        sig, side = self.signature, m.shape[0]
        if not sig.has_side(side):
            raise ValueError(
                f"matrix side {side} does not match signature {sig} (expected {sig.d}^{sig.m})"
            )
        linalg.inverse(m)  # raises SingularMatrixError when not invertible
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CheckReport:
    """Result of one verification: overall residual plus per-equation detail."""

    residual: float
    passed: bool
    tolerance: float
    detail: tuple[float, ...] = ()
    vacuous: bool = False

    def __post_init__(self):
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.passed != (self.residual <= self.tolerance):
            raise ValueError("inconsistent report: passed must mean residual <= tolerance")

    @classmethod
    def from_residuals(cls, residuals, tol: float, vacuous: bool = False) -> "CheckReport":
        """The report on per-equation ``residuals``: their maximum (0.0 for
        none) against ``tol``, with the residuals as detail."""
        residuals = tuple(residuals)
        residual = max(residuals, default=0.0)
        return cls(residual, residual <= tol, tol, residuals, vacuous)

    def to_json_dict(self) -> dict:
        data = {
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "detail": [float(v) for v in self.detail],
        }
        if self.vacuous:
            data["vacuous"] = True
        return data


def lift_index(n: int, pad: int) -> np.ndarray:
    """Where each entry of L = R ⊗ I_pad and S = I_pad ⊗ R comes from.

    A (2, side, side) table, side = n·pad, of flat indices into
    ``[R.ravel(), 0]``: entry (i·pad + a, j·pad + b) of L is R[i, j] when
    a = b, and entry (a·n + i, b·n + j) of S likewise; every other entry
    points at the trailing zero, index n².
    """
    side, a, entries = n * pad, np.arange(pad), np.arange(n * n).reshape(n, n)
    table = np.full((2, side, side), n * n)
    table[0].reshape(n, pad, n, pad)[:, a, :, a] = entries
    table[1].reshape(pad, n, pad, n)[a, :, a, :] = entries
    return table


def lift_pair(m: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """The lifts L = R ⊗ I_pad and S = I_pad ⊗ R, gathered by :func:`lift_index`.

    ``m`` may carry leading batch axes; the lifts keep them, so a stack of
    directions lifts in one call.
    """
    n, batch = m.shape[-1], m.shape[:-2]
    pool = np.zeros(batch + (n * n + 1,), dtype=m.dtype)
    pool[..., :-1] = m.reshape(*batch, n * n)
    lifts = np.take(pool, lift_index(n, pad), axis=-1)
    return lifts[..., 0, :, :], lifts[..., 1, :, :]


def lifted_difference(matrix: np.ndarray, signature: GybeSignature) -> np.ndarray:
    """L S L - S L S for L = R ⊗ I^l, S = I^l ⊗ R; zero exactly on solutions.

    Like :func:`lift_pair`, ``matrix`` may carry leading batch axes.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    size = signature.matrix_size
    if m.ndim < 2 or m.shape[-2:] != (size, size):
        raise ValueError(f"matrix shape {m.shape} does not match signature {signature}")
    braid_dimension(signature, 3)  # L, S are sigma_1, sigma_2 on 3 strands
    left, right = lift_pair(m, signature.d**signature.l)
    return left @ right @ left - right @ left @ right


def gybe_residual(matrix: np.ndarray, signature: GybeSignature) -> float:
    """max-abs entry of L S L - S L S for L = R ⊗ I^l, S = I^l ⊗ R."""
    return linalg.max_abs(lifted_difference(matrix, signature))


def check_gybe(r: RMatrix, tol: float = linalg.DEFAULT_TOL) -> CheckReport:
    """Verify the (d, m, l) equation for ``r`` at tolerance ``tol``."""
    return CheckReport.from_residuals([gybe_residual(r.matrix, r.signature)], tol)


def check_ybe(x: np.ndarray, tol: float = linalg.DEFAULT_TOL) -> CheckReport:
    """Verify the ordinary Yang-Baxter equation for a d^2 x d^2 matrix."""
    m = linalg.as_matrix(x)
    if m.shape[0] != m.shape[1]:
        raise ValueError("YBE candidate must be square")
    d = math.isqrt(m.shape[0])
    if d * d != m.shape[0]:
        raise ValueError(f"YBE candidate side {m.shape[0]} is not a perfect square")
    if not np.all(np.isfinite(m)):
        raise ValueError("YBE candidate must have finite entries")
    return CheckReport.from_residuals([gybe_residual(m, GybeSignature(d, 2, 1))], tol)


class DoubleLiftReport(NamedTuple):
    """YBE check of X paired with the (2,3,1) check of X (+) X."""

    ybe: CheckReport
    gybe: CheckReport

    @property
    def agree(self) -> bool:
        return self.ybe.passed == self.gybe.passed


def double_lift_check(x: np.ndarray, tol: float = linalg.DEFAULT_TOL) -> DoubleLiftReport:
    """Check a 4x4 X against the YBE and X (+) X against the (2,3,1) equation.

    The two verdicts agree for every invertible X; the paired report makes
    that equivalence observable.
    """
    m = linalg.as_matrix(x)
    if m.shape != (4, 4):
        raise ValueError("double_lift_check expects a 4x4 matrix")
    doubled = RMatrix(GybeSignature(2, 3, 1), linalg.direct_sum(m, m), "double-lift")
    return DoubleLiftReport(check_ybe(m, tol), check_gybe(doubled, tol))


def braid_dimension(signature: GybeSignature, n: int) -> int:
    """Side d^(m + (n-2)l) of the n-strand representation.

    The one gate on dense size: generators, representations, far pairs
    (n = j + 1) and the lifted residual (n = 3) all size themselves here.
    The cap is decided from the exponent, so a huge n builds no huge integer,
    and an oversized side is reported as d^k.
    """
    if n < 2:
        raise ValueError("a braid group needs at least 2 strands")
    exponent = signature.m + (n - 2) * signature.l
    if _power_exceeds(signature.d, exponent, MAX_MATRIX_SIDE):
        raise ValueError(
            f"representation dimension {signature.d}^{exponent} exceeds the dense cap "
            f"{MAX_MATRIX_SIDE}"
        )
    return signature.d**exponent


def apply_local(m: np.ndarray, columns: np.ndarray, left: int) -> np.ndarray:
    """(I_left ⊗ m ⊗ I) @ columns, for a vector or a (dim, k) block.

    The rows split as (left, side of m, rest) and m contracts the middle
    axis; the identity on the right stays implicit in the reshape.
    """
    split = columns.reshape(left, m.shape[0], -1)
    return np.matmul(m, split).reshape(columns.shape)


def braid_generator_matrix(r: RMatrix, n: int, i: int) -> np.ndarray:
    """The i-th generator's image I^(l(i-1)) ⊗ R ⊗ I^(l(n-i-1)) on n strands."""
    dim = braid_dimension(r.signature, n)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    left = r.signature.d ** (r.signature.l * (i - 1))
    return apply_local(r.matrix, linalg.identity(dim), left)


def far_commutativity_indices(signature: GybeSignature) -> list[int]:
    """Generator indices j > 2 with (j-1) l < m; empty iff 2l >= m."""
    return list(range(3, (signature.m - 1) // signature.l + 2))


def far_commutativity_residual(r: RMatrix, j: int) -> float:
    """max-abs entry of σ_1 σ_j − σ_j σ_1, evaluated on j + 1 strands.

    There σ_1, σ_j are the lift pair R ⊗ I^(l(j-1)), I^(l(j-1)) ⊗ R; on
    more strands both products gain the same identity factor, which leaves
    the residual unchanged.
    """
    sig = r.signature
    braid_dimension(sig, j + 1)  # the dense cap on j + 1 strands
    first, last = lift_pair(r.matrix, sig.d ** (sig.l * (j - 1)))
    return linalg.max_abs_diff(first @ last, last @ first)


def check_far_commutativity(r: RMatrix, tol: float = linalg.DEFAULT_TOL) -> CheckReport:
    """Check R_s1 R_sj = R_sj R_s1 for every j > 2 with (j-1) l < m.

    Each pair is evaluated by :func:`far_commutativity_residual`.  When no
    such j exists (exactly the case 2l >= m) the condition holds vacuously
    and the report carries the ``vacuous`` flag.
    """
    js = far_commutativity_indices(r.signature)
    if not js:
        return CheckReport.from_residuals((), tol, vacuous=True)
    return CheckReport.from_residuals([far_commutativity_residual(r, j) for j in js], tol)


def ybe_summation_residual(matrix: np.ndarray, d: int) -> float:
    """Entrywise summation form of the YBE, as an independent cross-check.

    Writes the equation as d^6 cubic constraints on the coefficients
    R^{kl}_{ij} (row index kl, column index ij, row-major) and returns the
    largest violation.  Small d only; the lifted-product form is canonical.
    """
    m = linalg.as_matrix(matrix)
    if m.shape != (d * d, d * d):
        raise ValueError("matrix does not match the declared local dimension")
    if not np.all(np.isfinite(m)):
        raise ValueError("YBE candidate must have finite entries")
    if d > 4:
        raise ValueError("summation form is a small-d cross-check")

    # t[k, l, i, j] = R^{kl}_{ij}
    t = m.reshape(d, d, d, d)
    lhs = np.einsum("abuv,czbw,xyac->xyzuvw", t, t, t)
    rhs = np.einsum("npvw,xmun,yzmp->xyzuvw", t, t, t)
    return linalg.max_abs(lhs - rhs)
