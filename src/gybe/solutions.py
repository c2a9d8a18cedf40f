"""Concrete unitary solutions of the (2,3,1) and (2,3,2) equations.

The 8x8 solutions handled here all split as R = X (+) Y with X and Y built
from 2x2 diagonal blocks scaled by 1/sqrt(2):

    X = (1/sqrt2) [[A, B], [C, D]],   Y = (1/sqrt2) [[Y1, Y2], [Y3, Y4]],

with A = diag(1, omega), B = diag(alpha, beta), D = diag(gamma, delta).
Unitarity of X pins C = -D B^dagger A, and the first of the eight block
equations pins Y1..Y4 in terms of the five unit-circle parameters.  The
admissible (omega, gamma, delta) fall into three categories, which yield
three families of solutions parameterized by (alpha, beta) on the circle,
or equivalently by the phase of beta/alpha.

Everything is constructed from analytic formulas (roots of unity, 1/sqrt2),
never from decimal literals, so verification residuals sit at machine
epsilon.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from . import linalg
from .core import CheckReport, GybeSignature, RMatrix, pad_identity

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2

# (omega, gamma, delta) for the three admissible categories A, B and C, indexed
# by family; A and B also admit the complex conjugate.
FAMILY_PARAMS: dict[int, tuple[complex, complex, complex]] = {
    1: (1j, 1j, 1.0 + 0j),
    2: (1j, 1.0 + 0j, 1j),
    3: (1.0 + 0j, 1.0 + 0j, 1.0 + 0j),
}

# The one layout table of R = X (+) Y: the flat (8 * row + column) positions
# of the p and q of A, B, C, D (in X, the top-left 4x4 quadrant) and Y1-Y4
# (in Y, the bottom-right one), one row per block, and its support, the
# two-block pattern of every 8x8 solution here: entry (i, j) of a diagonal
# quadrant is live iff i + j is even.
BLOCK_SLOTS = linalg.frozen(
    np.array([[0, 9], [2, 11], [16, 25], [18, 27], [36, 45], [38, 47], [52, 61], [54, 63]])
)
BLOCK_SUPPORT = linalg.frozen(np.isin(np.arange(64), BLOCK_SLOTS).reshape(8, 8))

_UNIT_TOL = 1e-12
# Parameters read off a matrix may come from numerical search, so the
# category and constraint checks on them are looser than verification.
CLASSIFY_TOL = 1e-9


def _finite(kind: type, value, name: str):
    """The one gate on a solution parameter: :func:`linalg.number`, and then finite."""
    value = linalg.number(kind, value, name)
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _on_unit_circle(value: complex, tol: float) -> bool:
    return abs(abs(value) - 1.0) <= tol


def _require_unit(value, name: str, tol: float = _UNIT_TOL) -> complex:
    value = _finite(complex, value, name)
    if not _on_unit_circle(value, tol):
        raise ValueError(f"{name} must lie on the unit circle, got |{name}|={abs(value)}")
    return value


@dataclass(frozen=True)
class DiagBlock:
    """A 2x2 diagonal matrix, stored as its two diagonal entries, each a plain
    complex; whether they are finite is :class:`BlockSolution`'s check."""

    p: complex
    q: complex

    def __post_init__(self):
        object.__setattr__(self, "p", linalg.number(complex, self.p, "p"))
        object.__setattr__(self, "q", linalg.number(complex, self.q, "q"))

    def is_unitary(self) -> bool:
        return _on_unit_circle(self.p, _UNIT_TOL) and _on_unit_circle(self.q, _UNIT_TOL)

    @staticmethod
    def identity() -> "DiagBlock":
        return DiagBlock(1.0 + 0j, 1.0 + 0j)


def _family(family: int) -> int:
    """``family`` as a plain int if it is 1, 2 or 3, else a ValueError."""
    if linalg.count(family, "family") not in FAMILY_PARAMS:
        raise ValueError(f"family must be 1, 2, or 3, got {family}")
    return int(family)


def _forced_C(a: DiagBlock, b: DiagBlock, d: DiagBlock) -> DiagBlock:
    """-D B^dagger A, entry by entry, with no check on the blocks."""
    return DiagBlock(-d.p * b.p.conjugate() * a.p, -d.q * b.q.conjugate() * a.q)


def derive_C(a: DiagBlock, b: DiagBlock, d: DiagBlock) -> DiagBlock:
    """The lower-left block forced by unitarity of X: C = -D B^dagger A.

    Requires A and B unitary (diagonal); D is unconstrained here.
    """
    for name, block in (("A", a), ("B", b)):
        if not block.is_unitary():
            raise ValueError(f"{name} must be a unitary diagonal block")
    return _forced_C(a, b, d)


def derive_Y(
    omega: complex,
    gamma: complex,
    delta: complex,
    alpha: complex = 1.0 + 0j,
    beta: complex = 1.0 + 0j,
) -> tuple[DiagBlock, DiagBlock, DiagBlock, DiagBlock]:
    """Solve the first block equation for the four lower blocks Y1..Y4.

    All five parameters must be unit modulus.  With alpha = beta = 1 this
    reproduces the three reduced solutions; general alpha, beta give the
    full families.
    """
    w = _require_unit(omega, "omega")
    g = _require_unit(gamma, "gamma")
    dd = _require_unit(delta, "delta")
    al = _require_unit(alpha, "alpha")
    be = _require_unit(beta, "beta")
    wc, gc, dc = w.conjugate(), g.conjugate(), dd.conjugate()
    ac, bc = al.conjugate(), be.conjugate()
    y1 = DiagBlock(w, w * gc * (1 + dd * w - w))
    y2 = DiagBlock(be * dc * (1 - g - wc), -ac * be * be)
    y3 = DiagBlock(bc * (1 + w * g - w), al * bc * bc * dd * dd * w * w * gc)
    y4 = DiagBlock(dc * g * (w + wc - g), 1 - dd + w)
    return y1, y2, y3, y4


def _require_finite(name: str, block: DiagBlock) -> None:
    if not (cmath.isfinite(block.p) and cmath.isfinite(block.q)):
        raise ValueError(f"block {name} must be finite, got {block}")


@dataclass(frozen=True)
class BlockSolution:
    """The structured form R = X (+) Y with all eight 2x2 blocks diagonal.

    C is not stored: unitarity of X forces C = -D B^dagger A, which is read
    as a property.  Construction is the one check of a block solution:
    every entry of the seven blocks it takes is finite and A, B, D are
    unitary, which makes C unitary; the Y blocks are otherwise free.
    """

    A: DiagBlock
    B: DiagBlock
    D: DiagBlock
    Y1: DiagBlock
    Y2: DiagBlock
    Y3: DiagBlock
    Y4: DiagBlock

    def __post_init__(self):
        for name in (field.name for field in fields(self)):
            block = getattr(self, name)
            _require_finite(name, block)
            if name in ("A", "B", "D") and not block.is_unitary():
                raise ValueError(f"block {name} must be unitary diagonal")

    @property
    def C(self) -> DiagBlock:
        return _forced_C(self.A, self.B, self.D)

    @property
    def omega(self) -> complex:
        return self.A.q

    @property
    def alpha(self) -> complex:
        return self.B.p

    @property
    def beta(self) -> complex:
        return self.B.q

    @property
    def gamma(self) -> complex:
        return self.D.p

    @property
    def delta(self) -> complex:
        return self.D.q

    def x_matrix(self) -> np.ndarray:
        return self.r_matrix()[:4, :4]

    def y_matrix(self) -> np.ndarray:
        return self.r_matrix()[4:, 4:]

    def r_matrix(self) -> np.ndarray:
        blocks = (self.A, self.B, self.C, self.D, self.Y1, self.Y2, self.Y3, self.Y4)
        out = np.zeros((8, 8), dtype=np.complex128)
        np.put(out, BLOCK_SLOTS, [[k.p, k.q] for k in blocks])
        return INV_SQRT2 * out

    def to_rmatrix(self, label: str = "") -> RMatrix:
        return RMatrix(GybeSignature(2, 3, 1), self.r_matrix(), label)

    @staticmethod
    def from_params(
        omega: complex,
        gamma: complex,
        delta: complex,
        alpha: complex = 1.0 + 0j,
        beta: complex = 1.0 + 0j,
    ) -> "BlockSolution":
        ys = derive_Y(omega, gamma, delta, alpha, beta)  # checks all five
        return BlockSolution(DiagBlock(1.0 + 0j, omega), DiagBlock(alpha, beta), DiagBlock(gamma, delta), *ys)

    @staticmethod
    def from_matrices(x: np.ndarray, y: np.ndarray, tol: float = 1e-10) -> "BlockSolution":
        """Extract the diagonal blocks from explicit 4x4 matrices; the C read
        off X must be finite and within 1e-12 of -D B^dagger A."""
        tol = linalg.tolerance(tol)
        quadrants = [linalg.as_matrix(m) for m in (x, y)]
        if any(m.shape != (4, 4) for m in quadrants):
            raise ValueError("expected a 4x4 matrix")
        # A block is sqrt2 times its entries, read at the caller's tol; an
        # infinite entry becomes inf+nanj, as in a Python product, without numpy's warning.
        with np.errstate(invalid="ignore"):
            scaled = SQRT2 * linalg.direct_sum(*quadrants)
        a, b, c, d, *ys = (DiagBlock(p, q) for p, q in _block_entries(scaled, tol).tolist())
        s = BlockSolution(a, b, d, *ys)
        _require_finite("C", c)
        err = max(abs(c.p - s.C.p), abs(c.q - s.C.q))
        if err > 1e-12:
            raise ValueError(f"C deviates from -D B^dagger A by {err:.3e}; X cannot be unitary")
        return s


def split_blocks(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 diagonal blocks X and Y of an 8x8 matrix."""
    m = linalg.as_matrix(r)
    if m.shape != (8, 8):
        raise ValueError("expected an 8x8 matrix")
    return m[:4, :4].copy(), m[4:, 4:].copy()


def _block_entries(m: np.ndarray, tol: float) -> np.ndarray:
    """The one reader of the X (+) Y form: the (p, q) of A-D and Y1-Y4, one row
    per block, once ``m`` is 8x8 and its off-diagonal 4x4 quadrants, then the
    off-diagonal entries of X's 2x2 sub-blocks, then Y's vanish within ``tol``;
    the first of these that fails raises ValueError naming it."""
    if m.shape != (8, 8):
        raise ValueError("classification applies to 8x8 block solutions")
    off = ~BLOCK_SUPPORT
    for region, entries in (
        ("the off-diagonal 4x4 quadrants reach {}", [m[:4, 4:], m[4:, :4]]),
        ("the 2x2 sub-blocks of X are not diagonal (off-diagonal entries reach {})", m[:4, :4][off[:4, :4]]),
        ("the 2x2 sub-blocks of Y are not diagonal (off-diagonal entries reach {})", m[4:, 4:][off[4:, 4:]]),
    ):
        off = linalg.max_abs(entries)
        if not off <= tol:
            reach = f"{off:.3e}, above tolerance {tol:g}"
            raise ValueError(f"not in block-solution form: {region.format(reach)}")
    return np.take(m, BLOCK_SLOTS)


def block_parameters(m: np.ndarray, tol: float = CLASSIFY_TOL) -> tuple[complex, complex, complex]:
    """(omega, gamma, delta) read off an 8x8 matrix in block-solution form.

    They are read after scaling A's corner to 1, which takes out a global
    scalar.  The matrix must be square with finite entries, pass
    :func:`_block_entries` at ``tol``, and A's corner must not vanish; the
    first of these that fails raises ValueError naming it.
    """
    tol = linalg.tolerance(tol)
    m = linalg.square_matrix(m, "block-solution matrix")
    (a_p, omega), _, _, (gamma, delta), *_ = _block_entries(m, tol)
    corner = SQRT2 * a_p
    if not abs(corner) >= 1e-9:
        raise ValueError("top-left entry is zero; not in block-solution form")
    scale = 1.0 / corner
    return tuple(complex(SQRT2 * scale * value) for value in (omega, gamma, delta))


def rowell_solution() -> RMatrix:
    """The 8x8 unitary (2,3,1) solution built from the primitive 8th root zeta."""
    zeta = np.exp(2j * np.pi / 8)
    zi = 1.0 / zeta
    pairs = ((zi, zeta), (-zi, zeta), (zeta, zi), (zeta, zi), (zeta, -zi), (-zi, zeta), (zi, zeta))
    return BlockSolution(*(DiagBlock(p, q) for p, q in pairs)).to_rmatrix("rowell")


def xshape_solution() -> RMatrix:
    """The 8x8 unitary (2,3,2) solution whose nonzeros form an X shape."""
    m = np.zeros((8, 8), dtype=np.complex128)
    for i in range(8):
        m[i, i] = 1.0
        m[i, 7 - i] = 1.0 if i < 4 else -1.0
    return RMatrix(GybeSignature(2, 3, 2), INV_SQRT2 * m, "xshape")


def general_solution(family: int, alpha: complex, beta: complex) -> RMatrix:
    """The family member R(alpha, beta) for unit-circle alpha and beta, labelled
    with the ``repr`` of each part, an id that :func:`resolve_solution` rebuilds
    bit for bit."""
    family = _family(family)
    block = BlockSolution.from_params(*FAMILY_PARAMS[family], alpha, beta)
    label = f"family{family}:alpha={block.alpha.real!r},{block.alpha.imag!r}"
    return block.to_rmatrix(f"{label}:beta={block.beta.real!r},{block.beta.imag!r}")


def family_solution(family: int, theta: float) -> RMatrix:
    """The one-angle family member R(theta) = R(1, e^{i theta}), theta in [0, pi],
    labelled with the ``repr`` of theta, as :func:`general_solution` is."""
    family = _family(family)
    theta = _finite(float, theta, "theta")
    if not -1e-12 <= theta <= math.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    block = BlockSolution.from_params(*FAMILY_PARAMS[family], 1.0 + 0j, np.exp(1j * theta))
    return block.to_rmatrix(f"family{family}:theta={theta!r}")


def base_solution(family: int) -> BlockSolution:
    """The reduced solution of the family, i.e. alpha = beta = 1."""
    return BlockSolution.from_params(*FAMILY_PARAMS[_family(family)])


def conjugate_solution(r: RMatrix) -> RMatrix:
    """Entrywise complex conjugate; maps solutions to solutions."""
    return RMatrix(r.signature, np.conj(r.matrix), f"conj({r.label})")


def check_block_equations(
    x: np.ndarray, y: np.ndarray, tol: float = linalg.DEFAULT_TOL
) -> CheckReport:
    """Evaluate the eight block equations equivalent to the (2,3,1) equation.

    ``x`` and ``y`` are the 4x4 diagonal blocks R_0 and R_1 of R = X (+) Y.
    With M[a, i, j] the 2x2 sub-block (i, j) of R_a times sqrt2, lifted as
    M ⊗ I_2, equation (a, i, j) is one relation,

        sum_k M[a, i, k] R_k M[a, k, j] = sqrt2 R_i M[a, i, j] R_j,

    twice the block (a, i; a, j) of L S L - S L S.  ``detail`` holds the
    eight residuals in (a, i, j) order, each halved back to that scale, so
    the pass verdict agrees with a direct check of X (+) Y at the same
    tolerance.
    """
    x = linalg.square_matrix(x, "block X")
    y = linalg.square_matrix(y, "block Y")
    if x.shape != (4, 4) or y.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    r = np.stack([x, y])
    blocks = pad_identity((SQRT2 * r).reshape(2, 2, 2, 2, 2).swapaxes(2, 3), 1, 2)
    lhs = (blocks[:, :, None] @ r @ blocks.swapaxes(1, 2)[:, None]).sum(axis=3)
    rhs = SQRT2 * (r[:, None] @ blocks @ r)
    return CheckReport((np.abs(lhs - rhs).max(axis=(-2, -1)) / 2).ravel().tolist(), tol)


def param_constraint_residuals(
    omega: complex, gamma: complex, delta: complex
) -> tuple[float, ...]:
    """The ten scalar constraints on (omega, gamma, delta).

    The first four make the derived Y blocks consistent with the remaining
    block equations; the last six are the unitarity conditions on Y.
    """
    w = _finite(complex, omega, "omega")
    g = _finite(complex, gamma, "gamma")
    d = _finite(complex, delta, "delta")
    wc, gc, dc = w.conjugate(), g.conjugate(), d.conjugate()
    values = (
        (d - 1) * w * w + (1 + d * d - d * g + g) * w - 2 * g,
        d * (2 - wc - g) - (-wc - g + 1 + wc * g - g * g + w * g),
        (d - 1) * g - (d * d - 1 + w * (1 - d)),
        d * (2 * w + wc - g) - (wc - 1 + g + wc * g + w * g - g * g),
        w + wc + g + gc - (w * g + wc * gc + 2),
        w + wc + d + dc - (w * d + wc * dc + 2),
        1 + w + wc + w * g - (g + gc + w * w + w * gc),
        2 + w * d - (d + dc + w * dc),
        w + wc + g + gc + w * gc + wc * g - (4 + w * w + wc * wc),
        d + dc + wc * d + w * dc - (2 + w + wc),
    )
    return tuple(abs(v) for v in values)


def check_param_constraints(
    omega: complex, gamma: complex, delta: complex, tol: float = CLASSIFY_TOL
) -> CheckReport:
    for name, value in (("omega", omega), ("gamma", gamma), ("delta", delta)):
        _require_unit(value, name, tol=CLASSIFY_TOL)
    return CheckReport(param_constraint_residuals(omega, gamma, delta), tol)


def classify_unitary_params(
    omega: complex, gamma: complex, delta: complex, tol: float = CLASSIFY_TOL
) -> str:
    """Name the admissible category of (omega, gamma, delta), or "none".

    Categories A, B and C are families 1, 2 and 3 of :data:`FAMILY_PARAMS`,
    A and B also in complex conjugate.  The first within ``tol`` of each
    entry names it, in the order A, B, conjugate A, conjugate B, C.
    """
    tol = linalg.tolerance(tol)
    w = _finite(complex, omega, "omega")
    g = _finite(complex, gamma, "gamma")
    d = _finite(complex, delta, "delta")
    a, b, c = FAMILY_PARAMS[1], FAMILY_PARAMS[2], FAMILY_PARAMS[3]
    conj_a, conj_b = (tuple(v.conjugate() for v in params) for params in (a, b))
    for category, params in zip("ABABC", (a, b, conj_a, conj_b, c)):
        if all(abs(v - want) <= tol for v, want in zip((w, g, d), params)):
            return category
    return "none"


def _replace_B(s: BlockSolution, b: DiagBlock, alpha: complex, beta: complex) -> BlockSolution:
    """s with B set to ``b`` (C follows it), and the phases (alpha, beta) taken
    out of Y2 and Y3: the one conjugation behind both directions of the reduction."""
    return replace(
        s,
        B=b,
        Y2=DiagBlock(beta.conjugate() * s.Y2.p, alpha * beta.conjugate() ** 2 * s.Y2.q),
        Y3=DiagBlock(beta * s.Y3.p, alpha.conjugate() * beta**2 * s.Y3.q),
    )


def reduce_to_B_identity(s: BlockSolution) -> BlockSolution:
    """Conjugate away the B block: tilde(B) = I, keeping solution-hood;
    ``restore(reduce_to_B_identity(s), s.B)`` gives s back.

    The X quadrant is conjugated by diag(I, B) and the Y quadrant by
    diag(I, conj(alpha) beta B); both preserve the eight block equations.
    """
    return _replace_B(s, DiagBlock.identity(), s.alpha, s.beta)


def restore(reduced: BlockSolution, b: DiagBlock) -> BlockSolution:
    """Invert :func:`reduce_to_B_identity` for a chosen unitary diagonal B."""
    return _replace_B(reduced, b, b.p.conjugate(), b.q.conjugate())


# --- named-solution registry -------------------------------------------------

_NAMED_BUILDERS = {
    "rowell": rowell_solution,
    "xshape": xshape_solution,
    "base1": lambda: base_solution(1).to_rmatrix("base1"),
    "base2": lambda: base_solution(2).to_rmatrix("base2"),
    "base3": lambda: base_solution(3).to_rmatrix("base3"),
}

_FAMILY_THETA_RE = re.compile(r"^family([123]):theta=([^:]+)$")
_FAMILY_AB_RE = re.compile(
    r"^family([123]):alpha=([^,:]+),([^,:]+):beta=([^,:]+),([^,:]+)$"
)


def registry_ids() -> tuple[str, ...]:
    """The fixed named entries; parametric family ids resolve as well."""
    return tuple(_NAMED_BUILDERS)


def resolve_solution(solution_id: str) -> RMatrix:
    """Resolve a registry id to an R-matrix.

    Accepts the named entries plus parametric forms
    ``family<k>:theta=<radians>`` and
    ``family<k>:alpha=<re>,<im>:beta=<re>,<im>``, each number a plain
    decimal (:func:`linalg.real`).
    """
    builder = _NAMED_BUILDERS.get(solution_id)
    if builder is not None:
        return builder()
    m = _FAMILY_THETA_RE.match(solution_id)
    if m:
        return family_solution(int(m.group(1)), linalg.real(m.group(2)))
    m = _FAMILY_AB_RE.match(solution_id)
    if m:
        alpha = complex(linalg.real(m.group(2)), linalg.real(m.group(3)))
        beta = complex(linalg.real(m.group(4)), linalg.real(m.group(5)))
        return general_solution(int(m.group(1)), alpha, beta)
    raise KeyError(f"unknown solution id: {solution_id!r}")
