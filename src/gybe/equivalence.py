"""The gauge group acting on solutions, and equivalence certification.

Three operations map solutions to solutions: multiplication by a nonzero
scalar, inversion, and local conjugation R -> (Q^-1)^⊗m R Q^⊗m by an
invertible single-factor matrix Q.  Equivalence of two solutions is
certified constructively by a witness (a sequence of these operations found
by numerical search) and refuted by conjugacy invariants (eigenvalue
multisets, characteristic polynomials), which similarity cannot change.

Q^⊗m is m passes of :func:`gybe.core.apply_local` on the identity, the
action that also gives braid generators their images, and :func:`apply_gauge`
is the one place that forms (Q^-1)^⊗m R Q^⊗m.

The witness search runs over 2x2 shapes of Q (so d = 2 only), scores each
candidate by :func:`apply_gauge` and stops at the first within tolerance.
The diagonal and antidiagonal shapes, which suffice for the
block-structured families handled in :mod:`gybe.solutions`, are decided in
closed form with no optimizer: conjugation by diag(1, z)^⊗m scales entry
(i, j) by a power of z fixed by the bit counts of i and j, so the entry
ratios leave only a few candidate z, and no candidate within tolerance
means no witness of that shape.  This generalizes the beta/alpha criterion
of :func:`is_locally_conjugate_params`.  The general dense shape remains a
heuristic: it solves the commutation system Q^⊗m · s = lambda · r · Q^⊗m
for Q and lambda together by damped least squares with an exact Jacobian,
all restarts of a form in one :func:`gybe.optimize.solve_stack` call.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .core import RMatrix, apply_local
from .optimize import solve_stack
from .solutions import GeneralParams

WITNESS_TOL = 1e-9
SHAPES = ("diagonal", "antidiagonal", "general")


@dataclass(frozen=True)
class GaugeOp:
    """One gauge move: scalar(lambda), inverse, or local_conj(Q)."""

    kind: str
    lam: complex | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "scalar":
            if self.lam is None or self.lam == 0 or not cmath.isfinite(self.lam):
                raise ValueError("scalar gauge op needs a finite nonzero lambda")
        elif self.kind == "inverse":
            if self.lam is not None or self.q is not None:
                raise ValueError("inverse gauge op takes no parameters")
        elif self.kind == "local_conj":
            if self.q is None:
                raise ValueError("local conjugation needs a matrix Q")
            q = linalg.as_matrix(self.q)
            if q.shape[0] != q.shape[1]:
                raise ValueError("Q must be square")
            linalg.inverse(q)  # singular Q is rejected here
            object.__setattr__(self, "q", linalg.frozen(q))
        else:
            raise ValueError(f"unknown gauge op kind: {self.kind!r}")

    @staticmethod
    def scalar(lam: complex) -> "GaugeOp":
        return GaugeOp("scalar", lam=complex(lam))

    @staticmethod
    def inverse() -> "GaugeOp":
        return GaugeOp("inverse")

    @staticmethod
    def local_conj(q: np.ndarray) -> "GaugeOp":
        return GaugeOp("local_conj", q=q)

    def to_json_dict(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.kind == "scalar":
            data["lambda"] = [self.lam.real, self.lam.imag]
        elif self.kind == "local_conj":
            data["Q"] = linalg.matrix_to_json_dict(self.q)
        return data


def _lift(q: np.ndarray, m: int) -> np.ndarray:
    """Q^⊗m: Q applied to each of the m tensor factors of the identity.

    A (..., d, d) stack of Q gives the stack of their lifts.
    """
    d = q.shape[-1]
    out = np.broadcast_to(linalg.identity(d**m), q.shape[:-2] + (d**m, d**m))
    for k in range(m):
        out = apply_local(q, out, d**k)
    return out


def apply_gauge(r: RMatrix, op: GaugeOp) -> RMatrix:
    """Apply one gauge operation; solutions stay solutions."""
    if op.kind == "scalar":
        return RMatrix(r.signature, op.lam * r.matrix, f"scale({r.label})")
    if op.kind == "inverse":
        return RMatrix(r.signature, linalg.inverse(r.matrix), f"inverse({r.label})")
    q = op.q
    if q.shape[0] != r.signature.d:
        raise ValueError(
            f"Q side {q.shape[0]} does not match local dimension {r.signature.d}"
        )
    m = r.signature.m
    image = _lift(linalg.inverse(q), m) @ r.matrix @ _lift(q, m)
    return RMatrix(r.signature, image, f"local_conj({r.label})")


def apply_gauge_sequence(r: RMatrix, ops: Iterable[GaugeOp]) -> RMatrix:
    out = r
    for op in ops:
        out = apply_gauge(out, op)
    return out


@dataclass(frozen=True)
class EquivalenceWitness:
    """A gauge sequence carrying ``source`` onto ``target`` up to ``residual``."""

    ops: tuple[GaugeOp, ...]
    source: str
    target: str
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "ops": [op.to_json_dict() for op in self.ops],
            "source": self.source,
            "target": self.target,
            "residual": float(self.residual),
        }


@dataclass(frozen=True)
class ConjugacyInvariants:
    """Similarity invariants: eigenvalue multiset and characteristic polynomial."""

    eigenvalues: tuple[complex, ...]
    char_poly: tuple[complex, ...]


def conjugacy_invariants(m: np.ndarray) -> ConjugacyInvariants:
    """Invariants of ``m`` under similarity; differing multisets refute conjugacy."""
    eigs = linalg.eigenvalues(m)
    return ConjugacyInvariants(
        tuple(complex(v) for v in eigs), tuple(complex(c) for c in np.poly(eigs))
    )


def invariants_close(
    a: ConjugacyInvariants, b: ConjugacyInvariants, tol: float = 1e-8
) -> bool:
    if len(a.eigenvalues) != len(b.eigenvalues):
        return False
    if not linalg.eigenvalue_multisets_close(a.eigenvalues, b.eigenvalues, tol):
        return False
    ca = np.asarray(a.char_poly)
    cb = np.asarray(b.char_poly)
    scale = max(1.0, linalg.max_abs(ca), linalg.max_abs(cb))
    return bool(np.all(np.abs(ca - cb) <= tol * scale))


def is_locally_conjugate_params(
    p: GeneralParams, q: GeneralParams, tol: float = WITNESS_TOL
) -> bool:
    """Same-family criterion: members are locally conjugate iff beta/alpha agree."""
    if p.family != q.family:
        raise ValueError("local-conjugacy criterion applies within one family only")
    return abs(p.ratio - q.ratio) <= tol


# --- witness search ----------------------------------------------------------


# The general shape's two forms, each a fixed matrix plus the positions of
# its free entries.  Every invertible 2x2 matrix is a scalar multiple of one
# of them, and local conjugation ignores the scalar.
_GENERAL_FORMS = (
    (np.array([[1, 0], [0, 0]], dtype=np.complex128), ((0, 1), (1, 0), (1, 1))),
    (np.array([[0, 1], [0, 0]], dtype=np.complex128), ((1, 0), (1, 1))),
)


def _scalar_fit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, the lambda minimizing ||lambda a - b||_F.

    That is <a, b> / <a, a>, and 1 where a vanishes.
    """
    num = np.einsum("...ij,...ij->...", a.conj(), b)
    denom = np.einsum("...ij,...ij->...", a.conj(), a).real
    vanishes = denom < 1e-300
    return np.where(vanishes, 1.0, num / np.where(vanishes, 1.0, denom))


def _graded_conjugators(r: RMatrix, s: RMatrix, shape: str, *, with_scalar: bool, tol: float):
    """The few diagonal or antidiagonal Q that can carry r onto s, in closed form.

    Conjugating by diag(1, z)^⊗m multiplies entry (i, j) by z^k with
    k = w(j) - w(i), w(i) the number of 1 bits of i.  So a witness needs r
    and s to share their support (entries above ``tol`` relative to the
    largest) and, on it, s_ij / r_ij = lambda z^k.  Two exponents k1 < k2
    fix z^(k2 - k1), whose roots are the only candidates; one exponent
    leaves z free, and z = 1 will do.  Without the scalar, lambda = 1 and
    the smallest nonzero |k| fixes z^k alone.  [[0, 1], [z, 0]] is
    X diag(z, 1), and X^⊗m flips every bit of an index, so the
    antidiagonal shape is the diagonal one on the bit-flipped r, with k
    negated.  Every candidate still has to pass the caller's scorer.
    """
    size = r.size
    weight = np.array([bin(i).count("1") for i in range(size)])
    exponent = weight[None, :] - weight[:, None]
    a, b = r.matrix, s.matrix
    if shape == "antidiagonal":
        flip = np.arange(size) ^ (size - 1)
        a, exponent = a[np.ix_(flip, flip)], -exponent
    support = np.abs(a) > tol * linalg.max_abs(a)
    if not np.array_equal(support, np.abs(b) > tol * linalg.max_abs(b)):
        return
    # One ratio per exponent, read at the largest entry of a carrying it.
    largest_first = np.argsort(-np.abs(a[support]), kind="stable")
    ratios = (b[support] / a[support])[largest_first]
    levels, first = np.unique(exponent[support][largest_first], return_index=True)
    level_ratios = ratios[first]
    nonzero = np.flatnonzero(levels)
    if with_scalar and levels.size >= 2:
        low = int(np.argmin(np.diff(levels)))
        power = int(levels[low + 1] - levels[low])
        base = level_ratios[low + 1] / level_ratios[low]
    elif not with_scalar and nonzero.size:
        i = nonzero[np.argmin(np.abs(levels[nonzero]))]
        power = abs(int(levels[i]))
        base = level_ratios[i] if levels[i] > 0 else 1.0 / level_ratios[i]
    else:
        power, base = 1, 1.0
    modulus, phase = abs(base) ** (1.0 / power), np.angle(base)
    for n in range(power):
        z = modulus * np.exp(1j * (phase + 2.0 * np.pi * n) / power)
        if z == 0 or not cmath.isfinite(z):
            continue
        entries = [[1, 0], [0, z]] if shape == "diagonal" else [[0, 1], [z, 0]]
        yield np.array(entries, dtype=np.complex128)


class _CommutationResidual:
    """Q^⊗m · s - lambda · r · Q^⊗m over one general form, with its exact Jacobian.

    The parameters are the real and imaginary parts of the form's free
    entries of Q, then of lambda when ``with_scalar`` (else lambda = 1);
    every method takes a (k, params) stack.  The residual is holomorphic in
    them.  Along the free entry E it moves by dP · s - lambda · r · dP,
    where the derivative dP of P = Q^⊗m comes from the same m
    :func:`apply_local` passes as :func:`_lift`, by the product rule
    d(A_k(Q) P) = A_k(Q) dP + A_k(E) P; along lambda it moves by -r · P.
    The column of an imaginary part is i times that of its real part.
    """

    def __init__(self, r: RMatrix, s: RMatrix, form, with_scalar: bool):
        self.fixed, free = form
        self.rows, self.cols = np.array(free).T
        self.basis = np.zeros((len(free), 2, 2), dtype=np.complex128)
        self.basis[np.arange(len(free)), self.rows, self.cols] = 1.0
        self.r, self.s, self.m = r.matrix, s.matrix, r.signature.m
        self.with_scalar = with_scalar

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Q, and lambda shaped (k, 1, 1), of each row."""
        z = x[:, 0::2] + 1j * x[:, 1::2]
        q = np.broadcast_to(self.fixed, (len(x), 2, 2)).copy()
        q[:, self.rows, self.cols] = z[:, : self.rows.size]
        return q, z[:, -1, None, None] if self.with_scalar else np.ones((len(x), 1, 1))

    def residual(self, x: np.ndarray) -> np.ndarray:
        q, lam = self.unpack(x)
        p = _lift(q, self.m)
        return (p @ self.s - lam * (self.r @ p)).reshape(len(x), -1).view(np.float64)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        q, lam = self.unpack(x)
        side = self.r.shape[0]
        stack = (len(x), len(self.basis))
        qs = np.broadcast_to(q[:, None], stack + (2, 2))
        es = np.broadcast_to(self.basis, stack + (2, 2))
        p = np.broadcast_to(linalg.identity(side), (len(x), side, side))
        dp = np.zeros(stack + (side, side), dtype=np.complex128)
        for k in range(self.m):
            moved = apply_local(es, np.broadcast_to(p[:, None], dp.shape), 2**k)
            dp = apply_local(qs, dp, 2**k) + moved
            p = apply_local(q, p, 2**k)
        moves = dp @ self.s - lam[:, None] * (self.r @ dp)
        if self.with_scalar:
            moves = np.concatenate([moves, -(self.r @ p)[:, None]], axis=1)
        columns = moves.reshape(len(x), -1, 1, side * side) * np.array([[1.0], [1.0j]])
        return columns.reshape(len(x), -1, side * side).view(np.float64).swapaxes(-1, -2)


def _fitted_conjugators(
    problem: _CommutationResidual, restarts: int, seed: int, tol: float, max_iterations: int
) -> list[np.ndarray]:
    """One Q per restart, in restart order, from one stacked least-squares solve.

    Each restart minimizes ``problem`` from random free entries and, when it
    fits a scalar, the lambda that :func:`_scalar_fit` gives for them.
    """
    rngs = (np.random.default_rng([seed, restart]) for restart in range(restarts))
    starts = np.stack([rng.standard_normal(2 * problem.rows.size) for rng in rngs])
    if problem.with_scalar:
        lifted = _lift(problem.unpack(starts)[0], problem.m)
        lam = _scalar_fit(problem.r @ lifted, lifted @ problem.s)
        starts = np.concatenate([starts, np.stack([lam.real, lam.imag], axis=1)], axis=1)
    fits = solve_stack(
        problem.residual,
        starts,
        jacobian_fn=problem.jacobian,
        objective_tol=(tol / 10.0) ** 2,
        max_iterations=max_iterations,
    )
    return list(problem.unpack(np.stack([fit.x for fit in fits]))[0])


def _search_conjugator(
    r: RMatrix,
    s: RMatrix,
    shapes: Sequence[str],
    *,
    with_scalar: bool,
    restarts: int,
    seed: int,
    tol: float,
    max_iterations: int,
):
    """Shared engine behind the witness searches.

    The diagonal and antidiagonal shapes are decided in closed form by
    :func:`_graded_conjugators`, with no optimizer; each form of the general
    shape solves all restarts as one stack in :func:`_fitted_conjugators`.
    Every candidate is scored by the explicit conjugation residual.
    Returns the first (Q, lambda, residual) with residual <= ``tol``, in
    shape, form and candidate or restart order, or None when there is none.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if r.signature != s.signature:
        raise ValueError("witness search needs matching signatures")
    if r.signature.d != 2:
        raise ValueError(f"witness search needs local dimension 2, got d = {r.signature.d}")
    for shape in shapes:
        if shape not in SHAPES:
            raise ValueError(f"unknown conjugator shape: {shape!r}")

    def conjugation_residual(q: np.ndarray):
        try:
            image = apply_gauge(r, GaugeOp.local_conj(q)).matrix
        except ValueError:  # Q or its image is singular or not finite
            return None, None
        lam = complex(_scalar_fit(image, s.matrix)) if with_scalar else 1.0 + 0.0j
        if abs(lam) < 1e-150:  # GaugeOp.scalar needs lambda != 0
            return None, None
        return float(linalg.max_abs(lam * image - s.matrix)), lam

    for shape in shapes:
        if shape == "general":
            problems = (_CommutationResidual(r, s, form, with_scalar) for form in _GENERAL_FORMS)
            groups = (_fitted_conjugators(p, restarts, seed, tol, max_iterations) for p in problems)
        else:
            groups = (_graded_conjugators(r, s, shape, with_scalar=with_scalar, tol=tol),)
        for candidates in groups:
            for q in candidates:
                residual, lam = conjugation_residual(q)
                if residual is not None and residual <= tol:
                    return q, lam, residual
    return None


def search_local_conjugation(
    r: RMatrix,
    s: RMatrix,
    shapes: Sequence[str] = ("diagonal", "antidiagonal"),
    *,
    restarts: int = 8,
    seed: int = 0,
    tol: float = WITNESS_TOL,
    max_iterations: int = 120,
) -> tuple[np.ndarray, float] | None:
    """Search for Q with (Q^-1)^⊗m r Q^⊗m = s over the given shapes.

    Returns the first (Q, residual) found with residual <= tol, or None;
    absence of a witness is a valid outcome, not an error.  Fewer than one
    restart is a ValueError.
    """
    hit = _search_conjugator(
        r,
        s,
        shapes,
        with_scalar=False,
        restarts=restarts,
        seed=seed,
        tol=tol,
        max_iterations=max_iterations,
    )
    if hit is None:
        return None
    return hit[0], hit[2]


def search_equivalence(
    r: RMatrix,
    s: RMatrix,
    shapes: Sequence[str] = SHAPES,
    *,
    include_inverse: bool = True,
    restarts: int = 8,
    seed: int = 0,
    tol: float = WITNESS_TOL,
    max_iterations: int = 120,
) -> EquivalenceWitness | None:
    """Find a gauge sequence carrying ``r`` onto ``s``, or None.

    Tries a scalar combined with a local conjugation found by search, first
    on ``r`` directly and then (when ``include_inverse``) on its inverse,
    and returns the first witness within ``tol``: the inverse prefix runs
    only when the direct one finds none.  The returned witness lists the
    operations in application order.  Fewer than one restart is a
    ValueError, not a missing witness.
    """
    candidates: list[tuple[GaugeOp, ...]] = [()]
    if include_inverse:
        candidates.append((GaugeOp.inverse(),))
    for prefix in candidates:
        src = apply_gauge_sequence(r, prefix)
        hit = _search_conjugator(
            src,
            s,
            shapes,
            with_scalar=True,
            restarts=restarts,
            seed=seed,
            tol=tol,
            max_iterations=max_iterations,
        )
        if hit is not None:
            q, lam, residual = hit
            ops = prefix + (GaugeOp.local_conj(q), GaugeOp.scalar(lam))
            return EquivalenceWitness(ops, r.label, s.label, residual)
    return None
