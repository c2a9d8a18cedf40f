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

The witness search solves the commutation system Q^⊗m · s = r · Q^⊗m by
damped least squares over 2x2 shapes of Q (so d = 2 only), scores each
candidate by :func:`apply_gauge` and stops at the first within tolerance:
diagonal and antidiagonal shapes suffice for the block-structured families
handled in :mod:`gybe.solutions`; a general dense shape is also available as
a heuristic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .core import RMatrix, apply_local
from .optimize import damped_least_squares
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
            q = q.copy()
            q.flags.writeable = False
            object.__setattr__(self, "q", q)
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
    """Q^⊗m: Q applied to each of the m tensor factors of the identity."""
    d = q.shape[0]
    out = linalg.identity(d**m)
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


def _shape_parameterizations(shape: str):
    """Yield (param_count, builder) pairs; builders map C^k to a 2x2 Q.

    Every invertible 2x2 matrix is a scalar multiple of one of the returned
    normalized forms, and local conjugation ignores the scalar.
    """
    if shape == "diagonal":
        yield 1, lambda z: np.array([[1.0, 0.0], [0.0, z[0]]], dtype=np.complex128)
    elif shape == "antidiagonal":
        yield 1, lambda z: np.array([[0.0, 1.0], [z[0], 0.0]], dtype=np.complex128)
    elif shape == "general":
        yield 3, lambda z: np.array([[1.0, z[0]], [z[1], z[2]]], dtype=np.complex128)
        yield 2, lambda z: np.array([[0.0, 1.0], [z[0], z[1]]], dtype=np.complex128)
    else:
        raise ValueError(f"unknown conjugator shape: {shape!r}")


def _to_complex(x: np.ndarray) -> np.ndarray:
    return x[0::2] + 1j * x[1::2]


def _scalar_fit(a: np.ndarray, b: np.ndarray) -> complex | None:
    """The lambda minimizing ||lambda a - b||_F, <a, b> / <a, a>; None when a vanishes."""
    denom = np.vdot(a, a).real
    if denom < 1e-300:
        return None
    return complex(np.vdot(a, b) / denom)


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

    Minimizes the commutation residual Q^⊗m · s - r · Q^⊗m (with the
    Frobenius-optimal scalar folded in when ``with_scalar``), then scores
    the candidate by the explicit conjugation residual.  Returns the first
    (Q, lambda, residual) with residual <= ``tol``, in shape, form and
    restart order, or None when no restart gets there.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if r.signature != s.signature:
        raise ValueError("witness search needs matching signatures")
    if r.signature.d != 2:
        raise ValueError(f"witness search needs local dimension 2, got d = {r.signature.d}")

    def conjugation_residual(q: np.ndarray):
        try:
            image = apply_gauge(r, GaugeOp.local_conj(q)).matrix
        except ValueError:  # Q or its image is singular or not finite
            return None, None
        lam = _scalar_fit(image, s.matrix) if with_scalar else 1.0 + 0.0j
        if lam is None or abs(lam) < 1e-150:  # GaugeOp.scalar needs lambda != 0
            return None, None
        return float(linalg.max_abs(lam * image - s.matrix)), lam

    for shape in shapes:
        for n_complex, builder in _shape_parameterizations(shape):

            def residual_vec(x: np.ndarray) -> np.ndarray:
                lifted = _lift(builder(_to_complex(x)), r.signature.m)
                left = lifted @ s.matrix
                right = r.matrix @ lifted
                lam = _scalar_fit(right, left) if with_scalar else None
                diff = left - (1.0 if lam is None else lam) * right
                return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

            for restart in range(restarts):
                rng = np.random.default_rng([seed, restart])
                x0 = rng.standard_normal(2 * n_complex)
                fit = damped_least_squares(
                    residual_vec,
                    x0,
                    objective_tol=(tol / 10.0) ** 2,
                    max_iterations=max_iterations,
                )
                q = builder(_to_complex(fit.x))
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
