"""Braid-group representations afforded by far-commuting solutions.

A (d, m, l) solution R assigns to the i-th generator of the n-strand braid
group the matrix I^(l(i-1)) ⊗ R ⊗ I^(l(n-i-1)) on d^(m+(n-2)l) dimensions.
Every relation of the presentation is one of finitely many local ones
padded with identities: σ_i σ_{i+1} σ_i = σ_{i+1} σ_i σ_{i+1} is the
generalized Yang-Baxter equation, σ_i σ_j = σ_j σ_i with overlapping
supports is the (1, j-i+1) far-commutativity pair, and generators with
disjoint supports commute exactly.  So construction checks those local
relations once, at a cost independent of n.

Word convention: a braid word is evaluated left to right into a matrix
product, rho(w1 w2 ... wk) = rho(w1) rho(w2) ... rho(wk).  Applied to a
state this means the last letter of the word acts first, the usual
matrix-times-column convention.  Each letter acts by one contraction of R
(or its inverse) into the factors it touches: a word's matrix is the word
applied to the identity's columns, a generator a one-letter word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import (
    RMatrix,
    apply_local,
    braid_dimension,
    far_commutativity_indices,
    far_commutativity_residual,
    gybe_residual,
)

STATE_NORM_TOL = 1e-10


class RepresentationError(ValueError):
    """A braid relation or far-commutativity pair failed at construction."""

    def __init__(self, pair: tuple[int, int], residual: float):
        self.pair = pair
        self.residual = residual
        super().__init__(
            f"generators {pair} violate the braid presentation "
            f"(residual {residual:.3e})"
        )


@dataclass(frozen=True)
class BraidWord:
    """A word in the n-strand braid group: signed generator indices."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a braid word needs at least 2 strands")
        letters = tuple(int(v) for v in self.letters)
        for v in letters:
            if v == 0 or not 1 <= abs(v) <= self.n - 1:
                raise ValueError(
                    f"letter {v} out of range for {self.n} strands"
                )
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def concat(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-v for v in reversed(self.letters)))


_WORD_RE = re.compile(r"^\s*n\s*=\s*(\d+)\s*:\s*(.*)$")


def parse_braid_word(text: str) -> BraidWord:
    """Parse the text form ``n=<strands>: i1,i2,...`` (letters may be empty)."""
    m = _WORD_RE.match(text)
    if not m:
        raise ValueError(f"malformed braid word: {text!r} (expected 'n=<k>: 1,2,-1')")
    n = int(m.group(1))
    body = m.group(2).strip()
    letters = tuple(int(tok) for tok in body.split(",") if tok.strip()) if body else ()
    return BraidWord(n, letters)


def format_braid_word(w: BraidWord) -> str:
    return f"n={w.n}: " + ",".join(str(v) for v in w.letters)


@dataclass(frozen=True)
class StateVector:
    """A unit-norm vector of amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = linalg.frozen(np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1))
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {STATE_NORM_TOL:g}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @staticmethod
    def basis_state(dim: int, index: int) -> "StateVector":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return StateVector(amps)


@dataclass(frozen=True)
class BraidRep:
    """A verified representation of the n-strand braid group.

    Keeps only the local R and its inverse (R† when R is unitary); every
    image is computed from them by :func:`~gybe.core.apply_local`.
    """

    r: RMatrix
    n: int
    dim: int
    inverse: RMatrix
    tolerance: float

    def _letter(self, i: int) -> tuple[np.ndarray, int]:
        """Local matrix of sigma_i (of its inverse for negative i) and the
        identity size to its left."""
        if i == 0 or not 1 <= abs(i) <= self.n - 1:
            raise ValueError(f"generator index {i} out of range for {self.n} strands")
        sig = self.r.signature
        local = self.r if i > 0 else self.inverse
        return local.matrix, sig.d ** (sig.l * (abs(i) - 1))

    def generator(self, i: int) -> np.ndarray:
        """Dense matrix of sigma_i for positive i, of its inverse for negative i."""
        return _act(self, (i,), linalg.identity(self.dim))

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        """Dense images of sigma_1 .. sigma_(n-1), built on each access."""
        return tuple(self.generator(i) for i in range(1, self.n))


def build_rep(r: RMatrix, n: int, tol: float = 1e-10) -> BraidRep:
    """Construct and verify the n-strand representation afforded by ``r``.

    Checks, at tolerance ``tol``, each far-commutativity pair (1, j) that
    exists on n strands, then the braid relation (1, 2) as the lifted
    GYBE residual; every other relation is one of these padded with
    identities.  A violation raises :class:`RepresentationError` carrying
    the generator pair and residual.  The inverse is the conjugate
    transpose when ``r`` is unitary and the computed inverse otherwise.
    """
    sig = r.signature
    dim = braid_dimension(sig, n)
    for j in far_commutativity_indices(sig):
        if j > n - 1:
            break
        residual = far_commutativity_residual(r, j)
        if residual > tol:
            raise RepresentationError((1, j), residual)
    if n >= 3:
        residual = gybe_residual(r.matrix, sig)
        if residual > tol:
            raise RepresentationError((1, 2), residual)

    if linalg.is_unitary(r.matrix, 1e-10).passed:
        inv = linalg.dagger(r.matrix)
    else:
        inv = linalg.inverse(r.matrix)
    return BraidRep(r, n, dim, RMatrix(sig, inv, f"inverse({r.label})"), tol)


def _act(rep: BraidRep, letters: tuple[int, ...], columns: np.ndarray) -> np.ndarray:
    """rho(letters) @ columns, one local contraction per letter, last letter first."""
    for letter in reversed(letters):
        local, left = rep._letter(letter)
        columns = apply_local(local, columns, left)
    return columns


def evaluate_word(rep: BraidRep, w: BraidWord) -> np.ndarray:
    """The matrix of a braid word: the ordered product of generator images.

    The word acts on the identity's columns without forming any generator,
    O(dim^2 d^m) per letter.
    """
    if w.n != rep.n:
        raise ValueError(f"word is on {w.n} strands but the representation has {rep.n}")
    return _act(rep, w.letters, linalg.identity(rep.dim))


def apply_to_state(rep: BraidRep, w: BraidWord, s: StateVector) -> StateVector:
    """Act on a state by the word's matrix; the last letter acts first.

    The same contraction as :func:`evaluate_word`, on one column:
    O(dim d^m) per letter.
    """
    if w.n != rep.n:
        raise ValueError(f"word is on {w.n} strands but the representation has {rep.n}")
    if s.dim != rep.dim:
        raise ValueError(f"state dimension {s.dim} does not match {rep.dim}")
    return StateVector(_act(rep, w.letters, s.amplitudes))


def recognize_braiding_gate(
    rep: BraidRep, u: np.ndarray, tol: float = 1e-9
) -> tuple[int, complex] | None:
    """Identify ``u`` as lambda times a single generator image, if it is one.

    The scalar is estimated from the entry of largest modulus in ``u``
    against the matching entry of each candidate generator, which keeps the
    division numerically stable.  Returns (generator index, lambda) or None.
    """
    mat = linalg.as_matrix(u)
    if mat.shape != (rep.dim, rep.dim):
        raise ValueError(f"gate must be {rep.dim}x{rep.dim}")
    flat_idx = int(np.argmax(np.abs(mat)))
    p, q = divmod(flat_idx, rep.dim)
    if abs(mat[p, q]) == 0.0:
        return None
    for i in range(1, rep.n):
        gen = rep.generator(i)
        if abs(gen[p, q]) < 1e-12:
            continue
        lam = complex(mat[p, q] / gen[p, q])
        if abs(lam) < 1e-12:
            continue
        if linalg.max_abs(mat - lam * gen) <= tol:
            return i, lam
    return None
