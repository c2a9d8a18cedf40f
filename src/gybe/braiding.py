"""Braid-group representations afforded by far-commuting solutions.

A (d, m, l) solution R assigns to the i-th generator of the n-strand braid
group the matrix I^(l(i-1)) ⊗ R ⊗ I^(l(n-i-1)) on d^(m+(n-2)l) dimensions.
The braid relation holds because of the generalized Yang-Baxter equation;
far commutativity must be checked and is verified here at construction
time, together with every braid relation.

Word convention: a braid word is evaluated left to right into a matrix
product, rho(w1 w2 ... wk) = rho(w1) rho(w2) ... rho(wk).  Applied to a
state this means the last letter of the word acts first, the usual
matrix-times-column convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import RMatrix, braid_generator_matrix

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
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {STATE_NORM_TOL:g}")
        amps.flags.writeable = False
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
    """A verified representation: cached generator matrices for one (R, n)."""

    r: RMatrix
    n: int
    dim: int
    generators: tuple[np.ndarray, ...]
    inverse_generators: tuple[np.ndarray, ...]
    tolerance: float

    def generator(self, i: int) -> np.ndarray:
        """Matrix of sigma_i for positive i, of its inverse for negative i."""
        if i == 0 or not 1 <= abs(i) <= self.n - 1:
            raise ValueError(f"generator index {i} out of range for {self.n} strands")
        return self.generators[i - 1] if i > 0 else self.inverse_generators[-i - 1]


def build_rep(r: RMatrix, n: int, tol: float = 1e-10) -> BraidRep:
    """Construct and verify the n-strand representation afforded by ``r``.

    Every braid relation and every far-commutativity pair is checked at
    tolerance ``tol``; a violation raises :class:`RepresentationError`
    carrying the offending generator pair and residual.  Inverse generators
    use the conjugate transpose when ``r`` is unitary and the computed
    inverse otherwise.
    """
    gens = tuple(braid_generator_matrix(r, n, i) for i in range(1, n))
    r_unitary = linalg.is_unitary(r.matrix, 1e-10).passed
    if r_unitary:
        inv_gens = tuple(linalg.dagger(g) for g in gens)
    else:
        pad_inverse = linalg.inverse(r.matrix)
        inv_r = RMatrix(r.signature, pad_inverse, f"inverse({r.label})")
        inv_gens = tuple(braid_generator_matrix(inv_r, n, i) for i in range(1, n))

    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            a, b = gens[i], gens[j]
            residual = linalg.max_abs_diff(a @ b, b @ a)
            if residual > tol:
                raise RepresentationError((i + 1, j + 1), residual)
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        residual = linalg.max_abs_diff(a @ b @ a, b @ a @ b)
        if residual > tol:
            raise RepresentationError((i + 1, i + 2), residual)

    dim = gens[0].shape[0] if gens else r.size
    return BraidRep(r, n, dim, gens, inv_gens, tol)


def evaluate_word(rep: BraidRep, w: BraidWord) -> np.ndarray:
    """The matrix of a braid word: the ordered product of generator images."""
    if w.n != rep.n:
        raise ValueError(f"word is on {w.n} strands but the representation has {rep.n}")
    out = linalg.identity(rep.dim)
    for letter in w.letters:
        out = out @ rep.generator(letter)
    return out


def apply_to_state(rep: BraidRep, w: BraidWord, s: StateVector) -> StateVector:
    """Act on a state by the word's matrix; the last letter acts first."""
    if w.n != rep.n:
        raise ValueError(f"word is on {w.n} strands but the representation has {rep.n}")
    if s.dim != rep.dim:
        raise ValueError(f"state dimension {s.dim} does not match {rep.dim}")
    amps = np.asarray(s.amplitudes)
    for letter in reversed(w.letters):
        amps = rep.generator(letter) @ amps
    return StateVector(amps)


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
    for i, gen in enumerate(rep.generators, start=1):
        if abs(gen[p, q]) < 1e-12:
            continue
        lam = complex(mat[p, q] / gen[p, q])
        if abs(lam) < 1e-12:
            continue
        if linalg.max_abs(mat - lam * gen) <= tol:
            return i, lam
    return None
