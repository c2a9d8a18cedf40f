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
matrix-times-column convention.  One letter loop (:func:`_contract`)
contracts R, or for an inverse letter the ``RMatrix.inverse`` that R keeps,
into the qudits ``core._window`` gives each letter, on a block over a window
of qudits.  A word's matrix is that loop on the identity's columns, the
window grown to the qudits its letters touch and padded with identities to
the full side once; a generator's image is R or R⁻¹ placed by
``core._place``, one padding, and a state is the loop on the full window,
which never grows.  Two words are compared
(:func:`word_difference`) on the union of their windows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .core import (
    RMatrix,
    _place,
    _qudits,
    _window,
    apply_local,
    braid_dimension,
    far_commutativity_indices,
    far_commutativity_residual,
    gybe_residual,
    pad_identity,
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
        object.__setattr__(self, "n", linalg.count(self.n, "n", 2))
        letters = tuple(linalg.count(v, "letter") for v in self.letters)
        for v in letters:
            if not 1 <= abs(v) <= self.n - 1:
                raise ValueError(f"letter {v} out of range for {self.n} strands")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)


_WORD_RE = re.compile(r"^\s*n\s*=([^:]*):(.*)$")


def parse_braid_word(text: str) -> BraidWord:
    """Parse the text form ``n=<strands>: i1,i2,...``, integers read by :func:`linalg.integer`.

    An empty body is the empty word; an empty letter (``1,,2``, a trailing
    comma, or a lone comma) is malformed.
    """
    m = _WORD_RE.match(text)
    if not m:
        raise ValueError(f"malformed braid word: {text!r} (expected 'n=<k>: 1,2,-1')")
    n = linalg.integer(m.group(1).strip())
    body = m.group(2).strip()
    tokens = body.split(",") if body else []
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"malformed braid word: {text!r} has an empty letter")
    return BraidWord(n, tuple(linalg.integer(tok.strip()) for tok in tokens))


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit-norm vector of amplitudes, given as a vector or as one column."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim == 0 or amps.shape[1:] not in ((), (1,)):
            got = "a {}x{} matrix".format(*amps.shape) if amps.ndim == 2 else f"shape {amps.shape}"
            raise ValueError(f"a state must be a vector or one column, got {got}")
        amps = linalg.frozen(amps.reshape(-1))
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {STATE_NORM_TOL:g}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class BraidRep:
    """The representation of the n-strand braid group afforded by R.

    Takes only R and n and derives the qudit count m + (n-2)l, the side
    ``dim`` by :func:`~gybe.core.braid_dimension` (which checks n and the dense cap).  The image of
    sigma_i^-1 places ``r.inverse``, so nothing is inverted.  :func:`build_rep` checks the relations.
    """

    r: RMatrix
    n: int
    qudits: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        sig = self.r.signature
        object.__setattr__(self, "dim", braid_dimension(sig, self.n))  # gates n
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "qudits", _qudits(sig, self.n))

    def _letter(self, i: int) -> tuple[np.ndarray, int]:
        """Local matrix of sigma_i (of its inverse for negative i) and the
        first qudit it acts on; it covers m qudits from there.  ``i`` is a
        checked :class:`BraidWord` letter or an index the library counted."""
        local = self.r.matrix if i > 0 else self.r.inverse
        return local, _window(self.r.signature, abs(i))[0]

    def generator(self, i: int) -> np.ndarray:
        """Dense matrix of sigma_i for positive i, of its inverse for negative i."""
        (i,) = BraidWord(self.n, (i,)).letters
        return _place(self._letter(i)[0], self.r.signature, self.n, abs(i))


def build_rep(r: RMatrix, n: int, tol: float = 1e-10) -> BraidRep:
    """Construct the n-strand :class:`BraidRep` of ``r`` and verify it.

    Checks, at tolerance ``tol``, each far-commutativity pair (1, j) that
    exists on n strands, then the braid relation (1, 2) as the lifted
    GYBE residual; every other relation is one of these padded with
    identities.  A relation passes when its residual is at most ``tol``, so
    a NaN fails it; a violation raises :class:`RepresentationError` carrying
    the generator pair and residual.
    """
    tol = linalg.tolerance(tol)
    rep = BraidRep(r, n)
    for j in far_commutativity_indices(r.signature):
        if j > rep.n - 1:
            break
        residual = far_commutativity_residual(r, j)
        if not residual <= tol:
            raise RepresentationError((1, j), residual)
    if rep.n >= 3:
        residual = gybe_residual(r.matrix, r.signature)
        if not residual <= tol:
            raise RepresentationError((1, 2), residual)
    return rep


def _contract(rep: BraidRep, letters: tuple[int, ...], block: np.ndarray, lo: int, hi: int) -> tuple:
    """(rho(letters) block, lo, hi) for a block on the qudit window [lo, hi):
    one local contraction per letter, last letter first.

    A letter that reaches outside the window widens it, padding the block
    with identities before it contracts.
    """
    sig = rep.r.signature
    for letter in reversed(letters):
        local, start = rep._letter(letter)
        if start < lo or start + sig.m > hi:
            new_lo, new_hi = min(lo, start), max(hi, start + sig.m)
            block = pad_identity(block, sig.d ** (lo - new_lo), sig.d ** (new_hi - hi))
            lo, hi = new_lo, new_hi
        block = apply_local(local, block, sig.d ** (start - lo))
    return block, lo, hi


def _word_block(rep: BraidRep, letters: tuple[int, ...]) -> tuple[np.ndarray, int, int]:
    """(block, lo, hi): rho(letters) on the qudit window [lo, hi) its letters touch."""
    # Empty at the first letter's start; the empty word is I_1 on [0, 0).
    lo = rep._letter(letters[-1])[1] if letters else 0
    return _contract(rep, letters, linalg.identity(1), lo, lo)


def _check_strands(rep: BraidRep, w: BraidWord) -> None:
    """A ValueError unless ``w`` is on the representation's strand count."""
    if w.n != rep.n:
        raise ValueError(f"word is on {w.n} strands but the representation has {rep.n}")


def evaluate_word(rep: BraidRep, w: BraidWord) -> np.ndarray:
    """The matrix of a braid word: the ordered product of generator images.

    The word acts on the identity's columns without forming any generator,
    and only on the window of qudits its letters touch: O(s^2 d^m) per
    letter, with s the side of the window so far, plus one O(dim^2) padding
    to the full side.
    """
    _check_strands(rep, w)
    block, lo, hi = _word_block(rep, w.letters)
    d = rep.r.signature.d
    return pad_identity(block, d**lo, d ** (rep.qudits - hi))


def word_difference(rep: BraidRep, u: BraidWord, v: BraidWord) -> float:
    """The largest entry of rho(u) - rho(v) in modulus, bit for bit
    ``linalg.max_abs_diff(evaluate_word(rep, u), evaluate_word(rep, v))``.

    Both blocks are padded only to the union of their two windows: off it
    the two full matrices hold the same identity copies and +0.0, so their
    difference there is zero.  A non-finite word or difference raises ValueError.
    """
    _check_strands(rep, u)
    _check_strands(rep, v)
    (a, a_lo, a_hi), (b, b_lo, b_hi) = _word_block(rep, u.letters), _word_block(rep, v.letters)
    lo, hi = min(a_lo, b_lo), max(a_hi, b_hi)
    d = rep.r.signature.d
    a = pad_identity(a, d ** (a_lo - lo), d ** (hi - a_hi))
    b = pad_identity(b, d ** (b_lo - lo), d ** (hi - b_hi))
    diff = linalg.max_abs_diff(a, b)
    if not np.isfinite(diff):
        raise ValueError("the two words' matrices, or their difference, are not finite")
    return diff


def apply_to_state(rep: BraidRep, w: BraidWord, s: StateVector) -> StateVector:
    """Act on a state by the word's matrix; the last letter acts first.

    The same contraction as :func:`evaluate_word`, on one column:
    O(dim d^m) per letter.  A non-unitary R, which leaves the unit sphere, is refused first.
    """
    residual = linalg.unitarity_residual(rep.r.matrix)
    if not residual <= 1e-10:
        raise ValueError(f"applying a word to a state needs a unitary R, but max |RR† - I| = {residual:.3e}")
    _check_strands(rep, w)
    if s.dim != rep.dim:
        raise ValueError(f"state dimension {s.dim} does not match {rep.dim}")
    out = _contract(rep, w.letters, s.amplitudes, 0, rep.qudits)[0]
    drift = abs(float(np.linalg.norm(out)) - 1.0)
    if not drift <= STATE_NORM_TOL:
        raise ValueError(
            f"a word of {len(w)} letter(s) drifted the output's norm by {drift:.3e}, beyond "
            f"{STATE_NORM_TOL:g}: R is unitary only to max |RR† - I| = {residual:.3e}"
        )
    return StateVector(out)


def recognize_braiding_gate(
    rep: BraidRep, u: np.ndarray, tol: float = 1e-9
) -> tuple[int, complex] | None:
    """Identify ``u`` as lambda times a single generator image, if it is one.

    Each generator's lambda is the Frobenius-optimal
    :func:`~gybe.linalg.scalar_fit`; ``u`` is that generator when lambda is
    nonzero and max |u - lambda gen| <= tol.  Returns (generator index,
    lambda) for the first such generator, or None.  Each image is built
    only when the scan reaches it.
    """
    tol = linalg.tolerance(tol)
    mat = linalg.square_matrix(u, "gate")
    if mat.shape != (rep.dim, rep.dim):
        raise ValueError(f"gate must be {rep.dim}x{rep.dim}")
    for i in range(1, rep.n):
        gen = _place(rep.r.matrix, rep.r.signature, rep.n, i)
        lam = linalg.scalar_fit(gen, mat)
        if lam != 0 and linalg.max_abs(mat - lam * gen) <= tol:
            return i, lam
    return None
