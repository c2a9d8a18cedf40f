"""The gauge group acting on solutions, and equivalence certification.

Three operations map solutions to solutions: multiplication by a nonzero
scalar, inversion, and local conjugation R -> (Q^-1)^⊗m R Q^⊗m by an
invertible single-factor matrix Q.  Equivalence of two solutions is
certified constructively by a witness (a sequence of these operations, with
Q from the closed forms below) and refuted by a gauge invariant that
differs, or when those closed forms leave no candidate Q that works.

Q^⊗m is m passes of :func:`gybe.core.apply_local` on the identity, the
action that also gives braid generators their images, and
:func:`_local_conjugate` is the one place that forms (Q^-1)^⊗m R Q^⊗m.

:func:`decide_equivalence` takes each prefix (R, then R^-1) in three
steps: the gate (R^-1 must pass :class:`RMatrix`), then the invariants,
then the shapes.  The invariants are traces of R, R^2 and the squares of
R's single-site partial traces, which every gauge image keeps up to a
power of the scalar (:func:`_refuting_invariant`); when no scalar matches
them within what a witness or a near miss could move, the prefix is
``none`` with the first invariant that differs, and no candidate is
scored.  Every other prefix goes on to the witness search.

The witness search runs over 2x2 Q (so d = 2 only), with no optimizer.  Each
candidate Q is one :class:`GaugeOp` (its only inversion), scored with lambda
fitted, or pinned to 1 (:func:`search_local_conjugation`); the first within
tolerance, relative to the largest entry of the target, wins.
The diagonal and antidiagonal shapes, which suffice for the
block-structured families handled in :mod:`gybe.solutions`, are decided in
closed form: conjugation by diag(1, z)^⊗m scales entry (i, j)
by a power of z fixed by the bit counts of i and j, so the entry ratios
leave only a few candidate z, and no candidate within tolerance means no
witness of that shape.  This generalizes the beta/alpha criterion: two
members of one family are locally conjugate exactly when the ratios
beta/alpha of their :func:`gybe.solutions.general_solution` parameters agree.  The
general shape reduces to those closed forms by local covariants (Makhlin,
"Nonlocal properties of two-qubit gates and mixed states, and the
optimization of quantum computations", 2002): partial traces of words in
R and the site transpositions transform as C -> lambda^deg Q^-1 C Q, so
the eigenvectors of the first one clearly apart from a scalar fix Q up to
a diagonal or antidiagonal factor, or up to I + bN for a Jordan block.
"None" is then a decision over every 2x2 Q.  The search reports
"undecided" instead when no covariant is clear of the thresholds, or when
a candidate misses the tolerance by less than rounding could explain
(:func:`decide_equivalence`).
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
from dataclasses import dataclass, field
from collections.abc import Iterable

import numpy as np

from . import linalg
from .core import RMatrix, apply_local, pad_identity

WITNESS_TOL = 1e-9
SHAPES = ("diagonal", "antidiagonal", "general")


@dataclass(frozen=True, eq=False)
class GaugeOp:
    """One gauge move: scalar(lambda), inverse, or local_conj(Q) for an invertible Q,
    whose inverse is kept as ``q_inverse``; a kind takes its own parameter and no other."""

    kind: str
    lam: complex | None = None
    q: np.ndarray | None = None
    q_inverse: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        takes = {"scalar": "lam", "inverse": "", "local_conj": "q"}.get(self.kind)
        if takes is None:
            raise ValueError(f"unknown gauge op kind: {self.kind!r}")
        extra = [name for name in ("lam", "q") if name != takes and getattr(self, name) is not None]
        if extra:
            raise ValueError(f"{self.kind} gauge op takes no {' or '.join(extra)}")
        if self.kind == "scalar":
            object.__setattr__(self, "lam", linalg.number(complex, self.lam, "lam"))
            if self.lam == 0 or not cmath.isfinite(self.lam):
                raise ValueError("scalar gauge op needs a finite nonzero lambda")
        elif self.kind == "local_conj":
            if self.q is None:
                raise ValueError("local conjugation needs a matrix Q")
            q = linalg.as_matrix(self.q)
            object.__setattr__(self, "q_inverse", linalg.frozen(linalg.inverse(q)))
            object.__setattr__(self, "q", linalg.frozen(q))

    @staticmethod
    def scalar(lam: complex) -> "GaugeOp":
        return GaugeOp("scalar", lam=lam)

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


def _local_conjugate(r: np.ndarray, q: np.ndarray, q_inverse: np.ndarray, m: int) -> np.ndarray:
    """(Q^-1)^⊗m r Q^⊗m, given Q and its inverse."""
    return _lift(q_inverse, m) @ r @ _lift(q, m)


def apply_gauge(r: RMatrix, op: GaugeOp) -> RMatrix:
    """Apply one gauge operation; solutions stay solutions."""
    if op.kind == "scalar":
        return RMatrix(r.signature, op.lam * r.matrix, f"scale({r.label})")
    if op.kind == "inverse":
        return RMatrix(r.signature, r.inverse, f"inverse({r.label})")
    q = op.q
    if q.shape[0] != r.signature.d:
        raise ValueError(
            f"Q side {q.shape[0]} does not match local dimension {r.signature.d}"
        )
    image = _local_conjugate(r.matrix, q, op.q_inverse, r.signature.m)
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


# --- witness search ----------------------------------------------------------


# A covariant is scalar, or has a repeated eigenvalue, when the part that
# separates it from that is at most this fraction of the largest entry of
# its word.  The word, not the covariant, sets the scale: some covariants
# of a solution are zero up to rounding.
COVARIANT_RTOL = 1e-6
# A covariant of s that is scalar, or distinct against a Jordan one of r,
# only within this factor of the threshold leaves the pair undecided rather
# than ruled out: a 2x2 similarity by Q moves the size of a traceless part
# by up to cond(Q), and rounding opens a Jordan block's eigenvalue gap to
# about sqrt(eps) of its scale.
COVARIANT_MARGIN = 100.0
# A reducing basis moves by rounding over what separates the covariant
# from a scalar (the eigenvalue gap, or the nilpotent part of a Jordan
# block), so a covariant of r reduces only if that is this many times its
# threshold; one in between is skipped.
SEPARATION_GATE = 1e3
# Smallest ratio of the smallest to the largest singular value of a basis
# that a covariant reduces by; below it the lift of the basis is too close
# to singular (eigenvectors of a near-Jordan covariant, or a basis of s
# whose columns were scaled far apart).
EIGENVECTOR_GATE = 1e-4
# A candidate that misses the tolerance but comes within this fraction of the
# largest entry of s may be a witness lost to rounding (the lifts amplify
# it by up to cond(Q)^(2m)), so it leaves the prefix undecided.
NEAR_MISS = 1e-6
_JORDAN = np.array([[0, 1], [0, 0]], dtype=np.complex128)
_IDENTITY = linalg.frozen(linalg.identity(2))


@dataclass(frozen=True)
class Covariant:
    """The partial trace of ``word`` over every site but ``site``, which
    decided a reduction; ``kind`` is ``distinct`` (two eigenvalues) or
    ``jordan`` (one Jordan block)."""

    word: str
    site: int
    kind: str


@dataclass(frozen=True)
class Invariant:
    """The gauge invariant that ruled a prefix out: ``name``, homogeneous of
    ``degree`` in R; ``source`` is its value on the prefix's matrix times
    lambda^degree for the fitted lambda, and ``target`` its value on s."""

    name: str
    degree: int
    source: complex
    target: complex

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "degree": self.degree,
            "source": [self.source.real, self.source.imag],
            "target": [self.target.real, self.target.imag],
        }


@dataclass(frozen=True)
class PrefixDecision:
    """How the search from one prefix of ``r`` (``direct`` or ``inverse``) ended.

    ``verdict`` is ``witness``, ``none`` (an ``invariant`` differs, or no
    2x2 Q of the searched shapes works) or ``undecided`` (the general shape
    found no covariant to reduce by, a candidate missed by no more than
    rounding could explain, or the prefix's matrix failed the
    :class:`RMatrix` gate); ``candidates`` counts the Q scored.
    """

    prefix: str
    verdict: str
    covariant: Covariant | None
    candidates: int
    invariant: Invariant | None = None

    def to_json_dict(self) -> dict:
        invariant = None if self.invariant is None else self.invariant.to_json_dict()
        return {**dataclasses.asdict(self), "invariant": invariant}


@dataclass(frozen=True)
class EquivalenceDecision:
    """The witness, if any, and the record of each prefix tried.  The verdict is
    ``witness`` with a witness, else ``undecided`` if some prefix was, else ``none``."""

    witness: EquivalenceWitness | None
    prefixes: tuple[PrefixDecision, ...]

    @property
    def verdict(self) -> str:
        if self.witness is not None:
            return "witness"
        return "undecided" if any(p.verdict == "undecided" for p in self.prefixes) else "none"

    @property
    def candidates(self) -> int:
        return sum(p.candidates for p in self.prefixes)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "candidates": self.candidates,
            "prefixes": [p.to_json_dict() for p in self.prefixes],
        }


@functools.cache
def _grading(size: int) -> np.ndarray:
    """Read-only w(j) - w(i) at entry (i, j) of a side ``size`` matrix, w(i) the 1 bits of i."""
    weight = np.array([bin(i).count("1") for i in range(size)])
    return linalg.frozen(weight[None, :] - weight[:, None])


def _support_cut(size: np.ndarray, tol: float) -> float:
    """The size above which an entry of a matrix is support, not rounding,
    given ``size``, the moduli of its entries.

    The cut is ``tol`` relative to the largest entry, but never below the
    default ``WITNESS_TOL``: the rounding of a gauge image grows with
    cond(Q)^(2m) (see ``NEAR_MISS``), so a cut that shrank with a tiny
    ``tol`` would count it as support and rule out a true image.
    """
    return max(tol, WITNESS_TOL) * float(size.max())


def _graded_conjugators(a: np.ndarray, b: np.ndarray, shape: str, *, tol: float):
    """The few diagonal or antidiagonal Q that can carry a onto b, in closed form.

    Conjugating by diag(1, z)^⊗m multiplies entry (i, j) by z^k with
    k = w(j) - w(i) (:func:`_grading`).  So a witness needs a and b to
    share their support (entries above :func:`_support_cut`) and, on it,
    b_ij / a_ij = lambda z^k.  Two exponents k1 < k2 fix z^(k2 - k1),
    whose roots are the only candidates, for lambda = 1 too; one exponent
    (0 unless a is nilpotent) leaves z free, and z = 1 will do.  [[0, 1],
    [z, 0]] is X diag(z, 1), and X^⊗m flips every bit of an index, so the
    antidiagonal shape is the diagonal one on the bit-flipped a, with k
    negated.  Every candidate still has to pass the caller's scorer.
    """
    exponent = _grading(len(a))
    if shape == "antidiagonal":
        flip = np.arange(len(a)) ^ (len(a) - 1)
        a, exponent = a[np.ix_(flip, flip)], -exponent
    size, size_b = np.abs(a), np.abs(b)
    support = size > _support_cut(size, tol)
    if not (support == (size_b > _support_cut(size_b, tol))).all():
        return
    # One ratio per exponent, read at the largest entry of a carrying it.
    largest_first = np.argsort(-size[support], kind="stable")
    ratios = (b[support] / a[support])[largest_first]
    levels, first = np.unique(exponent[support][largest_first], return_index=True)
    level_ratios = ratios[first]
    power, base = 1, 1.0
    if levels.size >= 2:
        low = int(np.argmin(np.diff(levels)))
        power = int(levels[low + 1] - levels[low])
        base = level_ratios[low + 1] / level_ratios[low]
    modulus, phase = abs(base) ** (1.0 / power), np.angle(base)
    for n in range(power):
        z = modulus * np.exp(1j * (phase + 2.0 * np.pi * n) / power)
        if z == 0 or not cmath.isfinite(z):
            continue
        entries = [[1, 0], [0, z]] if shape == "diagonal" else [[0, 1], [z, 0]]
        yield np.array(entries, dtype=np.complex128)


def _jordan_conjugators(a: np.ndarray, b: np.ndarray, *, tol: float):
    """The one Q = I + cN, N = [[0, 1], [0, 0]], that can carry a onto b, in closed form.

    (I + cN)^⊗m = exp(c N_m) with N_m the sum of N over the sites, so the
    conjugate of a is exp(-c ad N_m) a = a - c [N_m, a] + O(c^2).  N_m
    lowers the level w(i) - w(j) of entry (i, j) by one.  The top level of
    a is untouched, so it fixes lambda, and a b with no support there
    (entries above :func:`_support_cut`, as in
    :func:`_graded_conjugators`) is no image; at the highest level where
    [N_m, a] is nonzero, every higher power of c cancels, and b / lambda
    = a - c [N_m, a] there fixes c by a one-unknown fit.  When a commutes
    with N_m, every c does, and c = 0 is returned.
    """
    level, m = -_grading(len(a)), len(a).bit_length() - 1
    n_sum = sum(pad_identity(_JORDAN, 2**k, 2 ** (m - 1 - k)) for k in range(m))
    size, size_b = np.abs(a), np.abs(b)
    noise = _support_cut(size, tol)
    top = level == level[size > noise].max()
    if not (size_b[top] > _support_cut(size_b, tol)).any():  # b has no support there
        return
    lam = linalg.scalar_fit(a[top], b[top])
    if lam == 0:  # a and b are orthogonal on the top level: no lambda to divide by
        return
    moved = n_sum @ a - a @ n_sum
    coefficient = 0.0
    if linalg.max_abs(moved) > noise:
        first = level == level[np.abs(moved) > noise].max()
        t = moved[first]
        coefficient = np.vdot(t, a[first] - b[first] / lam) / np.vdot(t, t)
    yield _IDENTITY + coefficient * _JORDAN


def _words(r: np.ndarray, m: int):
    """(name, degree in r, W(r)) for the words in r and the site
    transpositions P, in the order the reduction tries them.  Each P
    commutes with Q^⊗m, so every word is covariant.  Only the m(m-1)/2
    transpositions enter, each as the index p that swaps two bits, so
    that R P is ``r[:, p]`` and P R P is ``r[p][:, p]``; a pair no word
    decides costs O(m^2) products of side 2^m, not m!."""
    r2 = r @ r
    yield "R", 1, r
    yield "R^2", 2, r2
    yield "R^3", 3, r2 @ r
    for i, j in itertools.combinations(range(m), 2):
        perm = list(range(m))
        perm[i], perm[j] = j, i
        p = np.arange(2**m).reshape((2,) * m).transpose(perm).reshape(-1)
        tag, rp = "P" + "".join(map(str, perm)), r[:, p]
        yield f"R {tag}", 1, rp
        yield f"R {tag} R", 2, rp @ r
        yield f"R^2 {tag}", 2, r2[:, p]
        yield f"{tag} R {tag} R", 2, r[p][:, p] @ r


def _partial_trace(w: np.ndarray, m: int, site: int) -> np.ndarray:
    """The 2x2 trace of w over every site but ``site``."""
    left, right = 2**site, 2 ** (m - site - 1)
    return np.einsum("aibajb->ij", w.reshape(left, 2, right, left, 2, right))


def _invariants(a: np.ndarray, m: int) -> list[tuple[str, int, complex, float]]:
    """(name, degree, value, size) of each gauge invariant of a side 2^m matrix A.

    They are tr A, of degree 1, and tr X^2, of degree 2, for X = A and for
    each C_k, the trace of A over every site but k (:func:`_partial_trace`;
    tr C_k is tr A again).  ``size`` is |tr A| or the Frobenius norm of X,
    which the bounds of :func:`_refuting_invariant` read on s.
    """
    trace = complex(np.trace(a))
    parts = [("R", a)] + [(f"C_{k}", _partial_trace(a, m, k)) for k in range(m)]
    return [("tr R", 1, trace, abs(trace))] + [
        (f"tr {name}^2", 2, complex(np.einsum("ij,ji->", x, x)), float(np.vdot(x, x).real) ** 0.5)
        for name, x in parts
    ]


def _refuting_invariant(r: np.ndarray, s: np.ndarray, target: list, m: int, tol: float) -> Invariant | None:
    """The first invariant of :func:`_invariants` that no scalar carries from r to s, or None.

    ``target`` is ``_invariants(s, m)``, which :func:`decide_equivalence`
    reads once for both of its prefixes.

    For s = lambda (Q^-1)^⊗m r Q^⊗m, each invariant obeys I(s) = lambda^deg
    I(r) exactly, for any invertible Q, since the partial trace C_k of the
    image is lambda Q^-1 C_k(r) Q.  The witness search calls a candidate a
    witness or a near miss when its image T = lambda (Q^-1)^⊗m r Q^⊗m leaves
    s = T + E with every |E_ij| <= e = max(tol, ``NEAR_MISS``) max|s|.  For
    side N, let eta = N e.  Then |tr E| <= eta, and for X the identity or a
    C_k, ||X(E)||_F <= eta (N^2 entries of at most e, or 4 of at most N e / 2).
    Taking each invariant at degree 2, so that the one unknown mu = lambda^2
    fits them all (tr enters squared; no sign of lambda is chosen), each
    moves by at most

        |J(s) - mu J(r)| <= beta = eta (2 size(s) + eta),

    from |(tr s)^2 - (tr T)^2| = |tr E| |tr s + tr T| and
    tr X(s)^2 - tr X(T)^2 = tr(2 X(s) X(E) - X(E)^2), with size(s) = |tr s|
    or ||X(s)||_F.  The invariant p with the largest |J_p(r)| / beta_p fits
    mu' = J_p(s) / J_p(r), within beta_p / |J_p(r)| of every such mu, so such
    a candidate has every |J(s) - mu' J(r)| <= beta + |J(r)| beta_p / |J_p(r)|.
    The first invariant beyond that bound rules out every candidate the
    search could call a witness or a near miss; it is reported at its own
    degree, lambda^deg I(r) against I(s), with lambda the root of mu' that
    brings lambda tr r nearer to tr s.  e is at least ``NEAR_MISS`` of max|s|, far
    above the rounding of these sums, as the search assumes of its images.
    """
    eta = len(s) * max(tol, NEAR_MISS) * linalg.max_abs(s)
    terms = []
    for (name, degree, a, _), (_, _, b, size) in zip(_invariants(r, m), target):
        power = 2 // degree
        terms.append((name, degree, a, b, a**power, b**power, eta * (2 * size + eta)))
    *_, pivot_r, pivot_s, pivot_bound = max(terms, key=lambda t: abs(t[4]) / t[6])
    if pivot_r == 0:
        return None
    mu, spread = pivot_s / pivot_r, pivot_bound / abs(pivot_r)
    for name, degree, a, b, j_r, j_s, bound in terms:
        if abs(mu * j_r - j_s) > bound + spread * abs(j_r):
            lam = cmath.sqrt(mu)
            source = mu * a if degree == 2 else min(lam * a, -lam * a, key=lambda v: abs(v - b))
            return Invariant(name, degree, source, b)
    return None


def _split(c: np.ndarray, threshold: float):
    """(kind, eigenvalue mean, separation, basis) of a 2x2 covariant,
    judged against ``threshold``.

    ``kind`` is ``scalar`` (no separation or basis), ``distinct`` (the
    eigenvalue gap, and unit eigenvectors) or ``jordan`` (one Jordan
    block: the length of N e_j, and ``basis`` = [N e_j, e_j] for N the
    traceless part, so that N = basis · [[0, 1], [0, 0]] · basis^-1).
    N = [[a, b], [c, -a]] has eigenvalues ±sqrt(a^2 + bc), taken from its
    entries as Python numbers, which neither warn nor lose a subnormal
    entry the way a determinant's factorization does.
    """
    mean = np.trace(c) / 2
    traceless = c - mean * _IDENTITY
    if linalg.max_abs(traceless) <= threshold:
        return "scalar", mean, None, None
    (a, b), (c, _) = traceless.tolist()
    gap = 2 * abs(cmath.sqrt(a * a + b * c))
    if gap <= threshold:
        j = int(np.argmax(np.linalg.norm(traceless, axis=0)))
        basis = np.column_stack([traceless[:, j], _IDENTITY[:, j]])
        return "jordan", mean, np.linalg.norm(basis[:, 0]), basis
    return "distinct", mean, gap, np.linalg.eig(traceless)[1]


def _well_conditioned(basis: np.ndarray) -> bool:
    """sigma_min >= g sigma_max for a 2x2 basis and g = ``EIGENVECTOR_GATE``, as
    |det| >= g / (1 + g^2) ||basis||_F^2: r / (1 + r^2) grows with r = sigma_min / sigma_max."""
    (a, b), (c, d) = basis.tolist()
    frobenius = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    return abs(a * d - b * c) >= EIGENVECTOR_GATE / (1 + EIGENVECTOR_GATE**2) * frobenius


def _reducing_covariant(w: np.ndarray, m: int, threshold: float):
    """(site, kind, mean, separation, basis) of the covariant of word w to reduce by, or None.

    A covariant needs a separation (:func:`_split`) above
    ``SEPARATION_GATE`` times ``threshold``; a Jordan one needs a nonzero
    mean, which fixes lambda^deg, and both a basis that passes
    ``EIGENVECTOR_GATE``.  A Jordan covariant needs no eigenvectors, so
    the first one wins; else the distinct one with the widest gap, whose
    eigenvectors carry the least rounding.  The Jordan basis's first
    column is divided by its separation, to unit length.
    """
    best, best_rank = None, -1.0
    for site in range(m):
        kind, mean, separation, basis = _split(_partial_trace(w, m, site), threshold)
        if kind == "scalar" or (kind == "jordan" and abs(mean) <= threshold):
            continue
        if separation <= SEPARATION_GATE * threshold:
            continue
        if kind == "jordan":
            basis[:, 0] /= separation
        if not _well_conditioned(basis):
            continue
        rank = np.inf if kind == "jordan" else separation
        if rank > best_rank:
            best, best_rank = (site, kind, mean, separation, basis), rank
    return best


def _covariant_reduction(r: RMatrix, s: RMatrix, *, tol: float):
    """(covariant, candidates): every 2x2 Q that can carry r onto s, in closed form.

    If s = lambda (Q^-1)^⊗m r Q^⊗m, each word W of :func:`_words` has
    W(s) = lambda^deg (Q^-1)^⊗m W(r) Q^⊗m, so its partial trace C_k over
    every site but k obeys C_k(W(s)) = lambda^deg Q^-1 C_k(W(r)) Q.  The
    first word with a covariant of r to reduce by (see
    :func:`_reducing_covariant`) decides:

    - with distinct eigenvalues and eigenvectors V_r, V_s, the matrix
      Q' = V_r^-1 Q V_s maps eigenvectors to eigenvectors, so it is
      diagonal or antidiagonal (the eigenvalue order may swap), and
      :func:`_graded_conjugators` decides it on the conjugates of r by V_r
      and s by V_s;
    - with one Jordan block, the bases are scaled so that both traceless
      parts become the same multiple of [[0, 1], [0, 0]] (the one of s
      divided by lambda^deg, which the eigenvalue means fix); Q' commutes
      with that block, so it is a multiple of I + bN, and
      :func:`_jordan_conjugators` decides it.

    The covariant of s is judged on r's scale carried over by |lambda|^deg,
    with |lambda| = |det s / det r|^(1/2^m): exact for a gauge image,
    whatever the conditioning of Q^⊗m.  Each candidate is mapped back as
    V_r Q' V_s^-1.  A covariant of s of another kind, beyond
    ``COVARIANT_MARGIN``, rules every Q out (no candidates).  Returns
    (None, None) when no covariant of r decides (all scalar, too close to
    a scalar, ill-conditioned, or nilpotent), and
    (covariant, None) when that of s is near the threshold, or too close
    to a scalar on the scale of its own word, or its basis is
    ill-conditioned: both undecided.  A basis has a unit column, so one
    that passes :func:`_well_conditioned` passes its :class:`GaugeOp` gate.
    """
    m = r.signature.m
    growth = np.exp((np.linalg.slogdet(s.matrix)[1] - np.linalg.slogdet(r.matrix)[1]) / r.size)
    for (word, degree, wr), (_, _, ws) in zip(_words(r.matrix, m), _words(s.matrix, m)):
        threshold_r = COVARIANT_RTOL * linalg.max_abs(wr)
        best = _reducing_covariant(wr, m, threshold_r)
        if best is None:
            continue
        site, kind, mean_r, separation_r, basis_r = best
        covariant = Covariant(word, site, kind)
        threshold_s = threshold_r * growth**degree
        cs = _partial_trace(ws, m, site)
        kind_s, mean_s, separation_s, basis_s = _split(cs, threshold_s)
        if kind_s != kind:
            # A gap between eigenvalues is invariant, so one on the other
            # side of the threshold rules s out.  A scalar s, or a distinct
            # s against a Jordan r, is ruled out only clear of the margin.
            widen = {"scalar": 1 / COVARIANT_MARGIN, "distinct": COVARIANT_MARGIN}.get(kind_s)
            if widen and _split(cs, threshold_s * widen)[0] != kind_s:
                return covariant, None
            return covariant, ()
        # s's basis carries the rounding of s's own word, which Q^⊗m may swell.
        if separation_s <= SEPARATION_GATE * COVARIANT_RTOL * linalg.max_abs(ws):
            return covariant, None
        if kind == "jordan":
            if abs(mean_s) <= threshold_s / COVARIANT_MARGIN:  # lambda^deg = 0
                return covariant, ()
            # r's block became separation_r · [[0, 1], [0, 0]]; s's must become lambda^deg times that.
            basis_s[:, 0] /= mean_s / mean_r * separation_r
        if not _well_conditioned(basis_s):
            return covariant, None
        conj_r, conj_s = GaugeOp.local_conj(basis_r), GaugeOp.local_conj(basis_s)
        reduced_r = _local_conjugate(r.matrix, conj_r.q, conj_r.q_inverse, m)
        reduced_s = _local_conjugate(s.matrix, conj_s.q, conj_s.q_inverse, m)
        if kind == "distinct":
            reduced = itertools.chain.from_iterable(
                _graded_conjugators(reduced_r, reduced_s, shape, tol=tol)
                for shape in ("diagonal", "antidiagonal")
            )
        else:
            reduced = _jordan_conjugators(reduced_r, reduced_s, tol=tol)
        return covariant, (basis_r @ q @ conj_s.q_inverse for q in reduced)
    return None, None


def _checked_pair(r: RMatrix, s: RMatrix, tol: float) -> float:
    """``tol`` through its gate, once ``r`` and ``s`` share a signature with d = 2."""
    tol = linalg.tolerance(tol)
    if r.signature != s.signature:
        raise ValueError("witness search needs matching signatures")
    if r.signature.d != 2:
        raise ValueError(f"witness search needs local dimension 2, got d = {r.signature.d}")
    return tol


def _search_conjugator(
    r: RMatrix,
    s: RMatrix,
    shapes: tuple[str, ...],
    *,
    with_scalar: bool,
    tol: float,
    prefix: str = "direct",
) -> tuple[tuple[GaugeOp, complex, float] | None, PrefixDecision]:
    """Shared engine behind the witness searches: (hit, decision).

    The diagonal and antidiagonal shapes are decided in closed form by
    :func:`_graded_conjugators`, and the general shape by
    :func:`_covariant_reduction`; no shape runs an optimizer.  Every
    candidate Q is scored as one ``GaugeOp.local_conj(Q)`` by
    :func:`_local_conjugate`, with lambda fitted, or 1 for a local
    conjugation alone, and the first (op, lambda, residual) with residual <=
    ``tol`` times the largest entry of ``s``, in shape and candidate
    order, is the hit; the residual reported stays absolute.
    Only the image of a hit or near miss is built as an :class:`RMatrix`,
    and dropped if its gates reject it.  With no hit the verdict is
    ``undecided`` when the general shape was asked for and could not
    reduce, or when a candidate came within ``NEAR_MISS``, else ``none``.
    ``tol``, the pair and ``shapes`` have passed their checks.
    """

    def conjugation_residual(q: np.ndarray):
        try:  # gated: Q by its GaugeOp, and the image of a hit or near miss by RMatrix
            op = GaugeOp.local_conj(q)
            image = _local_conjugate(r.matrix, op.q, op.q_inverse, r.signature.m)
            if not np.isfinite(image).all():
                return None, None, None
            lam = linalg.scalar_fit(image, s.matrix) if with_scalar else 1.0 + 0.0j
            if lam == 0:  # GaugeOp.scalar needs lambda != 0
                return None, None, None
            residual = float(linalg.max_abs(lam * image - s.matrix))
            if residual <= max(tol, NEAR_MISS) * scale:
                RMatrix(r.signature, image, f"local_conj({r.label})")
        except ValueError:
            return None, None, None
        return op, residual, lam

    scale = linalg.max_abs(s.matrix)
    covariant, undecided, scored, closest = None, False, 0, np.inf
    for shape in shapes:
        if shape == "general":
            covariant, candidates = _covariant_reduction(r, s, tol=tol)
            if candidates is None:
                undecided = True
                continue
        else:
            candidates = _graded_conjugators(r.matrix, s.matrix, shape, tol=tol)
        for q in candidates:
            scored += 1
            op, residual, lam = conjugation_residual(q)
            if residual is not None and residual <= tol * scale:
                return (op, lam, residual), PrefixDecision(prefix, "witness", covariant, scored)
            if residual is not None:
                closest = min(closest, residual)
    near_miss = closest <= NEAR_MISS * scale
    verdict = "undecided" if undecided or near_miss else "none"
    return None, PrefixDecision(prefix, verdict, covariant, scored)


def search_local_conjugation(
    r: RMatrix,
    s: RMatrix,
    shapes: Iterable[str] = ("diagonal", "antidiagonal"),
    *,
    tol: float = WITNESS_TOL,
) -> tuple[np.ndarray, float] | None:
    """Search for Q with (Q^-1)^⊗m r Q^⊗m = s over the given shapes.

    Returns the first (Q, residual) found with residual <= tol times the
    largest entry of s, or None; absence of a witness is a valid outcome,
    not an error.  The candidates are those of :func:`decide_equivalence`,
    scored with lambda = 1.  ``shapes`` is read once.
    """
    tol = _checked_pair(r, s, tol)
    named = tuple(shapes) if isinstance(shapes, Iterable) and not isinstance(shapes, str) else ()
    if not named:
        raise ValueError(f"shapes must be a non-empty collection of names from {SHAPES}, got {shapes!r}")
    for shape in named:
        if shape not in SHAPES:
            raise ValueError(f"unknown conjugator shape: {shape!r}")
    hit, _ = _search_conjugator(r, s, named, with_scalar=False, tol=tol)
    if hit is None:
        return None
    return hit[0].q, hit[2]


def decide_equivalence(r: RMatrix, s: RMatrix, *, tol: float = WITNESS_TOL) -> EquivalenceDecision:
    """Decide whether a gauge sequence carries ``r`` onto ``s``.

    Tries a scalar combined with a local conjugation of every shape, first
    on ``r`` directly and then on its inverse, which runs only when the
    direct prefix finds no witness.  Once the pair passes its checks, each
    prefix passes the gate (r^-1 must be an :class:`RMatrix`), then the
    invariants (:func:`_refuting_invariant`: one that differs makes the
    prefix ``none`` with no candidate scored), then the shapes.  The
    witness lists the operations in application order.  Without one, the
    verdict is ``undecided`` when some prefix could not reduce (see
    :class:`PrefixDecision`), as when r^-1 is below the singular-value
    gate, else ``none``.
    """
    tol = _checked_pair(r, s, tol)
    target = _invariants(s.matrix, r.signature.m)
    decisions = []
    for name, ops in (("direct", ()), ("inverse", (GaugeOp.inverse(),))):
        try:
            src = apply_gauge_sequence(r, ops)
        except linalg.SingularMatrixError:  # r^-1 of a large r is below the absolute gate
            decisions.append(PrefixDecision(name, "undecided", None, 0))
            continue
        invariant = _refuting_invariant(src.matrix, s.matrix, target, r.signature.m, tol)
        if invariant is not None:
            decisions.append(PrefixDecision(name, "none", None, 0, invariant))
            continue
        hit, decision = _search_conjugator(src, s, SHAPES, with_scalar=True, tol=tol, prefix=name)
        decisions.append(decision)
        if hit is not None:
            op, lam, residual = hit
            ops += (op, GaugeOp.scalar(lam))
            witness = EquivalenceWitness(ops, r.label, s.label, residual)
            return EquivalenceDecision(witness, tuple(decisions))
    return EquivalenceDecision(None, tuple(decisions))


def search_equivalence(r: RMatrix, s: RMatrix, *, tol: float = WITNESS_TOL) -> EquivalenceWitness | None:
    """The witness of :func:`decide_equivalence` over every shape and both prefixes, or None."""
    return decide_equivalence(r, s, tol=tol).witness
