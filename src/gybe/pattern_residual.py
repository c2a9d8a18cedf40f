"""The least-squares problem behind the zero-pattern search.

:class:`_PatternResidual` takes each entry a pattern leaves free as a real
and an imaginary parameter.  Its residual is the equation residual
LSL - SLS and the unitarity defect RR† - I as interleaved real and
imaginary parts, restricted to the rows the pattern can make nonzero, and
it supplies the exact Jacobian of that residual.  Both read one pool per
point, which holds the free entries: they take L = R ⊗ I^l and
S = I^l ⊗ R from it through a table that ``gybe.core._place``, the one
braid layout, builds from the entry numbers, and write [LS, SL] back into
it; the residual takes R from it too.  :mod:`gybe.search` minimizes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .core import GybeSignature, _place, lifted_difference

if TYPE_CHECKING:
    from .search import ZeroPattern


def _combined_residual_vector(m: np.ndarray, signature: GybeSignature) -> np.ndarray:
    """Equation and unitarity residuals of each matrix of a stack, as
    interleaved real and imaginary parts."""
    batch = m.shape[:-2]
    eq = lifted_difference(m, signature)
    uni = m @ linalg.dagger(m) - np.eye(m.shape[-1])
    return np.concatenate(
        [eq.reshape(*batch, -1), uni.reshape(*batch, -1)], axis=-1
    ).view(np.float64)


class _PatternResidual:
    """The search residual over a pattern's free entries, on its live rows,
    with its exact Jacobian.

    Parameters come in (real, imaginary) pairs, one pair per allowed entry
    in ``rows, cols`` order.  ``build`` and ``residual`` take leading batch
    axes: a (k, params) stack gives k matrices or residual vectors.

    A residual entry is live when some matrix respecting the pattern can
    make it nonzero.  With the boolean masks of L = R ⊗ I^l and
    S = I^l ⊗ R, entry (i, j) of LSL - SLS is live when the boolean product
    (L·S·L) ∨ (S·L·S) is set there, and entry (i, j) of RR† - I when rows
    i and j of the mask share a column, or i = j.  Every other entry, and
    its Jacobian row, is exactly 0.0 at every point: each term of its sum
    has a masked-out factor.  ``residual`` and ``jacobian`` return only the
    live real rows, ``live_rows`` of the ``total_rows`` in the full
    interleaved vector, so the objective and the normal equations are those
    of the full residual, summed in another order.

    Each point has one pool, [x, 0, 1, -1, -x, 2x, LS, SL], with x the
    parameters viewed as complex128, the free entries.  Both ``residual``
    and ``jacobian`` start by filling x, taking [L, S] from the pool
    through ``lift_pair``, a table of pool slots in which each entry the
    pattern masks out reads the 0, and writing [LS, SL] back into it with
    one stacked matmul.  The residual then forms [LSL, SLS] and takes R
    through ``r_slots``; LSL - SLS and RR† - I go into one array, whose
    live entries are one ``np.take``.  That take is a fresh array, never a
    view of the pool: the solver keeps rows of earlier residuals across
    later calls.  The signature's shape and dense cap are checked once, at
    construction, before any table is sized.

    The equation part F = LSL - SLS is holomorphic in R, so its derivative
    along the entry basis matrix E_k is dF_k = dL·S·L + L·dS·L + L·S·dL
    - dS·L·S - S·dL·S - S·L·dS with dL = E_k ⊗ I^l, dS = I^l ⊗ E_k.  For
    E_k = E_rc, dL has ones at the pad places where L holds R[r, c], and dS
    where S does, so each term X·dL·Y is the gathered product
    X[:, rows] @ Y[cols, :] over those places; dF_k is one matmul of the
    six gathered pairs side by side, with inner size 6·pad, read at the
    live entries.  The unitarity part U = RR† - I has derivative
    c·A_k + conj(c)·A_k† with A_k = E_k R†: entry (i, j) of A_k is
    conj(R[j, c]) when i = r, and of A_k† is R[i, c] when j = r.  The real
    and imaginary parameters of entry k move it by c = 1 and c = 1j, so
    their columns are c·dF_k at the live equation entries and [c, conj(c)]
    times A_k stacked over A_k† at the live unitarity entries.

    The Jacobian also fills -x and 2x.  The X and Y blocks of the six
    terms and the unitarity columns are tables of pool slots, so each side
    is one ``np.take``; the equation columns are one take from the dF_k
    and one multiply by 1j.  The pool, [L, S] and the gathered X, Y and
    dF_k live in work arrays sized for the largest stack seen and filled
    in place by ``out=`` arguments and ``np.take`` with ``mode="clip"``
    (arrays of this size allocated afresh on every iteration are
    page-faulted back in each time), and their views are cut once per
    stack size.  ``jacobian`` takes a (k, params) stack and returns one
    Jacobian per row.
    """

    def __init__(self, pattern: ZeroPattern, signature: GybeSignature):
        if not signature.has_side(pattern.size):
            raise ValueError(f"pattern size {pattern.size} does not match signature {signature}")
        self.pattern = pattern
        self.signature = signature
        self.rows, self.cols = np.nonzero(pattern.mask)
        self.n_params = 2 * self.rows.size
        n = pattern.size
        # L and S of the entry numbers 1..n², minus one: each entry's flat
        # index where L or S holds it, and -1 elsewhere.  Composed with each
        # entry's pool slot, -1 reads the last one, the pool's 0.
        # Placing them checks the dense cap, before any table is sized by it.
        numbers = np.arange(1, n * n + 1).reshape(n, n)
        lifts = np.stack([_place(numbers, signature, 3, 1), _place(numbers, signature, 3, 2)]) - 1
        self.side = side = lifts.shape[-1]
        pad = side // n
        self.eq_live, self.uni_live = _live_entries(pattern, signature)
        self.live_entries = entries = np.concatenate([self.eq_live, side * side + self.uni_live])
        self.live_rows = np.stack([2 * entries, 2 * entries + 1], axis=-1).reshape(-1)
        self.total_rows = 2 * (side * side + n * n)
        flat = self.rows * n + self.cols
        slot = np.full(n * n + 1, self.rows.size)
        slot[flat] = np.arange(self.rows.size)
        self.lift_pair, self.r_slots = slot[lifts], slot[: n * n].reshape(n, n)
        self.unit = np.eye(n)

        # The pool per point is [x, 0, 1, -1, -x, 2x, LS, SL]; each block
        # read from it is a table of pool slots.
        count, eq_size = self.rows.size, side * side
        zero, negated, doubled, products = count, count + 3, 2 * count + 3, 3 * count + 3
        self.pool_size = products + 2 * eq_size
        self.pool_parts = (slice(count), slice(negated, doubled), slice(doubled, products), slice(products, None))
        left, right = self.lift_pair
        eye, square = np.eye(side, dtype=bool), np.arange(eq_size).reshape(side, side)
        unit, minus_unit = np.where(eye, count + 1, zero), np.where(eye, count + 2, zero)
        left_right, right_left = products + square, products + eq_size + square
        # The pad places of each free entry in L and in S, by row: sorted by
        # value, the lifts list the -1s first, then each entry's places in turn.
        places = np.argsort(lifts.reshape(2, -1), kind="stable")[:, -n * n * pad :]
        (l_rows, s_rows), (l_cols, s_cols) = np.divmod(places.reshape(2, n * n, pad)[:, flat], side)
        # The six terms as (X, rows, Y, cols), each sign on a block the pool
        # holds, so that one gather of each side builds all six.
        terms = (
            (unit, l_rows, right_left, l_cols),  # dL·SL
            (left, s_rows, left, s_cols),  # L·dS·L
            (left_right, l_rows, unit, l_cols),  # LS·dL
            (minus_unit, s_rows, left_right, s_cols),  # -dS·LS
            (np.where(right < count, right + negated, zero), l_rows, right, l_cols),  # -S·dL·S
            (right_left, s_rows, minus_unit, s_cols),  # -SL·dS
        )
        self.x_index = np.concatenate([x[:, r] for x, r, _, _ in terms], axis=-1)
        self.y_index = np.concatenate([y[c] for _, _, y, c in terms], axis=1)
        # Column (k, c) of the Jacobian is c·dF_k at the live equation
        # entries, then c·A_k + conj(c)·A_k† at the live unitarity entries
        # (c = 1, 1j).  Read as reals, pool slot s is parts 2s and 2s + 1.
        # With x = a + ib entry (j, c) when only i = r, or entry (i, c) when
        # only j = r, the sum at (i, j) is x̄ or x for c = 1 and (b, a) or
        # (b, -a) for c = 1j; when i = j = r it is 2a or 2b, else 0.
        self.eq_index = np.arange(count)[:, None] * eq_size + self.eq_live
        i, j = np.divmod(self.uni_live, n)
        rows, cols = self.rows[:, None], self.cols[:, None]
        x_j, x_i = slot[j * n + cols], slot[i * n + cols]
        neg_j, neg_i = (np.where(e < count, e + negated, zero) for e in (x_j, x_i))
        cases = [((i == rows) & (j == rows))[..., None], (i == rows)[..., None], (j == rows)[..., None]]
        parts = (
            [(2 * (x_j + doubled), 2 * zero), (2 * x_j, 2 * neg_j + 1), (2 * x_i, 2 * x_i + 1)],
            [(2 * (x_j + doubled) + 1, 2 * zero), (2 * x_j + 1, 2 * x_j), (2 * x_i + 1, 2 * neg_i)],
        )
        self.uni_index = np.stack(
            [np.select(cases, [np.stack(np.broadcast_arrays(*p), -1) for p in c], 2 * zero) for c in parts], axis=1
        ).reshape(count, 2, -1)
        self._work: tuple[np.ndarray, ...] = ()
        self._views: dict[int, tuple[np.ndarray, ...]] = {}

    def build(self, x: np.ndarray) -> np.ndarray:
        size = self.pattern.size
        m = np.zeros(x.shape[:-1] + (size, size), dtype=np.complex128)
        m[..., self.rows, self.cols] = x[..., 0::2] + 1j * x[..., 1::2]
        return m

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        # Uniform on the complex unit disk, independently per entry.
        radius = np.sqrt(rng.uniform(0.0, 1.0, self.rows.size))
        phase = rng.uniform(0.0, 2.0 * np.pi, self.rows.size)
        x = np.empty(self.n_params)
        x[0::2] = radius * np.cos(phase)
        x[1::2] = radius * np.sin(phase)
        return x

    def _workspace(self, stack: int) -> tuple[np.ndarray, ...]:
        """The work arrays and their views for a stack of
        ``stack`` rows, made once per stack size and cut from arrays sized
        for the largest stack seen."""
        if stack not in self._views:
            if not self._work or len(self._work[0]) < stack:
                count, side = self.rows.size, self.side
                pool = np.zeros((stack, self.pool_size), dtype=np.complex128)
                pool[:, count + 1 : count + 3] = 1.0, -1.0
                shapes = (self.lift_pair.shape, self.x_index.shape, self.y_index.shape, (count, side, side))
                self._work = (pool, *(np.empty((stack, *shape), dtype=np.complex128) for shape in shapes))
                self._views = {}
            pool, lifts, gx, gy, d_f = (array[:stack] for array in self._work)
            free, negated, doubled, products = (pool[:, part] for part in self.pool_parts)
            self._views[stack] = (
                pool, pool.view(np.float64), *(part.view(np.float64) for part in (free, negated, doubled)),
                products.reshape(lifts.shape), lifts, lifts[:, ::-1],
                gx, gx.transpose(0, 2, 1, 3), gy, d_f, d_f.reshape(stack, -1),
            )
        return self._views[stack]

    def _lift(self, xs: np.ndarray) -> tuple[np.ndarray, ...]:
        """The workspace of a (k, params) stack, its pool holding each
        point's free entries, [L, S] and [LS, SL]."""
        views = self._workspace(len(xs))
        pool, _, free, _, _, products, lifts, swapped = views[:8]
        free[...] = xs
        # mode="clip" lets take write straight into out; "raise" buffers it.
        np.take(pool, self.lift_pair, axis=-1, out=lifts, mode="clip")
        np.matmul(lifts, swapped, out=products)  # [LS, SL]
        return views

    def residual(self, x: np.ndarray) -> np.ndarray:
        xs = np.reshape(x, (-1, self.n_params))
        views = self._lift(xs)
        pool, products, lifts, split = views[0], views[5], views[6], self.side**2
        full = np.empty((len(xs), split + self.unit.size), dtype=np.complex128)
        triple = products @ lifts  # [LSL, SLS]
        np.subtract(triple[:, 0], triple[:, 1], out=full[:, :split].reshape(triple[:, 0].shape))
        r = np.take(pool, self.r_slots, axis=-1)
        np.subtract(r @ linalg.dagger(r), self.unit, out=full[:, split:].reshape(r.shape))
        # A fresh array, not a view of the work arrays: the solver keeps rows
        # of earlier residuals across later calls.
        return np.take(full, self.live_entries, axis=-1).view(np.float64).reshape(np.shape(x)[:-1] + (-1,))

    def jacobian(self, xs: np.ndarray) -> np.ndarray:
        stack, count, eq_size = len(xs), self.rows.size, self.eq_live.size
        pool, reals, free, negated, doubled, products, lifts, swapped, gx, gx_t, gy, d_f, d_flat = self._lift(xs)
        # x, -x and 2x as reals, so that each is exact.
        np.negative(free, out=negated)
        np.multiply(free, 2.0, out=doubled)
        np.take(pool, self.x_index, axis=-1, out=gx, mode="clip")
        np.take(pool, self.y_index, axis=-1, out=gy, mode="clip")
        np.matmul(gx_t, gy, out=d_f)

        # The (real, imaginary) parameter columns: c = 1 and c = 1j times
        # dF_k, then A_k + A_k† and 1j·(A_k − A_k†), gathered from the pool.
        columns = np.empty((stack, count, 2, eq_size + self.uni_live.size), dtype=np.complex128)
        np.take(d_flat, self.eq_index, axis=-1, out=columns[..., 0, :eq_size], mode="clip")
        np.multiply(columns[..., 0, :eq_size], 1j, out=columns[..., 1, :eq_size])
        np.take(reals, self.uni_index, axis=-1, out=columns.view(np.float64)[..., 2 * eq_size :], mode="clip")
        return columns.reshape(stack, self.n_params, -1).view(np.float64).swapaxes(-1, -2)


def _live_entries(pattern: ZeroPattern, signature: GybeSignature) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the equation and unitarity entries a pattern can make nonzero.

    The equation entries are the support of the boolean product
    (L·S·L) ∨ (S·L·S) of the lifted masks, the unitarity entries that of
    mask·maskᵀ and the diagonal.
    """
    mask = pattern.mask.astype(float)
    left, right = _place(mask, signature, 3, 1), _place(mask, signature, 3, 2)
    equation = left @ right @ left + right @ left @ right
    unitarity = mask @ mask.T + np.eye(pattern.size)
    return np.flatnonzero(equation), np.flatnonzero(unitarity)
