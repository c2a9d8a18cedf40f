"""The least-squares problem behind the zero-pattern search.

:class:`_PatternResidual` takes each entry a pattern leaves free as a real
and an imaginary parameter.  Its residual is the equation residual
LSL - SLS and the unitarity defect RR† - I as interleaved real and
imaginary parts, restricted to the rows the pattern can make nonzero, and
it supplies the normal equations JᵀJ and Jᵀr of that residual in closed
form.  Both read one pool per point, which holds the free entries, L and S
taken through a table that ``gybe.core._place``, the one braid layout,
builds from the entry numbers, and [LS, SL].  :mod:`gybe.search` minimizes it.
"""

from __future__ import annotations

from types import SimpleNamespace
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
    with its exact normal equations.

    Parameters come in (real, imaginary) pairs, one pair per allowed entry
    in ``rows, cols`` order.  ``build`` and ``residual`` take leading batch
    axes: a (k, params) stack gives k matrices or residual vectors.

    A residual entry is live when some matrix respecting the pattern can
    make it nonzero.  With the boolean masks of L = R ⊗ I^l and
    S = I^l ⊗ R, entry (i, j) of LSL - SLS is live when the boolean product
    (L·S·L) ∨ (S·L·S) is set there, and entry (i, j) of RR† - I when rows
    i and j of the mask share a column, or i = j.  Every other entry, and
    its derivative, is exactly 0.0 at every point: each term of its sum
    has a masked-out factor.  ``residual`` returns only the live real rows,
    ``live_rows`` of the ``total_rows`` in the full interleaved vector.

    Each point has one pool, [x, 0, 1, -1, -x, LS, SL, R†R, U], with x the
    parameters viewed as complex128, the free entries.  Both ``residual``
    and ``normal`` start by filling x, taking [L, S] from the pool
    through ``lift_pair``, a table of pool slots in which each entry the
    pattern masks out reads the 0, and writing [LS, SL] back into it with
    one stacked matmul.  The residual then forms [LSL, SLS] and takes R
    through ``r_slots``; LSL - SLS and RR† - I go into one array, whose
    live entries are one ``np.take``, a fresh array.  The signature's shape
    and dense cap are checked once, at construction, before any table is
    sized.

    The equation part F = LSL - SLS is holomorphic in R, so its derivative
    along the entry basis matrix E_k is dF_k = dL·S·L + L·dS·L + L·S·dL
    - dS·L·S - S·dL·S - S·L·dS with dL = E_k ⊗ I^l, dS = I^l ⊗ E_k.  For
    E_k = E_rc, dL has ones at the pad places where L holds R[r, c], and dS
    where S does, so each term X·dL·Y is the gathered product
    X[:, rows] @ Y[cols, :] over those places; dF_k is one matmul of the
    six gathered pairs side by side, with inner size 6·pad.  Row k of D is
    dF_k at the live equation entries.

    ``normal`` forms JᵀJ and Jᵀr without J.  Entry k sits at (r_k, c_k),
    and its parameters a_k, b_k move R by E_k and i·E_k.  Over the two real
    rows of a complex residual z, JᵀJ[p, q] = Re Σ conj(∂_p z)·∂_q z and
    Jᵀr[p] = Re Σ conj(∂_p z)·z.  F moves by dF_k and i·dF_k, and
    U = RR† - I by A_k + A_k† and i·(A_k - A_k†) with A_k = E_k R†, whose
    Frobenius products are tr(A_k A_l†) = S̄[k, l] = [r_k = r_l]·(R†R)[c_k, c_l],
    tr(A_k† A_l†) = W[k, l]·W[l, k] with W[k, l] = R[r_k, c_l], and their
    conjugates.  So with M = DDᴴ + 2S̄ and N = 2 W ⊙ Wᵀ, row a_k of JᵀJ is
    the real view of M[k] + N[k] and row b_k that of i·(M[k] - N[k]), and
    Jᵀr is that of conj(D)·r_eq + 2(UR)[r_k, c_k], with r_eq and U read
    from the residuals.  Dropped entries add exact zeros to every sum.

    ``normal`` also fills -x, R†R and U, and the X and Y blocks, D, S̄ and W
    are each one ``np.take`` of a slot table.  The pool, [L, S], X, Y, dF
    (then conj(D)), D, [S̄, W], M and N are work arrays sized for the
    largest stack seen, filled in place by ``out=`` and ``np.take`` with
    ``mode="clip"`` (arrays this size allocated afresh on every iteration
    are page-faulted back in each time); their views are cut once per
    stack size.
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

        # The pool per point is [x, 0, 1, -1, -x, LS, SL, R†R, U], U written at
        # its live entries only, the rest staying 0; blocks are read by slot tables.
        count, eq_size = self.rows.size, side * side
        zero, negated, products, gram = count, count + 3, 2 * count + 3, 2 * count + 3 + 2 * eq_size
        u = gram + n * n
        self.pool_size, self.u_slots, self.free_flat = u + n * n, u + self.uni_live, flat
        ends = (0, count), (negated, products), (products, gram), (gram, u), (u, None)
        self.pool_parts = [slice(*pair) for pair in ends]
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
        # Row k of D: dF_k at the live equation entries.  Then S̄ and W as
        # pool slots, S̄ reading R†R where r_k = r_l and the 0 elsewhere.
        self.eq_index = np.arange(count)[:, None] * eq_size + self.eq_live
        rows, cols = self.rows[:, None], self.cols[:, None]
        s_bar = np.where(rows == rows.T, gram + cols * n + cols.T, zero)
        self.normal_index = np.stack([s_bar, slot[rows * n + cols.T]])
        self._work: dict[str, np.ndarray] = {}
        self._views: dict[int, SimpleNamespace] = {}

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

    def _workspace(self, stack: int) -> SimpleNamespace:
        """The work arrays and their views for ``stack`` rows, made once per
        stack size and cut from arrays sized for the largest stack seen."""
        if stack not in self._views:
            if not self._work or len(self._work["pool"]) < stack:
                count, side = self.rows.size, self.side
                shapes = dict(lifts=self.lift_pair.shape, gx=self.x_index.shape, gy=self.y_index.shape)
                shapes.update(d_f=(count, side, side), d=self.eq_index.shape, sw=self.normal_index.shape)
                shapes.update(m=(count, count), n=(count, count))
                self._work = {k: np.empty((stack, *shape), dtype=np.complex128) for k, shape in shapes.items()}
                self._work["pool"] = pool = np.zeros((stack, self.pool_size), dtype=np.complex128)
                pool[:, count + 1 : count + 3] = 1.0, -1.0
                self._views = {}
            ws = SimpleNamespace(**{name: array[:stack] for name, array in self._work.items()})
            ws.free, ws.negated, products, *squares = (ws.pool[:, part] for part in self.pool_parts)
            ws.parameters, ws.swapped = ws.free.view(np.float64), ws.lifts[:, ::-1]
            ws.products = products.reshape(ws.lifts.shape)
            ws.gram, ws.u = (square.reshape(stack, *self.unit.shape) for square in squares)
            ws.gx_t, ws.d_flat = ws.gx.transpose(0, 2, 1, 3), ws.d_f.reshape(stack, -1)
            # conj(D) overwrites dF, which is spent once D is taken from it.
            ws.d_conj = ws.d_flat[:, : ws.d[0].size].reshape(ws.d.shape)
            self._views[stack] = ws
        return self._views[stack]

    def _lift(self, xs: np.ndarray) -> SimpleNamespace:
        """The workspace of a (k, params) stack, its pool holding x, [L, S] and [LS, SL]."""
        ws = self._workspace(len(xs))
        ws.parameters[...] = xs
        # mode="clip" lets take write straight into out; "raise" buffers it.
        np.take(ws.pool, self.lift_pair, axis=-1, out=ws.lifts, mode="clip")
        np.matmul(ws.lifts, ws.swapped, out=ws.products)  # [LS, SL]
        return ws

    def residual(self, x: np.ndarray) -> np.ndarray:
        xs = np.reshape(x, (-1, self.n_params))
        ws, split = self._lift(xs), self.side**2
        full = np.empty((len(xs), split + self.unit.size), dtype=np.complex128)
        triple = ws.products @ ws.lifts  # [LSL, SLS]
        np.subtract(triple[:, 0], triple[:, 1], out=full[:, :split].reshape(triple[:, 0].shape))
        r = np.take(ws.pool, self.r_slots, axis=-1)
        np.subtract(r @ linalg.dagger(r), self.unit, out=full[:, split:].reshape(r.shape))
        # A fresh array, not a view of the work arrays: the solver keeps rows
        # of earlier residuals across later calls.
        return np.take(full, self.live_entries, axis=-1).view(np.float64).reshape(np.shape(x)[:-1] + (-1,))

    def normal(self, xs: np.ndarray, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        stack, count, ws = len(xs), self.rows.size, self._lift(xs)
        np.negative(ws.free, out=ws.negated)
        np.take(ws.pool, self.x_index, axis=-1, out=ws.gx, mode="clip")
        np.take(ws.pool, self.y_index, axis=-1, out=ws.gy, mode="clip")
        np.matmul(ws.gx_t, ws.gy, out=ws.d_f)
        np.take(ws.d_flat, self.eq_index, axis=-1, out=ws.d, mode="clip")
        np.conjugate(ws.d, out=ws.d_conj)
        r = np.take(ws.pool, self.r_slots, axis=-1)
        np.matmul(linalg.dagger(r), r, out=ws.gram)
        np.take(ws.pool, self.normal_index, axis=-1, out=ws.sw, mode="clip")
        s_bar, w = ws.sw.swapaxes(0, 1)
        m, n = np.matmul(ws.d, ws.d_conj.swapaxes(-1, -2), out=ws.m), np.multiply(w, w.swapaxes(-1, -2), out=ws.n)
        m += np.multiply(s_bar, 2.0, out=s_bar)  # M = DDᴴ + 2S̄
        n *= 2.0  # N = 2 W ⊙ Wᵀ

        # Rows a_k and b_k of JᵀJ, interleaved in place: M[k] + N[k] and i·(M[k] - N[k]).
        jtj = np.empty((stack, count, 2, count), dtype=np.complex128)
        np.add(m, n, out=jtj[:, :, 0])
        np.multiply(np.subtract(m, n, out=m), 1j, out=jtj[:, :, 1])
        # conj(D)·r_eq + 2(UR)[r_k, c_k], U and r_eq read from the residuals.
        split = 2 * self.eq_live.size
        r_eq = residuals[:, :split].view(np.complex128)
        ws.pool[:, self.u_slots] = residuals[:, split:].view(np.complex128)
        jtr = 2.0 * np.take((ws.u @ r).reshape(stack, -1), self.free_flat, axis=-1)
        jtr += (ws.d_conj @ r_eq[..., None])[..., 0]
        return jtj.view(np.float64).reshape(stack, self.n_params, -1), jtr.view(np.float64)


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
