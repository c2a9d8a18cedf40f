"""The least-squares problem behind the zero-pattern search.

:class:`_PatternResidual` takes each entry a pattern leaves free as a real
and an imaginary parameter.  Its residual is the equation residual
LSL - SLS and the unitarity defect RR† - I as interleaved real and
imaginary parts, restricted to the rows the pattern can make nonzero, and
it supplies the exact Jacobian of that residual.  Both take L = R ⊗ I^l,
S = I^l ⊗ R and R from one ``np.take`` over the free entries, through a
table that ``gybe.core._place``, the one braid layout, builds from the
entry numbers.  :mod:`gybe.search` minimizes it.
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

    The parameter stack viewed as complex128 is the free entries, and
    ``lift_table`` indexes [free entries, 0] so that one gather yields L, S
    and R of every point.  The residual forms [LS, SL] and then [LSL, SLS]
    as two stacked matmuls and gathers the live entries of LSL - SLS and of
    RR† - I into one array.  The signature's shape and dense cap are
    checked once, at construction, before any table is sized.

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

    The Jacobian's intermediates live in work arrays allocated on the first
    call, for the largest stack seen, and filled in place by ``out=``
    arguments and ``np.take`` with ``mode="clip"``: arrays of this size
    allocated afresh on every iteration are page-faulted back in each time.
    ``jacobian`` takes a (k, params) stack and returns one Jacobian per row.
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
        # entry's free slot, -1 reads the last slot, the trailing zero.
        # Placing them checks the dense cap, before any table is sized by it.
        numbers = np.arange(1, n * n + 1).reshape(n, n)
        lifts = np.stack([_place(numbers, signature, 3, 1), _place(numbers, signature, 3, 2)]) - 1
        self.side = side = lifts.shape[-1]
        pad = side // n
        self.eq_live, self.uni_live = _live_entries(pattern, signature)
        entries = np.concatenate([self.eq_live, side * side + self.uni_live])
        self.live_rows = np.stack([2 * entries, 2 * entries + 1], axis=-1).reshape(-1)
        self.total_rows = 2 * (side * side + n * n)
        flat = self.rows * n + self.cols
        slot = np.full(n * n + 1, self.rows.size)
        slot[flat] = np.arange(self.rows.size)
        self.lift_table = slot[np.concatenate([lifts.reshape(-1), np.arange(n * n)])]
        self.unit = np.eye(n)

        # The pad places of each free entry in L and in S, by row: sorted by
        # value, the lifts list the -1s first, then each entry's places in turn.
        places = np.argsort(lifts.reshape(2, -1), kind="stable")[:, -n * n * pad :]
        (l_rows, s_rows), (l_cols, s_cols) = np.divmod(places.reshape(2, n * n, pad)[:, flat], side)
        # The six terms as (X, rows, Y, cols): X is a block of
        # [I, L, LS, S, SL] side by side, Y a block of
        # [SL, L, I, -LS, -S, -I] stacked, so one gather of each builds all six.
        terms = (
            (0, l_rows, 0, l_cols),  # dL·SL
            (1, s_rows, 1, s_cols),  # L·dS·L
            (2, l_rows, 2, l_cols),  # LS·dL
            (0, s_rows, 3, s_cols),  # -dS·LS
            (3, l_rows, 4, l_cols),  # -S·dL·S
            (4, s_rows, 5, s_cols),  # -SL·dS
        )
        self.x_index = np.concatenate([x * side + r for x, r, _, _ in terms], axis=1)
        self.y_index = np.concatenate([y * side + c for _, _, y, c in terms], axis=1)
        # Column (k, c) of the Jacobian is c·dF_k at the live equation
        # entries, then c·A_k + conj(c)·A_k† at the live unitarity entries
        # (c = 1, 1j), with A_k and A_k† gathered from
        # [conj(R), R, 0] (0 where the entry is not in row r or column r).
        count, eq_size, zero = self.rows.size, side * side, 2 * n * n
        self.eq_index = np.arange(count)[:, None] * eq_size + self.eq_live
        i, j = np.divmod(self.uni_live, n)
        rows, cols = self.rows[:, None], self.cols[:, None]
        self.uni_index = np.stack(
            [np.where(i == rows, j * n + cols, zero), np.where(j == rows, n * n + i * n + cols, zero)],
            axis=1,
        )
        self._work: dict[str, np.ndarray] = {}

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

    def _gather(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lifts [L, S] stacked, and R, of each point of a parameter
        stack, taken from its free entries in one gather."""
        free = np.ascontiguousarray(x, dtype=np.float64).view(np.complex128)
        batch = free.shape[:-1]
        pool = np.zeros(batch + (free.shape[-1] + 1,), dtype=np.complex128)
        pool[..., :-1] = free
        gathered = np.take(pool, self.lift_table, axis=-1)
        split, side, n = 2 * self.side**2, self.side, self.pattern.size
        return (
            gathered[..., :split].reshape(batch + (2, side, side)),
            gathered[..., split:].reshape(batch + (n, n)),
        )

    def residual(self, x: np.ndarray) -> np.ndarray:
        lifts, r = self._gather(x)
        pair = lifts @ lifts[..., ::-1, :, :]  # [LS, SL]
        triple = pair @ lifts  # [LSL, SLS]
        eq = triple[..., 0, :, :] - triple[..., 1, :, :]
        uni = r @ linalg.dagger(r) - self.unit
        batch, split = eq.shape[:-2], self.eq_live.size
        out = np.empty(batch + (split + self.uni_live.size,), dtype=np.complex128)
        out[..., :split] = eq.reshape(batch + (-1,))[..., self.eq_live]
        out[..., split:] = uni.reshape(batch + (-1,))[..., self.uni_live]
        return out.view(np.float64)

    def _workspace(self, stack: int) -> dict[str, np.ndarray]:
        """The Jacobian's work arrays, cut to a stack of ``stack`` rows."""
        if not self._work or len(self._work["d_f"]) < stack:
            side, (count, inner), n = self.side, self.x_index.shape, self.pattern.size
            eye = np.eye(side)
            work = {
                "x_blocks": np.zeros((stack, side, 5 * side), dtype=np.complex128),
                "y_blocks": np.zeros((stack, 6 * side, side), dtype=np.complex128),
                "x_gathered": np.empty((stack, side, count, inner), dtype=np.complex128),
                "y_gathered": np.empty((stack, count, inner, side), dtype=np.complex128),
                "d_f": np.empty((stack, count, side, side), dtype=np.complex128),
                "d_eq": np.empty((stack,) + self.eq_index.shape, dtype=np.complex128),
                "r_pool": np.zeros((stack, 2 * n * n + 1), dtype=np.complex128),
                "d_uni": np.empty((stack,) + self.uni_index.shape, dtype=np.complex128),
            }
            work["x_blocks"][:, :, :side] = eye
            work["y_blocks"][:, 2 * side : 3 * side] = eye
            work["y_blocks"][:, 5 * side :] = -eye
            self._work = work
        return {name: array[:stack] for name, array in self._work.items()}

    def jacobian(self, xs: np.ndarray) -> np.ndarray:
        stack, side = len(xs), self.side
        work = self._workspace(stack)
        lifts, m = self._gather(xs)
        left, right = lifts[:, 0], lifts[:, 1]
        # X blocks [I, L, LS, S, SL] side by side, Y blocks [SL, L, I, -LS, -S, -I] stacked.
        x_blocks, y_blocks = work["x_blocks"], work["y_blocks"]
        lr, rl = x_blocks[..., 2 * side : 3 * side], y_blocks[:, :side]
        x_blocks[..., side : 2 * side] = left
        y_blocks[:, side : 2 * side] = left
        x_blocks[..., 3 * side : 4 * side] = right
        np.negative(right, out=y_blocks[:, 4 * side : 5 * side])
        np.matmul(left, right, out=lr)
        np.negative(lr, out=y_blocks[:, 3 * side : 4 * side])
        np.matmul(right, left, out=rl)
        x_blocks[..., 4 * side :] = rl
        # mode="clip" lets take write straight into out; "raise" buffers it.
        gx = np.take(x_blocks, self.x_index, axis=-1, out=work["x_gathered"], mode="clip")
        gy = np.take(y_blocks, self.y_index, axis=1, out=work["y_gathered"], mode="clip")
        d_f = np.matmul(gx.transpose(0, 2, 1, 3), gy, out=work["d_f"])
        d_eq = np.take(d_f.reshape(stack, -1), self.eq_index, axis=-1, out=work["d_eq"], mode="clip")
        r_pool, n2 = work["r_pool"], m[0].size
        np.conjugate(m.reshape(stack, n2), out=r_pool[:, :n2])
        r_pool[:, n2:-1] = m.reshape(stack, n2)
        d_uni = np.take(r_pool, self.uni_index, axis=-1, out=work["d_uni"], mode="clip")

        # The (real, imaginary) parameter columns: c = 1 and c = 1j times
        # dF_k, then A_k + A_k† and 1j·(A_k − A_k†).
        eq_size = d_eq.shape[-1]
        columns = np.empty((stack, len(d_eq[0]), 2, eq_size + d_uni.shape[-1]), dtype=np.complex128)
        eq_columns, uni_columns = columns[..., :eq_size], columns[..., eq_size:]
        eq_columns[..., 0, :] = d_eq
        np.multiply(d_eq, 1j, out=eq_columns[..., 1, :])
        np.add(d_uni[..., 0, :], d_uni[..., 1, :], out=uni_columns[..., 0, :])
        np.subtract(d_uni[..., 0, :], d_uni[..., 1, :], out=uni_columns[..., 1, :])
        np.multiply(uni_columns[..., 1, :], 1j, out=uni_columns[..., 1, :])
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
