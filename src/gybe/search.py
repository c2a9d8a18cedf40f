"""Numerical discovery of unitary solutions with a prescribed zero pattern.

Candidates are matrices whose entries are free only where a boolean mask
allows them.  The objective is the squared Frobenius weight of the equation
residual plus the squared Frobenius weight of the unitarity defect; it
vanishes exactly on unitary solutions.  Independent damped least-squares
restarts minimize it from random starting points, solved together as one
stack by :func:`gybe.optimize.solve_stack`; a restart whose objective stops
falling leaves the stack with reason ``plateau`` instead of running out the
iteration budget.  Converged candidates are certified against the exact
checks, and duplicates are folded together by scalar-gauge-normalized
conjugacy invariants.  Each restart reports why it stopped, what it
evaluated and whether it was certified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .core import GybeSignature, RMatrix, gybe_residual, lift_pair, lifted_difference
from .optimize import LeastSquaresResult, solve_stack
from .solutions import split_blocks

PARAMETERIZATIONS = ("free-complex", "unit-modulus")


@dataclass(frozen=True)
class ZeroPattern:
    """Boolean mask of the entries allowed to be nonzero."""

    size: int
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool).copy()
        if mask.shape != (self.size, self.size):
            raise ValueError(
                f"mask shape {mask.shape} does not match size {self.size}"
            )
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def free_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def accepts(self, m: np.ndarray, tol: float = 0.0) -> bool:
        """True when every masked-out entry of ``m`` is zero (within tol)."""
        m = linalg.as_matrix(m)
        if m.shape != (self.size, self.size):
            return False
        return bool(np.all(np.abs(m[~self.mask]) <= tol))

    @staticmethod
    def from_matrix(m: np.ndarray, threshold: float = 1e-9) -> "ZeroPattern":
        m = linalg.as_matrix(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError("pattern source must be square")
        return ZeroPattern(m.shape[0], np.abs(m) > threshold)

    @staticmethod
    def from_text(text: str) -> "ZeroPattern":
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows:
            raise ValueError("empty pattern text")
        size = len(rows)
        mask = np.zeros((size, size), dtype=bool)
        for i, row in enumerate(rows):
            if len(row) != size:
                raise ValueError(f"pattern row {i} has length {len(row)}, expected {size}")
            for j, ch in enumerate(row):
                if ch not in "01":
                    raise ValueError(f"pattern characters must be 0 or 1, got {ch!r}")
                mask[i, j] = ch == "1"
        return ZeroPattern(size, mask)

    def to_text(self) -> str:
        return "\n".join(
            "".join("1" if v else "0" for v in row) for row in self.mask
        )

    @staticmethod
    def from_json_dict(data: dict) -> "ZeroPattern":
        """Decode :meth:`to_json_dict` output: an integer size and rows of JSON
        booleans; numbers and strings that numpy would coerce are malformed."""
        try:
            size, mask = data["size"], data["mask"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed pattern JSON: {exc}") from exc
        if type(size) is not int:
            raise ValueError("malformed pattern JSON: size must be an integer")
        if type(mask) is not list or not all(
            type(row) is list and all(type(v) is bool for v in row) for row in mask
        ):
            raise ValueError("malformed pattern JSON: mask must be rows of true/false")
        return ZeroPattern(size, np.array(mask, dtype=bool))

    def to_json_dict(self) -> dict:
        return {"size": self.size, "mask": [[bool(v) for v in row] for row in self.mask]}


def load_pattern_text(text: str) -> ZeroPattern:
    """Parse a pattern from either the JSON object form or the 0/1 grid form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return ZeroPattern.from_json_dict(json.loads(text))
    return ZeroPattern.from_text(text)


def rowell_pattern() -> ZeroPattern:
    """The two-block zero pattern shared by all 8x8 solutions in the registry."""
    mask = np.zeros((8, 8), dtype=bool)
    for block in (0, 4):
        for i in range(4):
            mask[block + i, block + i] = True
            mask[block + i, block + (i + 2) % 4] = True
    return ZeroPattern(8, mask)


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for one search run."""

    tolerance: float = 1e-11
    restarts: int = 16
    seed: int = 0
    max_iterations: int = 250
    parameterization: str = "free-complex"

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.parameterization not in PARAMETERIZATIONS:
            raise ValueError(
                f"parameterization must be one of {PARAMETERIZATIONS}"
            )


@dataclass(frozen=True)
class FoundSolution:
    solution: RMatrix
    residual: float
    objective: float
    restart_index: int
    dedup_key: str

    def to_json_dict(self) -> dict:
        return {
            "matrix": linalg.matrix_to_json_dict(self.solution.matrix),
            "residual": float(self.residual),
            "objective": float(self.objective),
            "restart": int(self.restart_index),
            "dedup_key": self.dedup_key,
        }


@dataclass(frozen=True)
class RestartReport:
    """Why one restart stopped, what it evaluated, and whether it was certified."""

    reason: str
    iterations: int
    residual_evals: int
    jacobian_evals: int
    certified: bool


@dataclass(frozen=True)
class SearchResult:
    solutions: tuple[FoundSolution, ...]
    traces: tuple[tuple[float, ...], ...]
    best_objective: float
    dedup_counts: dict[str, int] = field(default_factory=dict)
    restarts: tuple[RestartReport, ...] = ()

    def to_json_list(self) -> list:
        return [s.to_json_dict() for s in self.solutions]


class _Parameterization:
    """Maps a real parameter vector onto the masked entries of a matrix.

    Parameters come in consecutive groups of ``per_entry``, one group per
    allowed entry in ``rows, cols`` order.  ``build`` and ``coefficients``
    take leading batch axes: a (k, params) stack gives k matrices.
    """

    def __init__(self, pattern: ZeroPattern, kind: str):
        self.pattern = pattern
        self.kind = kind
        self.rows, self.cols = np.nonzero(pattern.mask)
        if kind == "unit-modulus":
            # Phases only; moduli fixed so each fully-occupied row can have
            # unit norm (1/sqrt of the row's allowed-entry count).
            counts = pattern.mask.sum(axis=1)
            self.scales = 1.0 / np.sqrt(np.maximum(counts[self.rows], 1))
            self.per_entry = 1
        else:
            self.scales = None
            self.per_entry = 2  # real and imaginary part
        self.n_params = self.per_entry * self.rows.size

    def build(self, x: np.ndarray) -> np.ndarray:
        size = self.pattern.size
        m = np.zeros(x.shape[:-1] + (size, size), dtype=np.complex128)
        if self.kind == "unit-modulus":
            m[..., self.rows, self.cols] = self.scales * np.exp(1j * x)
        else:
            m[..., self.rows, self.cols] = x[..., 0::2] + 1j * x[..., 1::2]
        return m

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """d(entry)/d(parameter) at ``x``, broadcastable to (..., entries, per_entry).

        Each parameter moves only its own entry, by this complex factor.
        """
        if self.kind == "unit-modulus":
            return (1j * self.scales * np.exp(1j * x))[..., None]
        return np.array([[1.0, 1.0j]])

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "unit-modulus":
            return rng.uniform(0.0, 2.0 * np.pi, self.n_params)
        # Uniform on the complex unit disk, independently per entry.
        radius = np.sqrt(rng.uniform(0.0, 1.0, self.rows.size))
        phase = rng.uniform(0.0, 2.0 * np.pi, self.rows.size)
        x = np.empty(self.n_params)
        x[0::2] = radius * np.cos(phase)
        x[1::2] = radius * np.sin(phase)
        return x

    def params_from_matrix(self, m: np.ndarray) -> np.ndarray:
        m = linalg.as_matrix(m)
        values = m[self.rows, self.cols]
        if self.kind == "unit-modulus":
            return np.angle(values)
        x = np.empty(self.n_params)
        x[0::2] = values.real
        x[1::2] = values.imag
        return x


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _combined_residual_vector(m: np.ndarray, signature: GybeSignature) -> np.ndarray:
    """Equation and unitarity residuals of each matrix of a stack, as
    interleaved real and imaginary parts."""
    batch = m.shape[:-2]
    eq = lifted_difference(m, signature)
    uni = m @ _dagger(m) - np.eye(m.shape[-1])
    return np.concatenate(
        [eq.reshape(*batch, -1), uni.reshape(*batch, -1)], axis=-1
    ).view(np.float64)


class _PatternResidual:
    """The search residual over a parameterization, with its exact Jacobian.

    The equation part F = LSL - SLS is holomorphic in R, so its derivative
    along the entry basis matrix E_k is dF_k = dL·S·L + L·dS·L + L·S·dL
    - dS·L·S - S·dL·S - S·L·dS with dL = E_k ⊗ I^l, dS = I^l ⊗ E_k.  For
    E_k = E_rc, dL has ones at (r·pad + a, c·pad + a) and dS at
    (a·n + r, a·n + c), a < pad, so each term X·dL·Y is the gathered product
    X[:, rows] @ Y[cols, :]; dF_k is one matmul of the six gathered pairs
    side by side, with inner size 6·pad.  The unitarity part U = RR† - I
    has derivative c·A_k + conj(c)·A_k† with A_k = E_k R†, whose one
    nonzero row r is row c of R†.  Parameter j moves entry k by the complex
    factor c_j, so its column is c_j times the entry derivatives.

    ``residual`` and ``jacobian`` take a 1-D parameter vector or a
    (k, params) stack, and return one residual vector or Jacobian per row.
    """

    def __init__(self, param: _Parameterization, signature: GybeSignature):
        self.param = param
        self.signature = signature
        self.pad = pad = signature.d**signature.l
        n = param.pattern.size
        side = n * pad
        a = np.arange(pad)
        rows, cols = param.rows[:, None], param.cols[:, None]
        l_rows, l_cols = rows * pad + a, cols * pad + a
        s_rows, s_cols = a * n + rows, a * n + cols
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
        self.eye = np.eye(side)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return _combined_residual_vector(self.param.build(x), self.signature)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        m = self.param.build(x)
        batch, n = m.shape[:-2], m.shape[-1]
        left, right = lift_pair(m, self.pad)
        lr, rl = left @ right, right @ left
        eye = np.broadcast_to(self.eye, left.shape)
        # Columns of the X blocks are gathered as rows of their transposes.
        xs_t = np.concatenate([eye, left, lr, right, rl], axis=-1).swapaxes(-1, -2)
        ys = np.concatenate([rl, left, eye, -lr, -right, -eye], axis=-2)
        d_eq = np.take(xs_t, self.x_index, axis=-2).swapaxes(-1, -2) @ np.take(
            ys, self.y_index, axis=-2
        )
        count, side = d_eq.shape[-3], d_eq.shape[-1]
        eq_size = side * side
        a_rows = np.zeros(batch + (count, n, n), dtype=np.complex128)
        a_rows[..., np.arange(count), self.param.rows, :] = _dagger(m)[..., self.param.cols, :]

        # Column (k, j) is c_kj·dF_k, then c_kj·A_k + conj(c_kj)·A_k†.
        c = self.param.coefficients(x)[..., None]
        per_entry = self.param.per_entry
        columns = np.empty(batch + (count, per_entry, eq_size + n * n), dtype=np.complex128)
        np.multiply(c, d_eq.reshape(batch + (count, 1, eq_size)), out=columns[..., :eq_size])
        d_uni = c[..., None] * a_rows[..., None, :, :]
        columns[..., eq_size:] = (d_uni + _dagger(d_uni)).reshape(batch + (count, per_entry, -1))
        jac_t = columns.reshape(batch + (self.param.n_params, -1)).view(np.float64)
        return jac_t.swapaxes(-1, -2)


def gybe_objective(
    matrix: np.ndarray, pattern: ZeroPattern, signature: GybeSignature
) -> float:
    """Squared equation residual plus squared unitarity defect.

    Zero exactly on unitary solutions.  The candidate must respect the
    pattern: masked-out entries are required to be exactly zero.
    """
    m = linalg.as_matrix(matrix)
    if pattern.size != signature.matrix_size:
        raise ValueError(
            f"pattern size {pattern.size} does not match signature {signature}"
        )
    if not pattern.accepts(m):
        raise ValueError("candidate has nonzero entries outside the pattern")
    vec = _combined_residual_vector(m, signature)
    return float(np.dot(vec, vec))


def dedup_key(matrix: np.ndarray) -> str:
    """Scalar-gauge-normalized conjugacy key.

    The global phase is removed using the first significant entry, then the
    key collects eigenvalue multisets rounded at 1e-6: of the whole matrix,
    and of the two diagonal 4x4 blocks plus the beta/alpha-style entry
    ratio when the 8x8 block structure applies.
    """
    m = linalg.as_matrix(matrix).copy()
    flat = m.reshape(-1)
    significant = np.abs(flat) > 1e-8
    if significant.any():
        pivot = flat[int(np.argmax(significant))]
        m = m * (abs(pivot) / pivot)

    def rounded(values) -> tuple:
        return tuple(
            (round(v.real, 6) + 0.0, round(v.imag, 6) + 0.0)
            for v in linalg.sort_eigenvalues(values)
        )

    parts = [("spectrum", rounded(linalg.eigenvalues(m)))]
    if m.shape == (8, 8):
        x, y = split_blocks(m)
        off = max(linalg.max_abs(m[:4, 4:]), linalg.max_abs(m[4:, :4]))
        if off <= 1e-8:
            parts.append(("x", rounded(linalg.eigenvalues(x))))
            parts.append(("y", rounded(linalg.eigenvalues(y))))
            b_p, b_q = x[0, 2], x[1, 3]
            if abs(b_p) > 1e-6:
                ratio = b_q / b_p
                parts.append(("ratio", (round(ratio.real, 6) + 0.0, round(ratio.imag, 6) + 0.0)))
    return repr(parts)


def solve_pattern(
    pattern: ZeroPattern,
    signature: GybeSignature,
    config: SearchConfig,
    initial: np.ndarray | None = None,
) -> SearchResult:
    """Run independent restarts and return certified, deduplicated solutions.

    Deterministic for a fixed config: restart k draws from a stream seeded
    by (seed, k).  ``initial`` seeds restart 0 from a given matrix instead
    of a random point.  Candidates whose final objective is at most
    tolerance^2 are re-verified with the exact equation and unitarity
    checks at 10x tolerance before being reported.
    """
    if pattern.size != signature.matrix_size:
        raise ValueError(
            f"pattern size {pattern.size} does not match signature {signature}"
        )
    if pattern.size > 16:
        raise ValueError("pattern search is scoped to sizes up to 16")
    param = _Parameterization(pattern, config.parameterization)
    problem = _PatternResidual(param, signature)
    objective_tol = config.tolerance**2

    starts = [
        param.params_from_matrix(initial)
        if restart == 0 and initial is not None
        else param.initial(np.random.default_rng([config.seed, restart]))
        for restart in range(config.restarts)
    ]
    fits = solve_stack(
        problem.residual,
        np.stack(starts),
        jacobian_fn=problem.jacobian,
        objective_tol=objective_tol,
        max_iterations=config.max_iterations,
    )

    solutions: list[FoundSolution] = []
    dedup_counts: dict[str, int] = {}
    reports: list[RestartReport] = []
    for restart, fit in enumerate(fits):
        certified = _certify(fit, param, signature, config.tolerance, restart)
        reports.append(
            RestartReport(
                fit.reason,
                fit.iterations,
                fit.residual_evals,
                fit.jacobian_evals,
                certified is not None,
            )
        )
        if certified is None:
            continue
        r, residual = certified
        key = dedup_key(r.matrix)
        dedup_counts[key] = dedup_counts.get(key, 0) + 1
        if dedup_counts[key] == 1:
            solutions.append(
                FoundSolution(r, residual, fit.objective, restart, key)
            )

    return SearchResult(
        solutions=tuple(solutions),
        traces=tuple(fit.trace for fit in fits),
        # Starting from inf, min passes over NaN objectives.
        best_objective=float(min(np.inf, *(fit.objective for fit in fits))),
        dedup_counts=dedup_counts,
        restarts=tuple(reports),
    )


def _certify(
    fit: LeastSquaresResult,
    param: _Parameterization,
    signature: GybeSignature,
    tolerance: float,
    restart: int,
) -> tuple[RMatrix, float] | None:
    """(RMatrix, residual) when a fit passes the exact checks at 10x tolerance, else None."""
    # Both gates are written so that a NaN fails them.
    if not fit.objective <= tolerance**2:
        return None
    candidate = param.build(fit.x)
    try:
        r = RMatrix(signature, candidate, f"search:restart{restart}")
    except linalg.SingularMatrixError:
        return None
    residual = max(
        gybe_residual(candidate, signature),
        linalg.unitarity_residual(candidate),
    )
    if not residual <= 10.0 * tolerance:
        return None
    return r, residual
