"""Numerical discovery of unitary solutions with a prescribed zero pattern.

Candidates are matrices whose entries are free only where a boolean mask
allows them.  The objective is the squared Frobenius weight of the equation
residual plus the squared Frobenius weight of the unitarity defect; it
vanishes exactly on unitary solutions.  Independent damped least-squares
restarts minimize it from random starting points, converged candidates are
certified against the exact checks, and duplicates are folded together by
scalar-gauge-normalized conjugacy invariants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .core import GybeSignature, RMatrix, gybe_residual, lift_pair, lifted_difference
from .optimize import damped_least_squares
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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
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
class SearchResult:
    solutions: tuple[FoundSolution, ...]
    traces: tuple[tuple[float, ...], ...]
    best_objective: float
    dedup_counts: dict[str, int] = field(default_factory=dict)

    def to_json_list(self) -> list:
        return [s.to_json_dict() for s in self.solutions]


class _Parameterization:
    """Maps a real parameter vector onto the masked entries of a matrix."""

    def __init__(self, pattern: ZeroPattern, kind: str):
        self.pattern = pattern
        self.kind = kind
        self.rows, self.cols = np.nonzero(pattern.mask)
        if kind == "unit-modulus":
            # Phases only; moduli fixed so each fully-occupied row can have
            # unit norm (1/sqrt of the row's allowed-entry count).
            counts = pattern.mask.sum(axis=1)
            self.scales = 1.0 / np.sqrt(np.maximum(counts[self.rows], 1))
            self.n_params = self.rows.size
            self.entries = np.arange(self.rows.size)
        else:
            self.scales = None
            self.n_params = 2 * self.rows.size
            self.entries = np.repeat(np.arange(self.rows.size), 2)

    def build(self, x: np.ndarray) -> np.ndarray:
        m = np.zeros((self.pattern.size, self.pattern.size), dtype=np.complex128)
        if self.kind == "unit-modulus":
            m[self.rows, self.cols] = self.scales * np.exp(1j * x)
        else:
            m[self.rows, self.cols] = x[0::2] + 1j * x[1::2]
        return m

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """d(entry)/d(parameter) for each parameter, at ``x``.

        Parameter j moves only entry ``entries[j]``, by this complex factor.
        """
        if self.kind == "unit-modulus":
            return 1j * self.scales * np.exp(1j * x)
        return np.tile([1.0, 1.0j], self.rows.size)

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


def _combined_residual_vector(m: np.ndarray, signature: GybeSignature) -> np.ndarray:
    eq = lifted_difference(m, signature)
    uni = m @ linalg.dagger(m) - linalg.identity(m.shape[0])
    return np.concatenate(
        [eq.real.ravel(), eq.imag.ravel(), uni.real.ravel(), uni.imag.ravel()]
    )


class _PatternResidual:
    """The search residual over a parameterization, with its exact Jacobian.

    The equation part F = LSL - SLS is holomorphic in R, so its derivative
    along the entry basis matrix E_k is dF_k = dL·S·L + L·dS·L + L·S·dL
    - dS·L·S - S·dL·S - S·L·dS with dL = E_k ⊗ I^l, dS = I^l ⊗ E_k.  The
    unitarity part U = RR† - I has derivative c·A_k + conj(c)·A_k† with
    A_k = E_k R†.  Parameter j moves entry k by the complex factor c_j, so
    its column is c_j times the entry derivatives.  The lifted basis is
    built once and reused at every point.
    """

    def __init__(self, param: _Parameterization, signature: GybeSignature):
        self.param = param
        self.signature = signature
        self.pad = signature.d**signature.l
        count, n = param.rows.size, param.pattern.size
        basis = np.zeros((count, n, n), dtype=np.complex128)
        basis[np.arange(count), param.rows, param.cols] = 1.0
        self.basis = basis
        self.basis_left, self.basis_right = lift_pair(basis, self.pad)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return _combined_residual_vector(self.param.build(x), self.signature)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        m = self.param.build(x)
        left, right = lift_pair(m, self.pad)
        lr, rl = left @ right, right @ left
        dl, ds = self.basis_left, self.basis_right
        d_eq = (
            dl @ rl + left @ ds @ left + lr @ dl
            - ds @ lr - right @ dl @ right - rl @ ds
        )
        d_uni = self.basis @ linalg.dagger(m)
        c = self.param.coefficients(x)[:, None, None]
        entries = self.param.entries
        d_eq = c * d_eq[entries]
        d_uni = c * d_uni[entries]
        d_uni = d_uni + d_uni.conj().transpose(0, 2, 1)
        count = entries.size
        columns = np.concatenate(
            [
                d_eq.real.reshape(count, -1),
                d_eq.imag.reshape(count, -1),
                d_uni.real.reshape(count, -1),
                d_uni.imag.reshape(count, -1),
            ],
            axis=1,
        )
        return columns.T


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

    solutions: list[FoundSolution] = []
    traces: list[tuple[float, ...]] = []
    dedup_counts: dict[str, int] = {}
    best_objective = np.inf

    for restart in range(config.restarts):
        if restart == 0 and initial is not None:
            x0 = param.params_from_matrix(initial)
        else:
            rng = np.random.default_rng([config.seed, restart])
            x0 = param.initial(rng)
        fit = damped_least_squares(
            problem.residual,
            x0,
            jacobian_fn=problem.jacobian,
            objective_tol=objective_tol,
            max_iterations=config.max_iterations,
        )
        traces.append(fit.trace)
        best_objective = min(best_objective, fit.objective)
        # Both gates are written so that a NaN fails them.
        if not fit.objective <= objective_tol:
            continue
        candidate = param.build(fit.x)
        try:
            r = RMatrix(signature, candidate, f"search:restart{restart}")
        except linalg.SingularMatrixError:
            continue
        residual = max(
            gybe_residual(candidate, signature),
            linalg.unitarity_residual(candidate),
        )
        if not residual <= 10.0 * config.tolerance:
            continue
        key = dedup_key(candidate)
        dedup_counts[key] = dedup_counts.get(key, 0) + 1
        if dedup_counts[key] == 1:
            solutions.append(
                FoundSolution(r, residual, fit.objective, restart, key)
            )

    return SearchResult(
        solutions=tuple(solutions),
        traces=tuple(traces),
        best_objective=float(best_objective),
        dedup_counts=dedup_counts,
    )
