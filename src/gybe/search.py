"""Numerical discovery of unitary solutions with a prescribed zero pattern.

Candidates are matrices whose entries are free only where a boolean mask
allows them.  The objective is the squared Frobenius weight of the equation
residual plus the squared Frobenius weight of the unitarity defect; it
vanishes exactly on unitary solutions.  The least-squares problem lives in
:mod:`gybe.pattern_residual`: it keeps only the residual rows the pattern can
make nonzero (on the 8x8 two-block pattern, 160 of 640 real rows; the
others are exactly zero at every point), with an exact Jacobian.
Independent damped least-squares restarts minimize it from random starting
points, solved together as one stack by :func:`gybe.optimize.solve_stack`;
a restart whose objective stops falling leaves the stack with reason
``plateau`` instead of running out the iteration budget.  Converged
candidates are certified against the exact checks, and duplicates are
folded together by scalar-gauge-normalized conjugacy invariants (their
text keys hold plain floats, rounded by one ``np.round`` per part).  Each
restart reports why it stopped, what it evaluated and whether it was
certified; the result also reports the live and total residual rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .core import GybeSignature, RMatrix, gybe_residual
from .optimize import LeastSquaresResult, solve_stack
from .pattern_residual import _combined_residual_vector, _PatternResidual
from .solutions import split_blocks


@dataclass(frozen=True)
class ZeroPattern:
    """Boolean mask of the entries allowed to be nonzero."""

    size: int
    mask: np.ndarray

    def __post_init__(self):
        mask = linalg.frozen(np.asarray(self.mask, dtype=bool))
        if mask.shape != (self.size, self.size):
            raise ValueError(
                f"mask shape {mask.shape} does not match size {self.size}"
            )
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
        if not np.all(np.isfinite(m)):
            raise ValueError("pattern source must have finite entries")
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

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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
    # Real residual rows the solver worked on, and of the full residual.
    live_residual_rows: int = 0
    total_residual_rows: int = 0

    def to_json_list(self) -> list:
        return [s.to_json_dict() for s in self.solutions]


def gybe_objective(
    matrix: np.ndarray, pattern: ZeroPattern, signature: GybeSignature
) -> float:
    """Squared equation residual plus squared unitarity defect.

    Zero exactly on unitary solutions.  The candidate must be finite and
    respect the pattern: masked-out entries are required to be exactly zero.
    """
    m = linalg.as_matrix(matrix)
    if not signature.has_side(pattern.size):
        raise ValueError(
            f"pattern size {pattern.size} does not match signature {signature}"
        )
    if not np.all(np.isfinite(m)):
        raise ValueError("candidate must have finite entries")
    if not pattern.accepts(m):
        raise ValueError("candidate has nonzero entries outside the pattern")
    vec = _combined_residual_vector(m, signature)
    return float(np.dot(vec, vec))


def dedup_key(matrix: np.ndarray) -> str:
    """Scalar-gauge-normalized conjugacy key.

    The global phase is removed using the first significant entry, then the
    key collects eigenvalue multisets rounded at 1e-6: of the whole matrix,
    and of the two diagonal 4x4 blocks plus the beta/alpha-style entry
    ratio when the 8x8 block structure applies.  The key is the ``repr`` of
    those parts as plain Python floats, the same text under every numpy
    version.
    """
    m = linalg.as_matrix(matrix).copy()
    flat = m.reshape(-1)
    significant = np.abs(flat) > 1e-8
    if significant.any():
        pivot = flat[int(np.argmax(significant))]
        m = m * (abs(pivot) / pivot)

    def rounded(values) -> tuple:
        # (re, im) pairs at 1e-6 as plain floats; + 0.0 turns -0.0 into 0.0.
        # linalg.eigenvalues returns them in canonical order.
        pairs = np.asarray(values, dtype=np.complex128).reshape(-1, 1).view(np.float64)
        return tuple(map(tuple, (np.round(pairs, 6) + 0.0).tolist()))

    parts = [("spectrum", rounded(linalg.eigenvalues(m)))]
    if m.shape == (8, 8):
        x, y = split_blocks(m)
        off = max(linalg.max_abs(m[:4, 4:]), linalg.max_abs(m[4:, :4]))
        if off <= 1e-8:
            parts.append(("x", rounded(linalg.eigenvalues(x))))
            parts.append(("y", rounded(linalg.eigenvalues(y))))
            b_p, b_q = x[0, 2], x[1, 3]
            if abs(b_p) > 1e-6:
                parts.append(("ratio", rounded(b_q / b_p)[0]))
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
    if pattern.size > 16:
        raise ValueError("pattern search is scoped to sizes up to 16")
    if pattern.free_count == 0:
        raise ValueError("the pattern is empty: it has no free entry to search over")
    problem = _PatternResidual(pattern, signature)  # checks the size and the dense cap
    objective_tol = config.tolerance**2

    starts = [
        problem.params_from_matrix(initial)
        if restart == 0 and initial is not None
        else problem.initial(np.random.default_rng([config.seed, restart]))
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
        certified = _certify(fit, problem, config.tolerance, restart)
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
        live_residual_rows=problem.live_rows.size,
        total_residual_rows=problem.total_rows,
    )


def _certify(
    fit: LeastSquaresResult,
    problem: _PatternResidual,
    tolerance: float,
    restart: int,
) -> tuple[RMatrix, float] | None:
    """(RMatrix, residual) when a fit passes the exact checks at 10x tolerance, else None."""
    # Both gates are written so that a NaN fails them.
    if not fit.objective <= tolerance**2:
        return None
    candidate, signature = problem.build(fit.x), problem.signature
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
