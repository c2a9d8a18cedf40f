"""Numerical discovery of unitary solutions with a prescribed zero pattern.

Candidates are matrices whose entries are free only where a boolean mask
allows them.  The objective is the squared Frobenius weight of the equation
residual plus the squared Frobenius weight of the unitarity defect; it
vanishes exactly on unitary solutions.  The least-squares problem lives in
:mod:`gybe.pattern_residual`: it keeps only the residual rows the pattern can
make nonzero (on the 8x8 two-block pattern, 160 of 640 real rows; the
others are exactly zero at every point), with exact normal equations.
Independent damped least-squares restarts minimize it from random starting
points, solved together as one stack by :func:`gybe.optimize.solve_stack`;
a restart whose objective stops falling leaves the stack with reason
``plateau`` instead of running out the iteration budget.  Converged
candidates are certified against the exact checks, and duplicates are
folded together by scalar-gauge-normalized conjugacy invariants (their
text keys hold plain floats, rounded by one ``np.round`` per part).  Each
restart reports why it stopped, what it evaluated, its objective trace and,
if certified, its class's key; the result adds the live and total residual rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import GybeSignature, RMatrix, gybe_residual
from .optimize import LeastSquaresResult, solve_stack
from .pattern_residual import _combined_residual_vector, _PatternResidual
from .solutions import BLOCK_SUPPORT, _block_entries, split_blocks


@dataclass(frozen=True, eq=False)
class ZeroPattern:
    """Square boolean mask of the entries allowed to be nonzero."""

    mask: np.ndarray

    def __post_init__(self):
        mask = linalg.frozen(np.asarray(self.mask, dtype=bool))
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError(f"a pattern mask must be square, got shape {mask.shape}")
        object.__setattr__(self, "mask", mask)

    @property
    def size(self) -> int:
        return self.mask.shape[0]

    @property
    def free_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def accepts(self, m: np.ndarray) -> bool:
        """True when every masked-out entry of ``m`` is zero.  ``m`` passes
        :func:`~gybe.linalg.square_matrix` as the candidate, and one of
        another side is a ValueError, not a violation."""
        m = linalg.square_matrix(m, "candidate")
        if len(m) != self.size:
            raise ValueError(f"candidate side {len(m)} does not match pattern size {self.size}")
        return not m[~self.mask].any()

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
        return ZeroPattern(mask)

    @staticmethod
    def from_json_dict(data: dict) -> "ZeroPattern":
        """Decode a pattern's JSON object: an integer ``size`` and a ``mask`` of that many
        rows of that many JSON booleans; numbers and strings numpy would coerce are malformed."""
        try:
            size, mask = data["size"], data["mask"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed pattern JSON: {exc}") from exc
        if type(mask) is not list or not all(
            type(row) is list and all(type(v) is bool for v in row) for row in mask
        ):
            raise ValueError("malformed pattern JSON: mask must be rows of true/false")
        size = linalg.count(size, "size", 1)
        if len(mask) != size or any(len(row) != size for row in mask):
            raise ValueError(f"malformed pattern JSON: mask must be {size} rows of {size} entries")
        return ZeroPattern(np.array(mask, dtype=bool))


def load_pattern_text(text: str) -> ZeroPattern:
    """Parse a pattern from either the JSON object form or the 0/1 grid form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return ZeroPattern.from_json_dict(json.loads(text))
    return ZeroPattern.from_text(text)


def rowell_pattern() -> ZeroPattern:
    """The two-block zero pattern shared by all 8x8 solutions in the registry."""
    return ZeroPattern(BLOCK_SUPPORT)


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for one search run."""

    tolerance: float = 1e-11
    restarts: int = 16
    seed: int = 0
    max_iterations: int = 250

    def __post_init__(self):
        tol = linalg.tolerance(self.tolerance)
        object.__setattr__(self, "tolerance", tol)
        if not tol > 0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        if not 0 < tol * tol < np.inf:  # a search converges on objective <= tolerance**2
            raise ValueError(f"tolerance**2 must be a positive finite float, got {tol}")
        for name, minimum in (("restarts", 1), ("seed", 0), ("max_iterations", 1)):
            object.__setattr__(self, name, linalg.count(getattr(self, name), name, minimum))


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
    """Why one restart stopped, what it evaluated, its trace, and its dedup key if certified, else None."""

    reason: str
    iterations: int
    residual_evals: int
    trace: tuple[float, ...]
    dedup_key: str | None

    @property
    def certified(self) -> bool:
        return self.dedup_key is not None

    def to_json_dict(self) -> dict:
        names = ("reason", "iterations", "residual_evals", "certified")
        return {name: getattr(self, name) for name in names}


@dataclass(frozen=True)
class SearchResult:
    """The solution classes, one report per restart, and the real residual rows
    the solver worked on and of the full residual; the rest is read from these."""

    solutions: tuple[FoundSolution, ...]
    restarts: tuple[RestartReport, ...]
    live_residual_rows: int
    total_residual_rows: int

    @property
    def traces(self) -> tuple[tuple[float, ...], ...]:
        return tuple(report.trace for report in self.restarts)

    @property
    def dedup_counts(self) -> dict[str, int]:
        """Certified restarts per solution class, by dedup key in first-hit
        order: a fresh dict on each read."""
        keys = [report.dedup_key for report in self.restarts if report.certified]
        return {key: keys.count(key) for key in dict.fromkeys(keys)}

    @property
    def best_objective(self) -> float:
        """The smallest final objective of the restarts; inf for none, and a NaN is passed over."""
        return float(min([np.inf, *(report.trace[-1] for report in self.restarts)]))


def gybe_objective(
    matrix: np.ndarray, pattern: ZeroPattern, signature: GybeSignature
) -> float:
    """Squared equation residual plus squared unitarity defect.

    Zero exactly on unitary solutions.  The candidate must be finite, of the
    pattern's side, and zero exactly at the entries the pattern masks out.
    """
    if not signature.has_side(pattern.size):
        raise ValueError(
            f"pattern size {pattern.size} does not match signature {signature}"
        )
    if not pattern.accepts(matrix):
        raise ValueError("candidate has nonzero entries outside the pattern")
    vec = _combined_residual_vector(np.asarray(matrix, dtype=np.complex128), signature)
    return float(np.dot(vec, vec))


def dedup_key(matrix: np.ndarray) -> str:
    """Scalar-gauge-normalized conjugacy key.

    The global phase is removed using the first significant entry, then the
    key collects eigenvalue multisets rounded at 1e-6: of the whole matrix,
    and of the two diagonal 4x4 blocks plus the beta/alpha-style entry
    ratio when the matrix reads as X (+) Y at 1e-8.  The key is the ``repr`` of
    those parts as plain Python floats, the same text under every numpy
    version.
    """
    m = linalg.square_matrix(matrix, "dedup key input")
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
    try:
        _, (b_p, b_q), *_ = _block_entries(m, 1e-8)
    except ValueError:  # not an 8x8 matrix in block form: the spectrum alone
        return repr(parts)
    parts += [(name, rounded(linalg.eigenvalues(q))) for name, q in zip("xy", split_blocks(m))]
    if abs(b_p) > 1e-6:
        parts.append(("ratio", rounded(b_q / b_p)[0]))
    return repr(parts)


def solve_pattern(
    pattern: ZeroPattern, signature: GybeSignature, config: SearchConfig
) -> SearchResult:
    """Run independent restarts and return certified, deduplicated solutions.

    Deterministic for a fixed config: restart k starts from a random point
    drawn from a stream seeded by (seed, k).  Candidates whose final
    objective is at most tolerance^2 are re-verified with the exact
    equation and unitarity checks at 10x tolerance before being reported.
    """
    if pattern.size > 16:
        raise ValueError("pattern search is scoped to sizes up to 16")
    if pattern.free_count == 0:
        raise ValueError("the pattern is empty: it has no free entry to search over")
    problem = _PatternResidual(pattern, signature)  # checks the size and the dense cap
    objective_tol = config.tolerance**2

    starts = [problem.initial(np.random.default_rng([config.seed, k])) for k in range(config.restarts)]
    fits = solve_stack(
        problem.residual,
        np.stack(starts),
        normal_fn=problem.normal,
        objective_tol=objective_tol,
        max_iterations=config.max_iterations,
    )

    solutions: list[FoundSolution] = []
    reports: list[RestartReport] = []
    for restart, fit in enumerate(fits):
        certified = _certify(fit, problem, config.tolerance, restart)
        key = None if certified is None else dedup_key(certified[0].matrix)
        if key is not None and all(found.dedup_key != key for found in solutions):
            solutions.append(FoundSolution(*certified, fit.objective, restart, key))
        reports.append(RestartReport(fit.reason, fit.iterations, fit.residual_evals, fit.trace, key))
    return SearchResult(tuple(solutions), tuple(reports), problem.live_rows.size, problem.total_rows)


def _certify(
    fit: LeastSquaresResult,
    problem: _PatternResidual,
    tolerance: float,
    restart: int,
) -> tuple[RMatrix, float] | None:
    """(RMatrix, residual) when a converged fit passes the exact checks at
    10x tolerance, else None; the solver has already tested its objective
    against tolerance**2."""
    if not fit.converged:
        return None
    try:
        r = RMatrix(problem.signature, problem.build(fit.x), f"search:restart{restart}")
    except linalg.SingularMatrixError:
        return None
    residual = max(gybe_residual(r.matrix, r.signature), linalg.unitarity_residual(r.matrix))
    if not residual <= 10.0 * tolerance:  # a NaN fails it
        return None
    return r, residual
