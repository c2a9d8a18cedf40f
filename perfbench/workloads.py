"""Seeded inputs for the four workloads, and the calls that run them.

Each workload is a fixed cycle of op kinds; the seed draws only the values
inside each op (angles, gauge parameters, words, states), so two seeds run
the same mix of work on different data.  On search the seed draws only the
order of a fixed batch of calls (see ``SEARCH_CALLS``).  ``generate`` builds a
pool of whole cycles up front, plus the files some ops read; the run walks
the pool in order and wraps around when it is used up.

Generation uses numpy and the reference formulas in :mod:`checker` only;
the program under test receives nothing but the generated argv, files and
arguments.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import checker

WORKLOADS = ("search", "equiv", "braid", "verify")

# Settings of `gybe search` except the restart count: four restarts per call
# keep the op count per run useful and still leave a batch per call.
SEARCH_TOLERANCE = 1e-11
SEARCH_RESTARTS = 4
SEARCH_MAX_ITERATIONS = 250
# One cycle of search is the same 16 calls, at search seeds 0 to 15, in an
# order the workload seed draws.  A call's cost is set by how many of its
# restarts exhaust the iteration budget (about one in eight, and most of the
# time); over eight seeds, seed-drawn batches of the ~60 restarts that fit
# in a run spread by 39 % in calls per second, so every run solves the same
# batch instead.
SEARCH_CALLS = 16

EQUIV_CYCLE = ("hit", "miss", "hit", "miss", "hit", "miss", "rowell")
BRAID_STRANDS = (4, 5, 6, 7, 8)
BRAID_KINDS = ("json", "compare", "state")
BRAID_RELATIONS = ("braid", "inverse", "far", "adjacent", "cancel")
VERIFY_CYCLE = ("verify", "verify-family", "verify-matrix", "classify", "family", "registry")
VERIFY_GRID = tuple(math.pi * j / 32 for j in range(33))
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Whole cycles generated per run; the loop wraps around after the last one.
POOL_CYCLES = {"search": 1, "equiv": 16, "braid": 8, "verify": 32}
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass
class Inputs:
    cycle_len: int
    ops: list[dict]
    files: dict[str, str] = field(default_factory=dict)


def _unit(phase: float) -> str:
    return f"{math.cos(phase)!r},{math.sin(phase)!r}"


def _family_id(family: int, alpha_phase: float, beta_phase: float) -> str:
    return f"family{family}:alpha={_unit(alpha_phase)}:beta={_unit(beta_phase)}"


def _equiv_op(kind: str, family: int, rng: np.random.Generator, spacing: float) -> dict:
    """``spacing`` in [0, 1) places a miss's ratio gap within its range."""
    if kind == "rowell":
        return {"kind": "equiv", "source": f"family1:theta={math.pi / 2!r}", "target": "rowell", "hit": True}
    a1, a2, ratio = rng.uniform(0.0, 2.0 * math.pi, 3)
    other = ratio
    if kind == "miss":
        # Keep beta/alpha away from equal and from opposite: family 1 members
        # with opposite ratios are gauge equivalent through the scalar.
        gap = 0.5 + (math.pi - 1.0) * spacing
        other = ratio + rng.choice((-1.0, 1.0)) * gap
    return {
        "kind": "equiv",
        "source": _family_id(family, a1, a1 + ratio),
        "target": _family_id(family, a2, a2 + other),
        "hit": kind == "hit",
    }


def _random_letters(rng: np.random.Generator, n: int, count: int) -> tuple[int, ...]:
    gens = rng.integers(1, n, count)
    signs = rng.choice((-1, 1), count)
    return tuple(int(g * s) for g, s in zip(gens, signs))


def _relation(kind: str, n: int, rng: np.random.Generator) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if kind == "braid":
        i = int(rng.integers(1, n - 1))
        return (i, i + 1, i), (i + 1, i, i + 1)
    if kind == "far":
        i = int(rng.integers(1, n - 2))
        j = int(rng.integers(i + 2, n))
        return (i, j), (j, i)
    if kind == "cancel":
        i = int(rng.integers(1, n))
        return (i, -i), ()
    if kind == "inverse":
        i = int(rng.integers(1, n))
        return (i,), (-i,)
    i = int(rng.integers(1, n - 1))
    return (i, i + 1), (i + 1, i)


def _word(n: int, letters) -> str:
    return f"n={n}: " + ",".join(str(v) for v in letters)


def _braid_ops(cycle: int, rng: np.random.Generator, files: dict) -> list[dict]:
    ops = []
    for n in BRAID_STRANDS:
        for kind in BRAID_KINDS:
            if rng.random() < 0.25:
                solution = "rowell"
            else:
                solution = f"family{int(rng.integers(1, 4))}:theta={float(rng.uniform(0.0, math.pi))!r}"
            op = {"kind": kind, "solution": solution, "n": n}
            if kind == "compare":
                relation = BRAID_RELATIONS[(cycle + n) % len(BRAID_RELATIONS)]
                lhs, rhs = _relation(relation, n, rng)
                u, v = _random_letters(rng, n, 3), _random_letters(rng, n, 3)
                op.update(relation=relation, word=_word(n, u + lhs + v), other=_word(n, u + rhs + v))
                op["argv"] = ["braid", "--solution", solution, "--word", op["word"], "--compare", op["other"]]
            else:
                op["word"] = _word(n, _random_letters(rng, n, 8))
                op["argv"] = ["braid", "--solution", solution, "--word", op["word"], "--json"]
                if kind == "state":
                    dim = 2 ** (n + 1)
                    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                    amps /= np.linalg.norm(amps)
                    name = f"state-{cycle}-{n}.json"
                    files[name] = checker.matrix_to_json(amps.reshape(-1, 1))
                    op.update(state=name)
                    op["argv"] = ["braid", "--solution", solution, "--word", op["word"], "--state", name]
            ops.append(op)
    return ops


def _verify_ops(cycle: int, rng: np.random.Generator, files: dict) -> list[dict]:
    family = cycle % 3 + 1
    named = tuple(checker.REGISTRY)[cycle % len(checker.REGISTRY)]
    theta = float(rng.choice(VERIFY_GRID))
    family_id = f"family{family}:theta={theta!r}"
    alpha, beta, _ = rng.uniform(0.0, 2.0 * math.pi, 3)
    noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    perturbed = checker.family_matrix(family, np.exp(1j * alpha), np.exp(1j * beta)) + 1e-3 * noise
    name = f"perturbed-{cycle}.json"
    files[name] = checker.matrix_to_json(perturbed)
    classify_id = family_id if cycle % 2 else f"base{family}"
    ops = {
        "verify": {"solution": named, "exit": 0, "argv": ["verify", "--solution", named, "--json"]},
        "verify-family": {"solution": family_id, "exit": 0, "argv": ["verify", "--solution", family_id, "--json"]},
        "verify-matrix": {"matrix": name, "exit": 1, "argv": ["verify", "--matrix", name, "--json"]},
        "classify": {"solution": classify_id, "exit": 0, "argv": ["classify", "--solution", classify_id]},
        "family": {
            "solution": family_id,
            "exit": 0,
            "argv": ["family", "--family", str(family), "--theta", repr(theta), "--json"],
        },
        "registry": {"exit": 0, "argv": ["registry", "--json"]},
    }
    out = []
    for kind in VERIFY_CYCLE:
        op = ops[kind]
        op["kind"] = kind.split("-")[0]
        out.append(op)
    return out


def generate(workload: str, seed: int) -> Inputs:
    """Deterministic inputs for ``workload``: the same seed gives the same pool."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([int(seed), _STREAM[workload]])
    files: dict[str, str] = {}
    ops: list[dict] = []
    # A miss costs more the closer its two ratios are (up to 2.5x).  The
    # gaps follow a golden-ratio sequence from a seeded start, so every run
    # covers the range evenly and its mix of costs does not hang on the seed.
    spacing = float(rng.uniform()) if workload == "equiv" else 0.0
    for cycle in range(POOL_CYCLES[workload]):
        if workload == "search":
            ops.extend({"kind": "search", "seed": int(k)} for k in rng.permutation(SEARCH_CALLS))
        elif workload == "equiv":
            for i, kind in enumerate(EQUIV_CYCLE):
                if kind == "miss":
                    spacing = (spacing + GOLDEN) % 1.0
                op = _equiv_op(kind, i // 2 + 1, rng, spacing)
                op["argv"] = ["equiv", "--solution", op["source"], "--solution", op["target"], "--json"]
                ops.append(op)
        elif workload == "braid":
            ops.extend(_braid_ops(cycle, rng, files))
        else:
            ops.extend(_verify_ops(cycle, rng, files))
    cycle_len = len(ops) // POOL_CYCLES[workload]
    return Inputs(cycle_len, ops, files)


# --- running ops -------------------------------------------------------------------


@dataclass
class Outcome:
    """What one op returned: exit code and stdout, or a search result."""

    code: int = 0
    out: str = ""
    result: object = None
    error: str = ""


class Runner:
    """Issues ops against the program the way a user would.

    CLI ops go through the in-process ``gybe.cli.main(argv)``; search ops
    call the library entry points behind ``gybe search``.  Paths in argv are
    relative to ``workdir``.
    """

    def __init__(self, gybe, workdir):
        self.gybe = gybe
        self.workdir = workdir

    def search_call(self, seed: int):
        search = self.gybe.search
        config = search.SearchConfig(
            tolerance=SEARCH_TOLERANCE,
            restarts=SEARCH_RESTARTS,
            seed=seed,
            max_iterations=SEARCH_MAX_ITERATIONS,
        )
        return search.solve_pattern(search.rowell_pattern(), self.gybe.core.GybeSignature(2, 3, 1), config)

    def prepare(self, op: dict):
        """What ``run`` takes for ``op``: the search seed, or the argv with
        input file names resolved.  Not part of the op's measured time."""
        if op["kind"] == "search":
            return op["seed"]
        argv = list(op["argv"])
        for flag in ("--state", "--matrix"):
            if flag in argv:
                i = argv.index(flag) + 1
                argv[i] = str(self.workdir / argv[i])
        return argv

    def run(self, op: dict, prepared) -> Outcome:
        if op["kind"] == "search":
            return Outcome(result=self.search_call(prepared))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.gybe.cli.main(prepared)
        return Outcome(code=code, out=out.getvalue(), error=err.getvalue())


def search_record(result) -> dict:
    """Plain-data view of a SearchResult for the independent checker."""
    return {
        "solutions": [
            {
                "matrix": np.array(s.solution.matrix),
                "residual": float(s.residual),
                "restart": int(s.restart_index),
            }
            for s in result.solutions
        ],
        "dedup_counts": dict(result.dedup_counts),
        "traces": [tuple(t) for t in result.traces],
        "best_objective": float(result.best_objective),
    }


def check(op: dict, outcome: Outcome, inputs: Inputs) -> list[str]:
    """Problems with one op's outcome; empty when the output is correct."""
    if outcome.error.startswith("raised"):
        return [outcome.error]
    kind = op["kind"]
    if kind == "search":
        return checker.check_search(search_record(outcome.result), SEARCH_TOLERANCE, SEARCH_RESTARTS)
    if kind == "equiv":
        return checker.check_equiv(op, outcome.code, outcome.out)
    if kind in BRAID_KINDS:
        state = None
        if kind == "state":
            state = checker.matrix_from_json(json.loads(inputs.files[op["state"]])).reshape(-1)
        return checker.check_braid(op, outcome.code, outcome.out, state)
    matrix = None
    if "matrix" in op:
        matrix = checker.matrix_from_json(json.loads(inputs.files[op["matrix"]]))
    return checker.check_verify(op, outcome.code, outcome.out, matrix)
