"""The one tolerance gate, linalg.tolerance, at every public entry point that takes a tolerance."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from normal_equations import normal_equations

import gybe
from gybe import equivalence, linalg
from gybe.braiding import build_rep, recognize_braiding_gate
from gybe.core import CheckReport, GybeSignature, check_far_commutativity, check_gybe, check_ybe
from gybe.equivalence import decide_equivalence, search_equivalence, search_local_conjugation
from gybe.optimize import damped_least_squares, solve_stack
from gybe.search import SearchConfig, rowell_pattern, solve_pattern
from gybe.solutions import (
    BlockSolution,
    block_parameters,
    check_block_equations,
    check_param_constraints,
    classify_unitary_params,
    resolve_solution,
    rowell_solution,
    split_blocks,
)

TOLERANCE_PARAMETERS = {"tol", "tolerance", "objective_tol", "threshold"}

ROWELL = rowell_solution()
X, Y = split_blocks(ROWELL.matrix)
REP = build_rep(ROWELL, 3)


def _line(x):
    return x - 1.0


def _eye(x):
    """The Jacobian of :func:`_line`, for one point or a (rows, params) stack of them."""
    return np.broadcast_to(np.eye(x.shape[-1]), x.shape + x.shape[-1:])


_normal = normal_equations(_eye)


# One valid call per public callable with a tolerance parameter, taking the tolerance.
CALLS = {
    "gybe.braiding.build_rep": lambda tol: build_rep(ROWELL, 3, tol),
    "gybe.braiding.recognize_braiding_gate": lambda tol: recognize_braiding_gate(REP, REP.generator(1), tol),
    "gybe.core.CheckReport": lambda tol: CheckReport((0.0,), tol),
    "gybe.core.check_far_commutativity": lambda tol: check_far_commutativity(ROWELL, tol),
    "gybe.core.check_gybe": lambda tol: check_gybe(ROWELL, tol),
    "gybe.core.check_ybe": lambda tol: check_ybe(np.eye(4), tol),
    "gybe.equivalence.decide_equivalence": lambda tol: decide_equivalence(ROWELL, ROWELL, tol=tol),
    "gybe.equivalence.search_equivalence": lambda tol: search_equivalence(ROWELL, ROWELL, tol=tol),
    "gybe.equivalence.search_local_conjugation": lambda tol: search_local_conjugation(ROWELL, ROWELL, tol=tol),
    "gybe.optimize.damped_least_squares": lambda tol: damped_least_squares(
        _line, np.zeros(2), normal_fn=_normal, objective_tol=tol
    ),
    "gybe.optimize.solve_stack": lambda tol: solve_stack(_line, np.zeros((2, 2)), normal_fn=_normal, objective_tol=tol),
    "gybe.search.SearchConfig": lambda tol: SearchConfig(tolerance=tol),
    "gybe.search.ZeroPattern.accepts": lambda tol: rowell_pattern().accepts(ROWELL.matrix, tol),
    "gybe.solutions.BlockSolution.from_matrices": lambda tol: BlockSolution.from_matrices(X, Y, tol),
    "gybe.solutions.block_parameters": lambda tol: block_parameters(ROWELL.matrix, tol),
    "gybe.solutions.check_block_equations": lambda tol: check_block_equations(X, Y, tol),
    "gybe.solutions.check_param_constraints": lambda tol: check_param_constraints(1j, 1j, 1, tol),
    "gybe.solutions.classify_unitary_params": lambda tol: classify_unitary_params(1j, 1j, 1, tol),
}


def _takes_a_tolerance(obj) -> bool:
    try:
        return not TOLERANCE_PARAMETERS.isdisjoint(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # no signature to read
        return False


def public_callables_with_a_tolerance() -> set[str]:
    """Qualified names of the callables in ``gybe.__all__`` and the public
    functions, classes and class methods of every ``gybe`` module that have
    a parameter named tol, tolerance, objective_tol or threshold."""
    modules = [importlib.import_module(f"gybe.{m.name}") for m in pkgutil.iter_modules(gybe.__path__)]
    objects = [getattr(gybe, name) for name in gybe.__all__]
    for module in modules:
        objects += [obj for name, obj in vars(module).items() if not name.startswith("_")]
    names = set()
    for obj in objects:
        if not (callable(obj) and getattr(obj, "__module__", "").startswith("gybe.")):
            continue
        qualname = f"{obj.__module__}.{obj.__qualname__}"
        if _takes_a_tolerance(obj):
            names.add(qualname)
        if inspect.isclass(obj):
            names.update(
                f"{qualname}.{name}"
                for name in vars(obj)
                if not name.startswith("_") and _takes_a_tolerance(getattr(obj, name))
            )
    return names


def test_the_table_covers_every_public_callable_with_a_tolerance():
    assert set(CALLS) == public_callables_with_a_tolerance()


def test_every_entry_point_takes_a_valid_tolerance():
    for call in CALLS.values():
        call(1e-9)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, True, "1e-9", None, np.complex128(1e-9 + 1j)])
@pytest.mark.parametrize("entry", CALLS)
def test_every_entry_point_rejects_a_bad_tolerance(entry, tol):
    # A float is a number, so only its value is refused; the rest are not real numbers.
    rule = "non-negative and finite" if type(tol) is float else "a number"
    with pytest.raises(ValueError, match=rf"^(tolerance|objective_tol|threshold) must be {rule}, got"):
        CALLS[entry](tol)


def test_the_gate_returns_a_float_or_names_the_value():
    assert linalg.tolerance(0) == 0.0 and type(linalg.tolerance(0)) is float
    assert linalg.tolerance(np.float64(1e-9)) == 1e-9
    for bad in (np.nan, -1.0, np.inf, -np.inf, -1e-300):
        with pytest.raises(ValueError) as raised:
            linalg.tolerance(bad, "tol")
        assert str(raised.value) == f"tol must be non-negative and finite, got {bad}"


def _count_gate_calls(monkeypatch) -> list:
    calls = []
    gate = linalg.tolerance
    monkeypatch.setattr(linalg, "tolerance", lambda *args: calls.append(args) or gate(*args))
    return calls


def test_the_search_gates_once_not_per_iteration(monkeypatch):
    config = SearchConfig(tolerance=1e-11, restarts=2, seed=0, max_iterations=20)
    calls = _count_gate_calls(monkeypatch)
    result = solve_pattern(rowell_pattern(), GybeSignature(2, 3, 1), config)
    assert sum(report.iterations for report in result.restarts) > 2
    assert calls == [(config.tolerance**2, "objective_tol")]


def test_the_witness_search_gates_once_per_call_not_per_candidate(monkeypatch):
    # The zeta pair scores candidates at both prefixes (a miss, then the
    # witness through the inverse); rowell against base1 is ruled out by an
    # invariant at both, before any candidate.
    zeta, base1 = resolve_solution(f"family1:theta={np.pi / 2!r}"), resolve_solution("base1")
    calls = _count_gate_calls(monkeypatch)
    decision = decide_equivalence(zeta, ROWELL)
    assert sum(p.candidates for p in decision.prefixes) > len(decision.prefixes) == 2
    assert calls == [(equivalence.WITNESS_TOL,)]
    calls.clear()
    decision = decide_equivalence(ROWELL, base1)
    assert [p.invariant is not None for p in decision.prefixes] == [True, True]
    assert calls == [(equivalence.WITNESS_TOL,)]
