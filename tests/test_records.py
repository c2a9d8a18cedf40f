"""The library's records: each takes only what it cannot derive, and one
that holds an array compares and hashes by identity."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import gybe
from gybe.braiding import BraidRep, StateVector
from gybe.equivalence import EquivalenceDecision, EquivalenceWitness, GaugeOp, PrefixDecision
from gybe.optimize import LeastSquaresResult
from gybe.search import SearchResult, ZeroPattern
from gybe.solutions import rowell_solution


def _records_holding_arrays() -> list[type]:
    """Every dataclass defined in a gybe module with a field annotated as an ndarray."""
    found = []
    for info in pkgutil.iter_modules(gybe.__path__):
        module = importlib.import_module(f"gybe.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == module.__name__
                and any("np.ndarray" in str(f.type) for f in dataclasses.fields(value))
            ):
                found.append(value)
    return found


def test_every_record_holding_an_array_compares_and_hashes_by_identity():
    # A float matrix has no equality without a tolerance; the library
    # compares matrices by max_abs_diff under a tol.  A record with the
    # generated __eq__ raises numpy's "truth value ... is ambiguous" on ==,
    # and a frozen one also raises TypeError on hash.
    records = _records_holding_arrays()
    names = {cls.__name__ for cls in records}
    assert {"RMatrix", "GaugeOp", "ZeroPattern", "StateVector", "BraidRep", "LeastSquaresResult"} <= names
    for cls in records:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls.__name__
    r = rowell_solution()
    pairs = [
        (r, rowell_solution()),
        (GaugeOp.local_conj(np.eye(2)), GaugeOp.local_conj(np.eye(2))),
        (ZeroPattern(2, np.eye(2)), ZeroPattern(2, np.eye(2))),
        (StateVector([1, 0]), StateVector([1, 0])),
        (BraidRep(r, 3), BraidRep(r, 3)),
        (LeastSquaresResult(np.zeros(2), 0.0, (0.0,), 0, "converged", 1),) * 2,
    ]
    for a, b in pairs:
        assert a == a and (a == b) == (a is b) and (a != b) == (a is not b)
        assert len({a, b, a}) == (1 if a is b else 2)


def test_an_equivalence_decision_computes_its_verdict():
    assert [f.name for f in dataclasses.fields(EquivalenceDecision) if f.init] == ["witness", "prefixes"]
    none, undecided = PrefixDecision("direct", "none", None, 4), PrefixDecision("inverse", "undecided", None, 0)
    witness = EquivalenceWitness((GaugeOp.scalar(1.0),), "r", "s", 0.0)
    assert EquivalenceDecision(None, ()).verdict == "none"
    assert EquivalenceDecision(None, (none,)).verdict == "none"
    assert EquivalenceDecision(None, (none, undecided)).verdict == "undecided"
    assert EquivalenceDecision(witness, (undecided, none)).verdict == "witness"
    # A verdict that contradicts the witness can no longer be given.
    with pytest.raises(TypeError):
        EquivalenceDecision(None, "witness", ())


def test_a_search_result_computes_its_best_objective():
    assert "best_objective" not in [f.name for f in dataclasses.fields(SearchResult) if f.init]
    result = SearchResult((), ((3.0, 2.0), (np.nan,), (5.0, 1.5, 0.5), (4.0,)))
    assert result.best_objective == 0.5 and type(result.best_objective) is float
    # A NaN objective is passed over, first or not, and no restart leaves inf.
    assert SearchResult((), ((np.nan,), (2.0,))).best_objective == 2.0
    assert SearchResult((), ((np.nan,),)).best_objective == np.inf
    assert SearchResult((), ()).best_objective == np.inf


def test_a_least_squares_result_reads_its_flag_and_jacobian_count():
    init = [f.name for f in dataclasses.fields(LeastSquaresResult) if f.init]
    assert init == ["x", "objective", "trace", "iterations", "reason", "residual_evals"]
    for reason in ("converged", "step_tol", "plateau", "damping_stall", "budget", "non_finite"):
        fit = LeastSquaresResult(np.zeros(1), 1.0, (2.0, 1.0), 3, reason, 5)
        assert fit.converged == (reason == "converged") and fit.jacobian_evals == 3
    # Once accepted: a converged budget stop with 7 Jacobians in 3 iterations.
    with pytest.raises(TypeError):
        LeastSquaresResult(np.zeros(1), 1.0, (1.0,), 3, True, "budget", 4, 7)
