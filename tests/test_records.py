"""The library's records: each takes only what it cannot derive, and one
that holds an array compares and hashes by identity."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gybe
from gybe.braiding import BraidRep, StateVector
from gybe.core import CheckReport, GybeSignature
from gybe.equivalence import EquivalenceDecision, EquivalenceWitness, GaugeOp, Invariant, PrefixDecision
from gybe.optimize import LeastSquaresResult
from gybe.search import RestartReport, SearchConfig, SearchResult, ZeroPattern, rowell_pattern, solve_pattern
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
    assert {"RMatrix", "GaugeOp", "ZeroPattern", "StateVector", "LeastSquaresResult"} <= names
    # BraidRep holds its arrays through its RMatrix, and compares by identity too.
    for cls in records + [BraidRep]:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls.__name__
    r = rowell_solution()
    pairs = [
        (r, rowell_solution()),
        (GaugeOp.local_conj(np.eye(2)), GaugeOp.local_conj(np.eye(2))),
        (ZeroPattern(np.eye(2)), ZeroPattern(np.eye(2))),
        (StateVector([1, 0]), StateVector([1, 0])),
        (BraidRep(r, 3), BraidRep(r, 3)),
        (LeastSquaresResult(np.zeros(2), (0.0,), 0, "converged", 1),) * 2,
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
    # A refuting invariant's complex values are written as [re, im] pairs.
    refuted = PrefixDecision("direct", "none", None, 0, Invariant("tr R^2", 2, 1 + 0j, 4 - 0.5j))
    assert EquivalenceDecision(None, (refuted, none)).to_json_dict()["prefixes"] == [
        {
            "prefix": "direct",
            "verdict": "none",
            "covariant": None,
            "candidates": 0,
            "invariant": {"name": "tr R^2", "degree": 2, "source": [1.0, 0.0], "target": [4.0, -0.5]},
        },
        {"prefix": "direct", "verdict": "none", "covariant": None, "candidates": 4, "invariant": None},
    ]


INIT_FIELDS = {
    CheckReport: ["detail", "tolerance"],
    ZeroPattern: ["mask"],
    LeastSquaresResult: ["x", "trace", "iterations", "reason", "residual_evals"],
    RestartReport: ["reason", "iterations", "residual_evals", "trace", "dedup_key"],
    SearchResult: ["solutions", "restarts", "live_residual_rows", "total_residual_rows"],
    PrefixDecision: ["prefix", "verdict", "covariant", "candidates", "invariant"],
    Invariant: ["name", "degree", "source", "target"],
}


def test_the_verification_and_search_records_take_only_what_they_cannot_derive():
    for cls, names in INIT_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls) if f.init] == names, cls.__name__
    no_default = dataclasses.MISSING
    assert all(f.default is f.default_factory is no_default for f in dataclasses.fields(SearchResult))
    assert not hasattr(CheckReport, "from_residuals") and not hasattr(SearchResult, "to_json_list")
    # Each of these used to build a record that contradicted itself: a
    # residual that is not the one equation's, an empty report that is not
    # vacuous, an objective that is not the trace's last entry, and a class
    # count with no solution or restart behind it.
    for build in (
        lambda: CheckReport(0.1, True, 1.0, (0.5,)),
        lambda: CheckReport(0.0, True, 1.0, (), False),
        lambda: LeastSquaresResult(np.zeros(1), 1.0, (2.0, 0.5), 3, "budget", 4),
        lambda: SearchResult((), ((1.0,),), {"k": 1}),
    ):
        with pytest.raises(TypeError):
            build()


@settings(max_examples=200, deadline=None)
@given(detail=st.lists(st.floats(), max_size=5), tol=st.floats(min_value=0.0, allow_infinity=False))
def test_a_check_report_reads_its_residual_verdict_and_flag(detail, tol):
    report = CheckReport(detail, tol)
    assert report.detail == tuple(detail)
    if any(math.isnan(v) for v in detail):
        assert math.isnan(report.residual) and report.passed is False
    else:
        assert report.residual == max(detail, default=0.0) and type(report.residual) is float
        assert report.passed is (report.residual <= tol)
    assert report.vacuous is (not detail)
    data = report.to_json_dict()
    assert list(data) == ["passed", "residual", "tolerance", "detail"] + ["vacuous"] * (not detail)
    assert data["passed"] is report.passed and data["tolerance"] == tol
    np.testing.assert_array_equal([data["residual"], *data["detail"]], [report.residual, *detail])


def _report(trace, key=None):
    return RestartReport("budget", len(trace) - 1, len(trace), trace, key)


def test_a_restart_report_reads_its_jacobian_count_and_verdict():
    for key in (None, "k"):
        report = _report((2.0, 1.0), key)
        assert report.iterations == 1 and report.certified is (key is not None)
        # The keys and their order of the former dataclasses.asdict output.
        assert list(report.to_json_dict().items()) == [
            ("reason", "budget"),
            ("iterations", 1),
            ("residual_evals", 2),
            ("certified", key is not None),
        ]


def test_a_search_result_reads_its_traces_counts_and_best_objective():
    traces = ((3.0, 2.0), (np.nan,), (5.0, 1.5, 0.5), (4.0,))
    result = SearchResult((), tuple(map(_report, traces)), 0, 0)
    assert result.traces == traces and result.dedup_counts == {}
    assert result.best_objective == 0.5 and type(result.best_objective) is float
    # A NaN objective is passed over, first or not, and no restart leaves inf.
    assert SearchResult((), (_report((np.nan,)), _report((2.0,))), 0, 0).best_objective == 2.0
    assert SearchResult((), (_report((np.nan,)),), 0, 0).best_objective == np.inf
    assert SearchResult((), (), 0, 0).best_objective == np.inf
    # Certified restarts per class, in the order the classes were first hit.
    reports = tuple(_report((1.0,), key) for key in ("b", None, "a", "b", "b"))
    counts = SearchResult((), reports, 0, 0).dedup_counts
    assert counts == {"b": 3, "a": 1} and list(counts) == ["b", "a"]


def test_a_found_search_result_hashes_and_hands_out_fresh_counts():
    result = solve_pattern(rowell_pattern(), GybeSignature(2, 3, 1), SearchConfig(restarts=4))
    assert hash(result) == hash(result)
    counts = result.dedup_counts
    assert list(counts) == [found.dedup_key for found in result.solutions]
    assert sum(counts.values()) == sum(report.certified for report in result.restarts) > 0
    counts.clear()
    assert result.dedup_counts != {} and result.dedup_counts is not result.dedup_counts


def test_a_least_squares_result_reads_its_objective_flag_and_jacobian_count():
    for reason in ("converged", "step_tol", "plateau", "damping_stall", "budget", "non_finite"):
        fit = LeastSquaresResult(np.zeros(1), (2.0, 1.0), 3, reason, 5)
        assert fit.objective == 1.0 and fit.converged == (reason == "converged") and fit.iterations == 3
    # Once accepted: a converged budget stop with 7 Jacobians in 3 iterations.
    with pytest.raises(TypeError):
        LeastSquaresResult(np.zeros(1), 1.0, (1.0,), 3, True, "budget", 4, 7)
