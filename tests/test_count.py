"""The one count gate, linalg.count, at every public entry point that takes a count."""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest
from normal_equations import normal_equations

import gybe
from gybe import linalg
from gybe.braiding import BraidRep, BraidWord, build_rep, evaluate_word, recognize_braiding_gate
from gybe.core import (
    GybeSignature,
    braid_dimension,
    braid_generator_matrix,
    far_commutativity_residual,
    ybe_summation_residual,
)
from gybe.equivalence import decide_equivalence
from gybe.optimize import damped_least_squares, solve_stack
from gybe.search import SearchConfig, ZeroPattern, rowell_pattern, solve_pattern
from gybe.solutions import (
    base_solution,
    family_solution,
    general_solution,
    resolve_solution,
    rowell_solution,
)

COUNT_PARAMETERS = {"n", "i", "j", "k", "d", "family", "size", "restarts", "seed", "max_iterations"}

ROWELL = rowell_solution()
SIG = ROWELL.signature
REP = build_rep(ROWELL, 3)


def _line(x):
    return x - 1.0


def _eye(x):
    """The Jacobian of :func:`_line`, for one point or a (rows, params) stack of them."""
    return np.broadcast_to(np.eye(x.shape[-1]), x.shape + x.shape[-1:])


_normal = normal_equations(_eye)


# (qualified name, parameter) -> (call taking the count, a valid count, a
# count below the minimum, the name the error message gives).
CALLS = {
    ("gybe.braiding.BraidRep", "n"): (lambda n: BraidRep(ROWELL, n), 3, 1, "n"),
    # A generator index is a one-letter word.
    ("gybe.braiding.BraidRep.generator", "i"): (lambda i: REP.generator(i), 2, 0, "letter"),
    ("gybe.braiding.BraidWord", "n"): (lambda n: BraidWord(n, (1,)), 3, 1, "n"),
    ("gybe.braiding.BraidWord", "letters"): (lambda v: BraidWord(3, (1, v)), 2, 0, "letter"),
    ("gybe.braiding.build_rep", "n"): (lambda n: build_rep(ROWELL, n), 3, 1, "n"),
    ("gybe.core.GybeSignature", "d"): (lambda d: GybeSignature(d, 3, 1), 2, 0, "d"),
    ("gybe.core.GybeSignature", "m"): (lambda m: GybeSignature(2, m, 1), 3, 0, "m"),
    ("gybe.core.GybeSignature", "l"): (lambda l: GybeSignature(2, 3, l), 1, 0, "l"),
    ("gybe.core.braid_dimension", "n"): (lambda n: braid_dimension(SIG, n), 3, 1, "n"),
    ("gybe.core.braid_generator_matrix", "n"): (lambda n: braid_generator_matrix(ROWELL, n, 1), 3, 1, "n"),
    ("gybe.core.braid_generator_matrix", "i"): (lambda i: braid_generator_matrix(ROWELL, 3, i), 2, 0, "i"),
    ("gybe.core.far_commutativity_residual", "j"): (lambda j: far_commutativity_residual(ROWELL, j), 3, 0, "j"),
    ("gybe.core.ybe_summation_residual", "d"): (lambda d: ybe_summation_residual(np.eye(4), d), 2, 0, "d"),
    ("gybe.linalg.kron_power", "k"): (lambda k: linalg.kron_power(np.eye(2), k), 2, -1, "k"),
    ("gybe.optimize.damped_least_squares", "max_iterations"): (
        lambda it: damped_least_squares(_line, np.zeros(2), normal_fn=_normal, max_iterations=it),
        3,
        -1,
        "max_iterations",
    ),
    ("gybe.optimize.solve_stack", "max_iterations"): (
        lambda it: solve_stack(_line, np.zeros((2, 2)), normal_fn=_normal, max_iterations=it),
        3,
        -1,
        "max_iterations",
    ),
    ("gybe.search.SearchConfig", "restarts"): (lambda v: SearchConfig(restarts=v), 2, 0, "restarts"),
    ("gybe.search.SearchConfig", "seed"): (lambda v: SearchConfig(seed=v), 1, -1, "seed"),
    ("gybe.search.SearchConfig", "max_iterations"): (lambda v: SearchConfig(max_iterations=v), 5, 0, "max_iterations"),
    ("gybe.solutions.base_solution", "family"): (lambda f: base_solution(f), 2, 0, "family"),
    ("gybe.solutions.family_solution", "family"): (lambda f: family_solution(f, 0.3), 2, 0, "family"),
    ("gybe.solutions.general_solution", "family"): (lambda f: general_solution(f, 1, 1j), 2, 0, "family"),
}

# Counts that the inspection below cannot see by name.
NOT_BY_NAME = {
    ("gybe.core.GybeSignature", "m"),
    ("gybe.core.GybeSignature", "l"),
    ("gybe.braiding.BraidWord", "letters"),
}

# It sizes arrays the library computed, on per-candidate paths.
EXEMPT = {("gybe.linalg.identity", "n")}

# Parameters that share a count's name but hold something else.
NOT_COUNTS = {
    ("gybe.search.SearchResult", "restarts"),  # the RestartReports
    ("gybe.solutions.derive_C", "d"),  # the block D
}


def _count_parameters(obj) -> set[str]:
    try:
        return COUNT_PARAMETERS & set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # no signature to read
        return set()


def public_count_parameters() -> set[tuple[str, str]]:
    """(qualified name, parameter) for each parameter named like a count of
    the callables in ``gybe.__all__`` and the public functions, classes and
    class methods of every ``gybe`` module."""
    modules = [importlib.import_module(f"gybe.{m.name}") for m in pkgutil.iter_modules(gybe.__path__)]
    objects = [getattr(gybe, name) for name in gybe.__all__]
    for module in modules:
        objects += [obj for name, obj in vars(module).items() if not name.startswith("_")]
    found = set()
    for obj in objects:
        if not (callable(obj) and getattr(obj, "__module__", "").startswith("gybe.")):
            continue
        qualname = f"{obj.__module__}.{obj.__qualname__}"
        found.update((qualname, p) for p in _count_parameters(obj))
        if inspect.isclass(obj):
            for name in vars(obj):
                if not name.startswith("_"):
                    found.update((f"{qualname}.{name}", p) for p in _count_parameters(getattr(obj, name)))
    return found


def _plain(value):
    """``value`` as nested tuples that tell a numpy integer from an int and
    compare arrays by dtype, shape and bytes."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(_plain, value))
    return type(value), value


def test_the_table_covers_every_public_count():
    assert set(CALLS) | EXEMPT | NOT_COUNTS == public_count_parameters() | NOT_BY_NAME
    assert not set(CALLS) & (EXEMPT | NOT_COUNTS)


@pytest.mark.parametrize("entry", CALLS)
def test_every_entry_point_takes_a_numpy_integer_as_the_int(entry):
    call, valid, _, _ = CALLS[entry]
    assert _plain(call(np.int64(valid))) == _plain(call(valid))


@pytest.mark.parametrize("bad", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", CALLS)
def test_every_entry_point_refuses_a_float_or_a_bool(entry, bad):
    call, _, _, name = CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
        call(bad)


@pytest.mark.parametrize("entry", CALLS)
def test_every_entry_point_refuses_a_count_below_its_minimum(entry):
    call, _, low, name = CALLS[entry]
    with pytest.raises(ValueError, match=rf"(^|\W){name}\W"):
        call(low)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GybeSignature(2, 3.5, 1), "m must be an integer, got 3.5"),
        (lambda: GybeSignature(True, 3, 1), "d must be an integer, got True"),
        (lambda: braid_dimension(SIG, 3.5), "n must be an integer, got 3.5"),
        (lambda: BraidWord(3, (1.7,)), "letter must be an integer, got 1.7"),
        (lambda: BraidWord(3.5, (1,)), "n must be an integer, got 3.5"),
        (lambda: build_rep(ROWELL, 3.0), "n must be an integer, got 3.0"),
        (lambda: family_solution(1.0, 0.3), "family must be an integer, got 1.0"),
        (lambda: general_solution(2.0, 1, 1), "family must be an integer, got 2.0"),
        (lambda: base_solution(2.0), "family must be an integer, got 2.0"),
        (lambda: SearchConfig(max_iterations=2.5), "max_iterations must be an integer, got 2.5"),
        (lambda: SearchConfig(restarts=2.5), "restarts must be an integer, got 2.5"),
        (lambda: SearchConfig(seed=-1), "seed must be at least 0, got -1"),
        (
            lambda: solve_stack(_line, np.zeros((1, 2)), normal_fn=_normal, max_iterations=True),
            "max_iterations must be an integer, got True",
        ),
        (
            lambda: ZeroPattern.from_json_dict({"size": 8.0, "mask": rowell_pattern().mask.tolist()}),
            "size must be an integer, got 8.0",
        ),
        (lambda: braid_generator_matrix(ROWELL, 3, 1.5), "i must be an integer, got 1.5"),
        (lambda: far_commutativity_residual(ROWELL, 3.0), "j must be an integer, got 3.0"),
        (lambda: ybe_summation_residual(np.eye(4), 2.0), "d must be an integer, got 2.0"),
        (lambda: linalg.kron_power(np.eye(2), 2.0), "k must be an integer, got 2.0"),
        (lambda: linalg.kron_power(np.eye(2), True), "k must be an integer, got True"),
    ],
)
def test_a_non_integer_count_is_refused_by_name(call, message):
    # Each of these used to answer: a 22.6-dimensional representation, the
    # letter 1.7 read as sigma_1, a family labelled "family1.0", a third
    # iteration from a budget of 2.5, or a bare TypeError or AttributeError.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_the_gate_returns_a_plain_int_or_names_the_value():
    for value in (0, 7, np.int64(7), np.uint8(7), np.int32(-3)):
        assert type(linalg.count(value, "v")) is int and linalg.count(value, "v") == value
    assert linalg.count(2**80, "v", 1) == 2**80
    for bad in (True, np.bool_(False), 2.0, np.float64(2.0), "2", None, 2 + 0j, np.array(2)):
        with pytest.raises(ValueError) as raised:
            linalg.count(bad, "v")
        assert str(raised.value) == f"v must be an integer, got {bad!r}"
    with pytest.raises(ValueError) as raised:
        linalg.count(np.int64(1), "v", 2)
    assert str(raised.value) == "v must be at least 2, got 1"


def test_numpy_integers_make_the_same_signature():
    plain = GybeSignature(2, 3, 1)
    numpy = GybeSignature(np.int64(2), np.int64(3), np.int64(1))
    assert numpy == plain and hash(numpy) == hash(plain)
    assert str(numpy) == str(plain) and repr(numpy) == repr(plain)
    assert all(type(v) is int for v in (numpy.d, numpy.m, numpy.l))


def test_a_braid_word_stores_plain_ints():
    word = BraidWord(np.int64(4), np.array([1, -3]))
    assert type(word.n) is int and all(type(v) is int for v in word.letters)
    assert word == BraidWord(4, (1, -3)) and repr(word) == repr(BraidWord(4, (1, -3)))


def _count_gate_calls(monkeypatch) -> list:
    calls = []
    gate = linalg.count
    monkeypatch.setattr(linalg, "count", lambda *args: calls.append(args) or gate(*args))
    return calls


def test_the_search_gates_its_counts_once_not_per_iteration_or_candidate(monkeypatch):
    pattern, config = rowell_pattern(), SearchConfig(restarts=3, seed=0, max_iterations=20)
    calls = _count_gate_calls(monkeypatch)
    result = solve_pattern(pattern, SIG, config)
    assert sum(report.iterations for report in result.restarts) > 3
    assert any(report.certified for report in result.restarts)
    # The solver's budget; the dense cap on the lifted residual gates no count.
    assert sorted(calls) == [(20, "max_iterations", 0)]


def test_word_evaluation_and_gate_recognition_gate_nothing(monkeypatch):
    rep = build_rep(ROWELL, 5)
    word = BraidWord(5, (1, 2, -3, 4, 2, 1))
    calls = _count_gate_calls(monkeypatch)
    evaluate_word(rep, word)
    assert recognize_braiding_gate(rep, 2 * rep.generator(4))[0] == 4
    # Only generator(4), an entry point, builds a word and gates its count and letter.
    assert calls == [(5, "n", 2), (4, "letter")]


def test_the_witness_search_gates_no_count(monkeypatch):
    # The zeta pair scores candidates at both prefixes; rowell against base1
    # is ruled out by an invariant at both.
    zeta = family_solution(1, np.pi / 2)
    base1 = resolve_solution("base1")
    calls = _count_gate_calls(monkeypatch)
    decision = decide_equivalence(zeta, ROWELL)
    assert sum(p.candidates for p in decision.prefixes) > len(decision.prefixes)
    assert decide_equivalence(ROWELL, base1).candidates == 0
    assert calls == []
