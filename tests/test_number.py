"""The one rule for a number, linalg.number, behind every scalar gate and record."""

import ast
import cmath
import math
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gybe
from gybe import linalg, solutions
from gybe.braiding import build_rep
from gybe.core import check_gybe
from gybe.equivalence import GaugeOp
from gybe.search import SearchConfig
from gybe.solutions import DiagBlock, check_param_constraints, rowell_solution

ROWELL = rowell_solution()

# Every kind of scalar a caller might hand the library.
SCALARS = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=4),
    st.none(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
    st.complex_numbers(width=64).map(np.complex64),
    st.fractions(),
)

# gate -> (the kind of number it takes, the name it gives, a call returning
# the value it returns or stores, and its own side condition on that number).
GATES = {
    "count": (int, "v", lambda x: linalg.count(x, "v"), lambda v: True),
    "tolerance": (float, "v", lambda x: linalg.tolerance(x, "v"), lambda v: math.isfinite(v) and v >= 0),
    "_finite(float)": (float, "theta", lambda x: solutions._finite(float, x, "theta"), cmath.isfinite),
    "_finite(complex)": (complex, "omega", lambda x: solutions._finite(complex, x, "omega"), cmath.isfinite),
    "DiagBlock": (complex, "p", lambda x: DiagBlock(x, 1).p, lambda v: True),
    "GaugeOp.scalar": (complex, "lam", lambda x: GaugeOp.scalar(x).lam, lambda v: v != 0 and cmath.isfinite(v)),
}


@settings(max_examples=300, deadline=None)
@given(value=SCALARS)
@pytest.mark.parametrize("gate", GATES)
def test_every_gate_takes_exactly_the_numbers_of_its_kind(gate, value):
    kind, name, call, side_condition = GATES[gate]
    try:
        expected = linalg.number(kind, value, name)
    except ValueError as refused:
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused))}$"):
            call(value)
        return
    if not side_condition(expected):
        with pytest.raises(ValueError, match=rf"^{name} must|^scalar gauge op needs"):
            call(value)
        return
    got = call(value)
    assert type(got) is kind and repr(got) == repr(expected)


@pytest.mark.parametrize("gate", GATES)
def test_every_gate_reads_its_scalar_through_number(gate, monkeypatch):
    kind, name, call, _ = GATES[gate]
    calls = []
    rule = linalg.number
    monkeypatch.setattr(linalg, "number", lambda *args: calls.append(args) or rule(*args))
    call(kind(1))
    assert (kind, kind(1), name) in calls


@pytest.mark.parametrize(
    "kind, value, plain",
    [
        (float, 2, 2.0),
        (float, np.float32(0.5), 0.5),
        (float, np.int64(7), 7.0),
        (complex, 2, 2 + 0j),
        (complex, np.float64(0.25), 0.25 + 0j),
        (complex, np.complex64(1j), 1j),
    ],
)
def test_the_rule_returns_the_plain_python_value(kind, value, plain):
    # The integer kind is count's, whose cases are in test_count.py.
    got = linalg.number(kind, value, "v")
    assert type(got) is kind and got == plain


@pytest.mark.parametrize(
    "kind, value, message",
    [
        (float, True, "v must be a number, got True"),
        (float, "0.5", "v must be a number, got '0.5'"),
        (float, None, "v must be a number, got None"),
        (float, Fraction(1, 2), "v must be a number, got Fraction(1, 2)"),
        (float, 1j, "v must be a number, got 1j"),
        (float, np.complex128(0.5 + 0j), f"v must be a number, got {np.complex128(0.5 + 0j)!r}"),
        (complex, "1j", "v must be a number, got '1j'"),
        (float, 10**400, f"v must be finite, got {10**400}"),
    ],
)
def test_the_rule_refuses_a_real_or_complex_by_name(kind, value, message):
    with pytest.raises(ValueError) as raised:
        linalg.number(kind, value, "v")
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_gybe(ROWELL, "1e-3"), "tolerance must be a number, got '1e-3'"),
        (lambda: check_param_constraints(1j, 1j, 1, "1e-3"), "tolerance must be a number, got '1e-3'"),
        (lambda: check_gybe(ROWELL, True), "tolerance must be a number, got True"),
        (lambda: build_rep(ROWELL, 3, tol="1e-10"), "tolerance must be a number, got '1e-10'"),
        (lambda: SearchConfig(tolerance="1e-11"), "tolerance must be a number, got '1e-11'"),
        (
            lambda: SearchConfig(tolerance=np.complex128(1e-11 + 1j)),
            f"tolerance must be a number, got {np.complex128(1e-11 + 1j)!r}",
        ),
        (lambda: GaugeOp.scalar(None), "lam must be a number, got None"),
        (lambda: GaugeOp.scalar("2"), "lam must be a number, got '2'"),
        (lambda: GaugeOp("scalar", lam=True), "lam must be a number, got True"),
    ],
)
def test_a_scalar_that_is_not_a_number_of_its_kind_is_refused_by_name(call, message):
    # Each used to answer or fail unnamed: a bare TypeError from "<=" or "**",
    # a check passing at tolerance True = 1.0, a representation built at a
    # text tolerance, a complex tolerance cut to its real part, a stored bool
    # lambda, or a pattern of no entries (NaN, True) or of all 64 (-1.0).
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_each_record_keeps_the_plain_value_its_gate_returned():
    assert type(check_gybe(ROWELL, np.float32(1e-3)).tolerance) is float
    assert type(SearchConfig(tolerance=np.float64(1e-11)).tolerance) is float
    assert type(GaugeOp.scalar(np.complex64(2)).lam) is complex
    assert GaugeOp("scalar", lam=np.int64(2)).to_json_dict() == {"kind": "scalar", "lambda": [2.0, 0.0]}


# A name that makes a type test or a type table about numbers.
NUMERIC_TYPE = re.compile(
    r"bool_?|u?int(c|p|\d+)?|integer|(float|complex)(\d+|ing)?|number|Number|Integral|Real|Complex|Fraction|Decimal"
)


def _numeric_types(node: ast.AST) -> set[str]:
    """The names of numeric types that ``node`` mentions."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return {name for name in names if NUMERIC_TYPE.fullmatch(name)}


def _number_rules(tree: ast.AST) -> list[int]:
    """Lines holding an isinstance or issubclass test against a numeric type,
    or a tuple, list, set or dict literal of numeric types outside a subscript."""
    annotations = {id(m) for n in ast.walk(tree) if isinstance(n, ast.Subscript) for m in ast.walk(n.slice)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
            if len(node.args) == 2 and _numeric_types(node.args[1]):
                lines.append(node.lineno)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)) and id(node) not in annotations:
            items = node.values if isinstance(node, ast.Dict) else node.elts
            if any(isinstance(v, (ast.Name, ast.Attribute)) and _numeric_types(v) for v in items):
                lines.append(node.lineno)
    return lines


def test_no_module_but_linalg_holds_a_rule_for_a_number():
    found = {}
    for path in sorted(pathlib.Path(gybe.__file__).parent.glob("*.py")):
        lines = _number_rules(ast.parse(path.read_text()))
        if lines and path.name != "linalg.py":
            found[path.name] = lines
    assert found == {}
    assert _number_rules(ast.parse(pathlib.Path(linalg.__file__).read_text()))  # the guard sees linalg's
