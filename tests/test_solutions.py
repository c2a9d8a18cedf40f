"""Tests pinning the concrete solutions to their published entry patterns."""

import ast
import dataclasses
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gybe
from gybe import linalg, solutions
from gybe.core import GybeSignature, RMatrix, check_gybe, check_ybe, lifted_difference
from gybe.search import dedup_key
from gybe.solutions import (
    BLOCK_SLOTS,
    BLOCK_SUPPORT,
    CLASSIFY_TOL,
    FAMILY_PARAMS,
    BlockSolution,
    DiagBlock,
    base_solution,
    block_parameters,
    check_block_equations,
    check_param_constraints,
    classify_unitary_params,
    conjugate_solution,
    derive_C,
    derive_Y,
    family_solution,
    general_solution,
    param_constraint_residuals,
    reduce_to_B_identity,
    registry_ids,
    resolve_solution,
    restore,
    rowell_solution,
    split_blocks,
    xshape_solution,
)

S = 1 / np.sqrt(2)


# --- frozen displays ----------------------------------------------------------

BASE_DISPLAYS = {
    1: (
        S * np.array([[1, 0, 1, 0], [0, 1j, 0, 1], [-1j, 0, 1j, 0], [0, -1j, 0, 1]]),
        S * np.array([[1j, 0, 1, 0], [0, 1, 0, -1], [-1j, 0, 1, 0], [0, 1j, 0, 1j]]),
    ),
    2: (
        S * np.array([[1, 0, 1, 0], [0, 1j, 0, 1], [-1, 0, 1, 0], [0, 1, 0, 1j]]),
        S * np.array([[1j, 0, 1, 0], [0, 1, 0, -1], [1, 0, 1j, 0], [0, 1, 0, 1]]),
    ),
    3: (
        S * np.array([[1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1]]),
        S * np.array([[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 1, 0, 1]]),
    ),
}


def family_display(family: int, alpha: complex, beta: complex):
    """The general-parameter displays, transcribed entry by entry."""
    a, b = alpha, beta
    ac, bc = np.conj(a), np.conj(b)
    if family == 1:
        x = [[1, 0, a, 0], [0, 1j, 0, b], [-1j * ac, 0, 1j, 0], [0, -1j * bc, 0, 1]]
        y = [
            [1j, 0, b, 0],
            [0, 1, 0, -ac * b * b],
            [-1j * bc, 0, 1, 0],
            [0, 1j * a * bc * bc, 0, 1j],
        ]
    elif family == 2:
        x = [[1, 0, a, 0], [0, 1j, 0, b], [-ac, 0, 1, 0], [0, bc, 0, 1j]]
        y = [
            [1j, 0, b, 0],
            [0, 1, 0, -ac * b * b],
            [bc, 0, 1j, 0],
            [0, a * bc * bc, 0, 1],
        ]
    else:
        x = [[1, 0, a, 0], [0, 1, 0, b], [-ac, 0, 1, 0], [0, -bc, 0, 1]]
        y = [
            [1, 0, -b, 0],
            [0, 1, 0, -ac * b * b],
            [bc, 0, 1, 0],
            [0, a * bc * bc, 0, 1],
        ]
    return S * np.array(x, dtype=complex), S * np.array(y, dtype=complex)


def test_zeta_solution_entries_and_checks():
    r = rowell_solution()
    assert r.signature == GybeSignature(2, 3, 1)
    zeta = np.exp(2j * np.pi / 8)
    assert r.matrix[0, 0] == pytest.approx(S / zeta, abs=1e-15)
    assert check_gybe(r, 1e-12).passed
    assert linalg.max_abs_diff(
        r.matrix @ linalg.dagger(r.matrix), linalg.identity(8)
    ) <= 1e-14


def test_zeta_solution_factored_form():
    # The same matrix rewritten with the global phase 1/zeta pulled out.
    zeta = np.exp(2j * np.pi / 8)
    x = (S / zeta) * np.array(
        [[1, 0, -1, 0], [0, 1j, 0, 1j], [1j, 0, 1j, 0], [0, -1, 0, 1]]
    )
    y = (S / zeta) * np.array(
        [[1j, 0, 1j, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, 1j, 0, 1j]]
    )
    assert linalg.max_abs_diff(
        linalg.direct_sum(x, y), rowell_solution().matrix
    ) <= 1e-15


def test_xshape_entries_and_checks():
    r = xshape_solution()
    assert r.signature == GybeSignature(2, 3, 2)
    frozen = S * np.array(
        [
            [1, 0, 0, 0, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1, 0, 0],
            [0, 0, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, -1, 1, 0, 0, 0],
            [0, 0, -1, 0, 0, 1, 0, 0],
            [0, -1, 0, 0, 0, 0, 1, 0],
            [-1, 0, 0, 0, 0, 0, 0, 1],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(r.matrix, frozen, atol=1e-15)
    assert r.matrix[0, 0] == pytest.approx(S)
    assert r.matrix[0, 7] == pytest.approx(S)
    # Exactly 16 nonzeros, all on the two diagonals.
    nz = np.abs(r.matrix) > 1e-12
    assert nz.sum() == 16
    for i, j in zip(*np.nonzero(nz)):
        assert i == j or i + j == 7
    assert check_gybe(r, 1e-12).passed
    assert linalg.unitarity_residual(r.matrix) <= 1e-12


def test_base_solutions_match_displays():
    for k, (x, y) in BASE_DISPLAYS.items():
        b = base_solution(k)
        assert linalg.max_abs_diff(b.x_matrix(), x) <= 1e-15
        assert linalg.max_abs_diff(b.y_matrix(), y) <= 1e-15


def test_base_solution_three_has_unit_parameters():
    b = base_solution(3)
    assert b.omega == b.gamma == b.delta == 1
    with pytest.raises(ValueError):
        base_solution(4)


def test_base_solutions_pass_block_equations():
    for k in (1, 2, 3):
        b = base_solution(k)
        report = check_block_equations(b.x_matrix(), b.y_matrix(), 1e-12)
        assert report.passed
        assert len(report.detail) == 8


def test_family_displays_match_construction():
    for family in (1, 2, 3):
        for theta in (0.0, 0.37, np.pi / 2, 2.1, np.pi):
            r = family_solution(family, theta)
            x, y = family_display(family, 1.0, np.exp(1j * theta))
            assert linalg.max_abs_diff(r.matrix, linalg.direct_sum(x, y)) <= 1e-14


def test_general_displays_match_construction():
    rng = np.random.default_rng(17)
    for family in (1, 2, 3):
        for _ in range(3):
            alpha = np.exp(2j * np.pi * rng.random())
            beta = np.exp(2j * np.pi * rng.random())
            r = general_solution(family, alpha, beta)
            x, y = family_display(family, alpha, beta)
            assert linalg.max_abs_diff(r.matrix, linalg.direct_sum(x, y)) <= 1e-14


def test_family_three_theta_pi_blocks_coincide():
    r = family_solution(3, np.pi)
    x, y = split_blocks(r.matrix)
    frozen = S * np.array([[1, 0, 1, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, 1, 0, 1]])
    assert linalg.max_abs_diff(x, frozen) <= 1e-14
    assert linalg.max_abs_diff(y, frozen) <= 1e-14


def test_family_blocks_differ_away_from_the_coincidence_point():
    x, y = split_blocks(family_solution(3, 0.7).matrix)
    assert linalg.max_abs_diff(x, y) > 0.1
    assert not check_ybe(x, 1e-12).passed
    x, y = split_blocks(family_solution(1, np.pi).matrix)
    assert linalg.max_abs_diff(x, y) > 0.1


def test_family_two_passes_at_arbitrary_angle():
    r = family_solution(2, np.pi / 3)
    assert check_gybe(r, 1e-12).passed
    assert linalg.unitarity_residual(r.matrix) <= 1e-12


def test_family_validation():
    with pytest.raises(ValueError):
        family_solution(4, 0.5)
    with pytest.raises(ValueError):
        family_solution(1, -0.2)
    with pytest.raises(ValueError):
        family_solution(1, np.pi + 0.2)
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi\], got 7.0$"):
        family_solution(2, 7.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: family_solution(1, None), "theta must be a number, got None"),
        (lambda: family_solution(1, 1j), "theta must be a number, got 1j"),
        (
            lambda: family_solution(1, np.complex128(0.3 + 2j)),
            f"theta must be a number, got {np.complex128(0.3 + 2j)!r}",
        ),
        (lambda: family_solution(1, True), "theta must be a number, got True"),
        (lambda: general_solution(1, None, 1), "alpha must be a number, got None"),
        (lambda: general_solution(1, "0.3", 1), "alpha must be a number, got '0.3'"),
        (lambda: derive_Y(None, 1, 1), "omega must be a number, got None"),
        (lambda: classify_unitary_params(None, 1, 1), "omega must be a number, got None"),
        (lambda: param_constraint_residuals(None, 1, 1), "omega must be a number, got None"),
        (lambda: DiagBlock(None, 1), "p must be a number, got None"),
        (
            lambda: BlockSolution(DiagBlock("1", 1), *[DiagBlock.identity()] * 6),
            "p must be a number, got '1'",
        ),
    ],
)
def test_a_solution_builder_names_a_parameter_that_is_not_a_number(build, message):
    # Each used to raise a bare TypeError, or to read the value: a numpy
    # complex theta lost its imaginary part, True was 1 and "0.3" was parsed.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_general_solution_reduces_to_base_and_theta_forms():
    for k in (1, 2, 3):
        r = general_solution(k, 1, 1)
        assert linalg.max_abs_diff(r.matrix, base_solution(k).r_matrix()) <= 1e-15
    theta = 1.234
    assert linalg.max_abs_diff(
        general_solution(2, 1, np.exp(1j * theta)).matrix,
        family_solution(2, theta).matrix,
    ) <= 1e-15


def test_a_family_member_is_inverted_once(monkeypatch):
    # The member's RMatrix is built once, with its theta label, so the gated
    # inverse of its constructor runs once; the matrix is the general one's.
    calls, inverse = [], linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda m: calls.append(m) or inverse(m))
    r = resolve_solution("family1:theta=0.3")
    assert len(calls) == 1
    assert r.label == "family1:theta=0.3"
    assert np.array_equal(r.matrix, general_solution(1, 1, np.exp(0.3j)).matrix)


def test_general_solution_checks_and_validation():
    r = general_solution(2, 1j, 1j)
    assert check_gybe(r, 1e-12).passed
    assert linalg.unitarity_residual(r.matrix) <= 1e-12
    with pytest.raises(ValueError):
        general_solution(2, 1.2, 1)
    with pytest.raises(ValueError, match="^beta must lie on the unit circle"):
        general_solution(1, 1, 0.5)
    for bad in (complex("nan"), complex("inf"), complex(1, float("nan"))):
        with pytest.raises(ValueError, match="^alpha must be finite"):
            general_solution(1, bad, 1)


def test_derive_C_examples():
    one = DiagBlock.identity()
    c = derive_C(one, one, one)
    assert (c.p, c.q) == (-1, -1)
    c = derive_C(DiagBlock(1, 1j), one, DiagBlock(1j, 1))
    assert c.p == pytest.approx(-1j) and c.q == pytest.approx(-1j)
    c = derive_C(DiagBlock(1, 1j), one, DiagBlock(1, 1j))
    assert c.p == pytest.approx(-1) and c.q == pytest.approx(1)
    with pytest.raises(ValueError):
        derive_C(DiagBlock(2, 1), one, one)


def test_derive_C_yields_unitary_x_quadrant():
    rng = np.random.default_rng(18)
    for _ in range(10):
        omega, alpha, beta, gamma, delta = (
            np.exp(2j * np.pi * rng.random()) for _ in range(5)
        )
        a = DiagBlock(1, omega)
        b = DiagBlock(alpha, beta)
        d = DiagBlock(gamma, delta)
        block = BlockSolution(a, b, d, *derive_Y(omega, gamma, delta, alpha, beta))
        assert block.C == derive_C(a, b, d)
        assert linalg.unitarity_residual(block.x_matrix()) <= 1e-12


def test_derive_Y_reproduces_base_displays():
    expected = {
        1: ((1j, 1), (1, -1), (-1j, 1j), (1, 1j)),
        2: ((1j, 1), (1, -1), (1, 1), (1j, 1)),
        3: ((1, 1), (-1, -1), (1, 1), (1, 1)),
    }
    params = {1: (1j, 1j, 1), 2: (1j, 1, 1j), 3: (1, 1, 1)}
    for k, blocks in expected.items():
        got = derive_Y(*params[k])
        for block, (p, q) in zip(got, blocks):
            assert block.p == pytest.approx(p, abs=1e-15)
            assert block.q == pytest.approx(q, abs=1e-15)
    with pytest.raises(ValueError):
        derive_Y(1j, 1j, 1, alpha=2.0)


def test_block_equations_on_zeta_blocks():
    x, y = split_blocks(rowell_solution().matrix)
    report = check_block_equations(x, y, 1e-12)
    assert report.passed
    assert max(report.detail) <= 1e-14


def test_block_equations_mismatched_families_fail():
    x, _ = split_blocks(family_solution(1, 0.4).matrix)
    _, y = split_blocks(family_solution(2, 0.4).matrix)
    report = check_block_equations(x, y, 1e-12)
    assert not report.passed
    assert report.residual > 0.1


def test_block_equations_agree_with_direct_check():
    rng = np.random.default_rng(19)
    for trial in range(6):
        x, y = split_blocks(resolve_solution("base2").matrix)
        if trial % 2:
            x = x + 1e-3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            y = y + 1e-3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        direct = check_gybe(
            RMatrix(GybeSignature(2, 3, 1), linalg.direct_sum(x, y), "pair"), 1e-10
        )
        assert check_block_equations(x, y, 1e-10).passed == direct.passed


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(("rowell", "base1", "base2", "base3", "family1:theta=0.7")),
    exponent=st.floats(-9, -2),
    perturb_y=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_equations_report_the_direct_residual(name, exponent, perturb_y, seed):
    # The block residual is the direct one, not a multiple of it, so the
    # verdicts agree at any tolerance away from the residual itself.
    rng = np.random.default_rng(seed)
    x, y = split_blocks(resolve_solution(name).matrix)
    x = x + 10**exponent * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    if perturb_y:
        y = y + 10**exponent * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    r = RMatrix(GybeSignature(2, 3, 1), linalg.direct_sum(x, y), "pair")
    direct = check_gybe(r).residual
    assert check_block_equations(x, y).residual == pytest.approx(direct, rel=1e-6)
    for tol in (1.5 * direct, 0.5 * direct):
        assert check_block_equations(x, y, tol).passed == check_gybe(r, tol).passed


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(("rowell", "base1", "base2", "base3", "family1:theta=0.7", "family3:theta=2.2", None)),
    exponent=st.integers(-9, 0),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_equation_k_is_block_k_of_the_lifted_difference(name, exponent, seed):
    # With qubit 1 picking the quadrant a and qubit 2 the block row i or
    # column j, residual k in (a, i, j) order is the worst entry of block
    # (a, i; a, j) of L S L - S L S, and the blocks across quadrants vanish.
    # name None draws X and Y at random.
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    if name is None:
        x, y = noise
    else:
        x, y = np.array(split_blocks(resolve_solution(name).matrix)) + 10.0**exponent * noise
    diff = lifted_difference(linalg.direct_sum(x, y), GybeSignature(2, 3, 1)).reshape(2, 2, 4, 2, 2, 4)
    detail = check_block_equations(x, y).detail
    assert len(detail) == 8 and all(type(v) is float for v in detail)
    for k, (a, i, j) in enumerate(np.ndindex(2, 2, 2)):
        block = linalg.max_abs(diff[a, i, :, a, j, :])
        assert abs(detail[k] - block) <= 1e-14 * max(1.0, block), (a, i, j)
    assert not diff[0, :, :, 1].any() and not diff[1, :, :, 0].any()


def test_param_constraints_examples():
    assert max(check_param_constraints(1j, 1j, 1).detail) == 0.0
    assert max(check_param_constraints(1, 1, 1).detail) == 0.0
    report = check_param_constraints(1j, 1j, 1j)
    assert not report.passed
    assert len(report.detail) == 10
    # Third consistency constraint evaluates to (i-1)i vs i^2-1+i(1-i): a gap of 2i.
    assert report.detail[2] == pytest.approx(2.0, abs=1e-12)


def test_classification_examples():
    assert classify_unitary_params(-1j, -1j, 1) == "A"
    assert classify_unitary_params(1j, 1, 1j) == "B"
    assert classify_unitary_params(1, 1, 1) == "C"
    assert classify_unitary_params(np.exp(1j * np.pi / 3), 1, 1) == "none"


@pytest.mark.parametrize(
    "params, tol, category",
    [
        # At a wide tolerance more than one category matches, and the first
        # of A, B, conjugate A, conjugate B, C names the parameters: here B
        # at +i wins over A at -i, and A at +i over C.
        pytest.param((1, np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)), 1.5, "B", id="wide-B-before-conjugate-A"),
        pytest.param((1, 1, 1), 1.5, "A", id="wide-A-before-C"),
    ]
    + [
        pytest.param(
            np.conj(FAMILY_PARAMS[family]) if conjugate else FAMILY_PARAMS[family],
            CLASSIFY_TOL,
            category,
            id=f"family{family}{'-conjugate' if conjugate else ''}",
        )
        for family, category in zip((1, 2, 3), "ABC")
        for conjugate in (False, True)
    ],
)
def test_classification_takes_the_first_category_in_family_order(params, tol, category):
    assert classify_unitary_params(*params, tol=tol) == category


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_classification_rejects_a_nan_or_negative_tolerance(tol):
    # A NaN tolerance fails every comparison, so it used to read as "none".
    with pytest.raises(ValueError, match="tolerance must be non-negative"):
        classify_unitary_params(1j, 1j, 1, tol=tol)


@pytest.mark.parametrize("position, name", [(0, "omega"), (1, "gamma"), (2, "delta")])
def test_classification_rejects_non_finite_parameters(position, name):
    # NaN fails every comparison, so it used to read as category "none".
    params = [1, 1, 1]
    params[position] = complex(1, float("nan"))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        classify_unitary_params(*params)


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from((1, 2, 3)),
    angles=st.tuples(*[st.floats(0.0, 2 * np.pi)] * 3),
    modulus=st.floats(1e-6, 1e6),
)
def test_block_parameters_read_the_family_of_any_scalar_multiple(family, angles, modulus):
    a, b, arg = angles
    c = modulus * np.exp(1j * arg)
    r = general_solution(family, np.exp(1j * a), np.exp(1j * b))
    params = block_parameters(c * r.matrix)
    assert max(abs(got - want) for got, want in zip(params, FAMILY_PARAMS[family])) <= 1e-12


def test_block_parameters_name_the_first_failed_condition():
    base = base_solution(1).r_matrix()

    def changed(*entries):
        m = base.copy()
        for (i, j), value in entries:
            m[i, j] = value
        return m

    cases = [
        (base[:4, :4], "classification applies to 8x8 block solutions"),
        # The quadrants are checked before the sub-blocks of X.
        (changed(((0, 4), 1e-3), ((0, 1), 1e-3)), "off-diagonal 4x4 quadrants reach 1.000e-03"),
        (changed(((0, 1), 1e-3)), "2x2 sub-blocks of X are not diagonal"),
        (changed(((0, 0), 0.0)), "top-left entry is zero"),
        # A NaN anywhere fails the input gate before any block condition.
        (changed(((5, 2), np.nan)), "block-solution matrix must have finite entries"),
        (changed(((3, 2), np.nan)), "block-solution matrix must have finite entries"),
        (changed(((0, 0), np.nan)), "block-solution matrix must have finite entries"),
    ]
    for m, message in cases:
        with pytest.raises(ValueError, match=message):
            block_parameters(m)
    assert block_parameters(changed(((0, 1), 1e-3)), tol=1e-2) == pytest.approx(FAMILY_PARAMS[1])


def test_block_slots_match_the_eight_slice_build():
    # The layout table puts each block's p and q where the eight 2x2 slices of
    # X (+) Y put them, bit for bit, signed zeros included.
    corners = ((0, 0), (0, 2), (2, 0), (2, 2), (4, 4), (4, 6), (6, 4), (6, 6))

    def eight_slices(pairs):
        out = np.zeros((8, 8), dtype=np.complex128)
        for (i, j), (p, q) in zip(corners, pairs):
            out[i : i + 2, j : j + 2] = np.diag([complex(p), complex(q)])
        return out

    rng = np.random.default_rng(23)
    draws = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(5)]
    specials = [-0.0, complex(-0.0, -0.0), 0, 1, 1j, -1.0, complex(0.0, -0.0), 2.5] * 2
    for values in draws + [specials]:
        pairs = [(complex(p), complex(q)) for p, q in zip(values[0::2], values[1::2])]
        got = np.zeros((8, 8), dtype=np.complex128)
        np.put(got, BLOCK_SLOTS, pairs)
        np.testing.assert_array_equal(got.view(np.uint64), eight_slices(pairs).view(np.uint64))
        np.testing.assert_array_equal(np.take(got, BLOCK_SLOTS), pairs)
    # A solution's matrix is its eight blocks, C derived, placed and scaled.
    s = BlockSolution.from_params(*FAMILY_PARAMS[2], np.exp(0.4j), np.exp(1.3j))
    blocks = (s.A, s.B, s.C, s.D, s.Y1, s.Y2, s.Y3, s.Y4)
    want = S * eight_slices([(k.p, k.q) for k in blocks])
    assert s.r_matrix().dtype == np.complex128
    np.testing.assert_array_equal(s.r_matrix().view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(s.x_matrix(), want[:4, :4])
    np.testing.assert_array_equal(s.y_matrix(), want[4:, 4:])
    i, j = np.indices((8, 8))
    np.testing.assert_array_equal(BLOCK_SUPPORT, ((i < 4) == (j < 4)) & ((i + j) % 2 == 0))
    assert not BLOCK_SLOTS.flags.writeable and not BLOCK_SUPPORT.flags.writeable


def test_classification_brute_force_grid():
    fourth_roots = (1, -1, 1j, -1j)
    admissible = set()
    for w in fourth_roots:
        for g in fourth_roots:
            for d in fourth_roots:
                passed = max(param_constraint_residuals(w, g, d)) <= 1e-9
                category = classify_unitary_params(w, g, d)
                assert passed == (category != "none")
                if passed:
                    admissible.add((w, g, d))
    assert admissible == {(1j, 1j, 1), (-1j, -1j, 1), (1j, 1, 1j), (-1j, 1, -1j), (1, 1, 1)}


def test_reduction_fixed_point_and_round_trip():
    b3 = base_solution(3)
    reduced = reduce_to_B_identity(b3)
    assert b3.alpha == 1 and b3.beta == 1
    assert linalg.max_abs_diff(reduced.r_matrix(), b3.r_matrix()) <= 1e-15

    rng = np.random.default_rng(20)
    for _ in range(5):
        fam = int(rng.integers(1, 4))
        alpha = np.exp(2j * np.pi * rng.random())
        beta = np.exp(2j * np.pi * rng.random())
        s = BlockSolution.from_matrices(*split_blocks(general_solution(fam, alpha, beta).matrix))
        red = reduce_to_B_identity(s)
        assert red.B.p == 1 and red.B.q == 1
        back = restore(red, s.B)
        assert linalg.max_abs_diff(back.r_matrix(), s.r_matrix()) <= 1e-14


def test_reduction_lands_on_base_solution():
    s = BlockSolution.from_matrices(*split_blocks(general_solution(1, 1j, 1).matrix))
    reduced = reduce_to_B_identity(s)
    assert s.alpha == pytest.approx(1j) and s.beta == pytest.approx(1)
    assert linalg.max_abs_diff(reduced.r_matrix(), base_solution(1).r_matrix()) <= 1e-14


def test_reduction_preserves_block_equation_verdict():
    # Valid family parameters pass on both sides of the reduction.
    s = BlockSolution.from_matrices(*split_blocks(general_solution(2, 1j, -1).matrix))
    red = reduce_to_B_identity(s)
    assert check_block_equations(s.x_matrix(), s.y_matrix(), 1e-10).passed
    assert check_block_equations(red.x_matrix(), red.y_matrix(), 1e-10).passed
    # Off-category parameters fail on both sides.
    bad = BlockSolution.from_params(np.exp(1j * np.pi / 3), 1, 1, 1j, -1j)
    bad_red = reduce_to_B_identity(bad)
    assert not check_block_equations(bad.x_matrix(), bad.y_matrix(), 1e-10).passed
    assert not check_block_equations(bad_red.x_matrix(), bad_red.y_matrix(), 1e-10).passed


def test_block_solution_validation():
    base = base_solution(3)
    x = base.x_matrix()
    x[2:, :2] *= -1  # C = +I, wrong sign: must be -D B^dagger A = -I
    with pytest.raises(ValueError, match=r"^C deviates from -D B\^dagger A by 2\.000e\+00; X cannot be unitary$"):
        BlockSolution.from_matrices(x, base.y_matrix())
    with pytest.raises(ValueError):
        BlockSolution.from_matrices(np.ones((4, 4)), np.ones((4, 4)))


def test_a_member_within_the_unit_tolerance_builds():
    # gamma and alpha each pass derive_Y's unit check at 1 + 9e-13; the C the
    # constructor used to be handed, |C.p| = |gamma||alpha| = 1 + 1.8e-12,
    # failed its own unit check.  C is derived, so the member builds.
    s = BlockSolution.from_params(1j, (1 + 9e-13) * 1j, 1.0, 1 + 9e-13, 1.0)
    assert abs(s.C.p) - 1 > solutions._UNIT_TOL
    assert s.C == derive_C(s.A, s.B, s.D)
    assert linalg.unitarity_residual(s.x_matrix()) <= 3e-12


BLOCK_NAMES = ("A", "B", "C", "D", "Y1", "Y2", "Y3", "Y4")


@pytest.mark.parametrize(
    "index, bad, entry, build",
    [
        pytest.param(index, bad, entry, build, id=f"{index}-{bad}-{entry}-{build}")
        for build in ("constructor", "from_matrices")
        for entry in (0, 1)
        for bad in (complex("nan"), complex("inf"), complex("-inf"))
        for index in range(8)
    ],
)
def test_block_solution_rejects_a_non_finite_entry_in_any_block(index, bad, entry, build):
    base = base_solution(1)
    name = BLOCK_NAMES[index]
    if build == "constructor":
        pq = [getattr(base, name).p, getattr(base, name).q]
        pq[entry] = bad
        if name == "C":  # C is derived, so the constructor takes none to check
            with pytest.raises(TypeError, match="unexpected keyword argument 'C'"):
                dataclasses.replace(base, C=DiagBlock(*pq))
            return
        with pytest.raises(ValueError, match=f"block {name} must be finite"):
            dataclasses.replace(base, **{name: DiagBlock(*pq)})
    else:
        r = base.r_matrix()
        np.put(r, BLOCK_SLOTS[index, entry], bad)
        with pytest.raises(ValueError, match=f"block {name} must be finite"):
            BlockSolution.from_matrices(*split_blocks(r))


@pytest.mark.parametrize("tol", [1e-10, 3e-10])
def test_from_matrices_names_the_caller_s_tolerance(tol):
    # The reader sees the blocks, sqrt2 times the entries, at the caller's
    # tol; it used to run at tol/sqrt2 and name 7.07107e-11 for 1e-10.
    base = base_solution(1)
    x = base.x_matrix()
    x[0, 1] = 1e-9
    message = (
        "not in block-solution form: the 2x2 sub-blocks of X are not diagonal "
        f"(off-diagonal entries reach 1.414e-09, above tolerance {tol:g})"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BlockSolution.from_matrices(x, base.y_matrix(), tol)
    # A block reads sqrt2 times its two entries, as one product each.
    s = BlockSolution.from_matrices(x, base.y_matrix(), 1.5e-9)
    assert (s.A.p, s.A.q) == (solutions.SQRT2 * x[0, 0].item(), solutions.SQRT2 * x[1, 1].item())


_UNIT = st.floats(0, 2 * np.pi).map(lambda t: complex(np.exp(1j * t)))


@settings(max_examples=200, deadline=None)
@given(_UNIT, _UNIT, _UNIT, _UNIT, _UNIT)
def test_reduction_round_trips_any_unit_parameters(omega, gamma, delta, alpha, beta):
    # Off-category (omega, gamma, delta) included: the reduction is a
    # conjugation of the blocks, whether or not they solve the equation.
    s = BlockSolution.from_params(omega, gamma, delta, alpha, beta)
    red = reduce_to_B_identity(s)
    assert red.B == DiagBlock.identity()
    assert (s.alpha, s.beta) == (alpha, beta)
    back = restore(red, s.B)
    assert linalg.max_abs_diff(back.r_matrix(), s.r_matrix()) <= 1e-14


def _region(i: int, j: int) -> str:
    """What the block-form reader names for an entry (i, j) off the X (+) Y support."""
    if (i < 4) != (j < 4):
        return "off-diagonal 4x4 quadrants reach 1.000e-03"
    return f"2x2 sub-blocks of {'X' if i < 4 else 'Y'} are not diagonal"


OFF_SUPPORT = [(int(i), int(j), _region(i, j)) for i, j in zip(*np.nonzero(~BLOCK_SUPPORT))]


def _key_parts(m: np.ndarray) -> list[str]:
    return [name for name, _ in ast.literal_eval(dedup_key(m))]


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from((1, 2, 3)),
    alpha=_UNIT,
    beta=_UNIT,
    modulus=st.floats(0.5, 2.0),
    arg=st.floats(0.0, 2 * np.pi),
)
def test_one_reader_gates_every_entry_off_the_block_support(family, alpha, beta, modulus, arg):
    r = general_solution(family, alpha, beta).matrix
    c = modulus * np.exp(1j * arg)
    params = block_parameters(c * r)
    assert all(type(value) is complex for value in params)
    assert max(abs(got - want) for got, want in zip(params, FAMILY_PARAMS[family])) <= CLASSIFY_TOL
    s = BlockSolution.from_matrices(*split_blocks(r))
    want = BlockSolution.from_params(*FAMILY_PARAMS[family], alpha, beta)
    for name in BLOCK_NAMES:
        got, block = getattr(s, name), getattr(want, name)
        assert max(abs(got.p - block.p), abs(got.q - block.q)) <= 1e-14, name
    assert _key_parts(c * r) == ["spectrum", "x", "y", "ratio"]
    # Any one of the 48 entries off the support fails every reader, by its region.
    assert len(OFF_SUPPORT) == 48
    for i, j, region in OFF_SUPPORT:
        m = c * r
        m[i, j] = 1e-3
        with pytest.raises(ValueError, match=region):
            block_parameters(m)
        assert _key_parts(m) == ["spectrum"]
        if "quadrants" not in region:
            leaky = r.copy()
            leaky[i, j] = 1e-3
            with pytest.raises(ValueError, match=region):
                BlockSolution.from_matrices(*split_blocks(leaky))


def test_no_module_but_solutions_names_the_layout_table():
    gone = {"QUADRANT_SLOTS", "QUADRANT_SUPPORT", "assemble_quadrant", "split_quadrant"}
    tables = {"BLOCK_SLOTS"}
    found = {}
    for path in sorted(pathlib.Path(gybe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        found[path.name] = sorted(names & (tables | gone))
    assert found.pop("solutions.py") == sorted(tables)  # the guard sees solutions' own
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert not any(hasattr(solutions, name) for name in gone)


def test_reduction_of_a_scalar_multiple_keeps_its_corner():
    # e^{0.3i} R has A = e^{0.3i} diag(1, omega): the reduced C is -D A, not (-gamma, -delta omega).
    m = np.exp(0.3j) * general_solution(2, np.exp(0.5j), np.exp(1.1j)).matrix
    s = BlockSolution.from_matrices(*split_blocks(m))
    red = reduce_to_B_identity(s)
    assert red.C == derive_C(s.A, DiagBlock.identity(), s.D)
    back = restore(red, s.B)
    assert linalg.max_abs_diff(back.r_matrix(), s.r_matrix()) <= 1e-14


def test_a_family_member_is_checked_once(monkeypatch):
    # derive_Y checks the five parameters and the constructor the four X
    # blocks; nothing checks them again on its behalf, and no block check
    # gates a tolerance of its own.
    units, unitaries, tolerances = [], [], []
    require_unit, is_unitary, tolerance = solutions._require_unit, DiagBlock.is_unitary, linalg.tolerance
    monkeypatch.setattr(
        solutions, "_require_unit", lambda *a, **k: units.append(a) or require_unit(*a, **k)
    )
    monkeypatch.setattr(DiagBlock, "is_unitary", lambda self: unitaries.append(self) or is_unitary(self))
    monkeypatch.setattr(linalg, "tolerance", lambda *a: tolerances.append(a) or tolerance(*a))
    general_solution(2, np.exp(0.4j), np.exp(1.3j))
    assert len(units) <= 5 and len(unitaries) <= 4
    resolve_solution("family1:theta=0.3")
    assert tolerances == []


def test_conjugate_solutions_also_solve():
    for k in (1, 2):
        conj = conjugate_solution(base_solution(k).to_rmatrix(f"base{k}"))
        assert check_gybe(conj, 1e-12).passed
        assert linalg.unitarity_residual(conj.matrix) <= 1e-12


def test_registry_resolution():
    assert set(registry_ids()) == {"rowell", "xshape", "base1", "base2", "base3"}
    for name in registry_ids():
        r = resolve_solution(name)
        assert r.label == name
    r = resolve_solution("family1:theta=1.5707963267948966")
    assert linalg.max_abs_diff(r.matrix, family_solution(1, np.pi / 2).matrix) <= 1e-12
    r = resolve_solution("family2:alpha=0,1:beta=-1,0")
    assert linalg.max_abs_diff(r.matrix, general_solution(2, 1j, -1).matrix) <= 1e-12
    with pytest.raises(KeyError):
        resolve_solution("nope")


def test_registry_labels_round_trip():
    r = family_solution(2, 1.25)
    again = resolve_solution(r.label)
    assert again.label == r.label and np.array_equal(r.matrix, again.matrix)
    g = general_solution(3, np.exp(0.4j), np.exp(-1.1j))
    again = resolve_solution(g.label)
    assert again.label == g.label and np.array_equal(g.matrix, again.matrix)
    # A label used to print 12 significant digits, 0.123456789012 here.
    assert family_solution(1, 0.123456789012345678).label == "family1:theta=0.12345678901234568"


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from((1, 2, 3)), theta=st.floats(0, np.pi), alpha=_UNIT, beta=_UNIT)
def test_a_label_is_its_id(family, theta, alpha, beta):
    # resolve_solution(r.label) rebuilds r bit for bit, signed zeros included.
    for r in (family_solution(family, theta), general_solution(family, alpha, beta)):
        again = resolve_solution(r.label)
        assert again.label == r.label
        np.testing.assert_array_equal(again.matrix.view(np.uint64), r.matrix.view(np.uint64))
