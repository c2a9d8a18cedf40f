"""Rejections and non-matches that no other test reaches, one case each."""

import re

import numpy as np
import pytest
from normal_equations import normal_equations

from gybe.braiding import build_rep, recognize_braiding_gate
from gybe.core import GybeSignature, ybe_summation_residual
from gybe.equivalence import search_local_conjugation
from gybe.optimize import damped_least_squares, solve_stack
from gybe.search import ZeroPattern, gybe_objective
from gybe.solutions import BlockSolution, DiagBlock, check_block_equations, rowell_solution, split_blocks

ROWELL = rowell_solution()
REP = build_rep(ROWELL, 3)  # sigma_1 = R ⊗ I_2 and sigma_2 = I_2 ⊗ R, of side 16


def _line(x):
    return x - 1.0


def _eye(x):
    return np.broadcast_to(np.eye(x.shape[-1]), x.shape + x.shape[-1:])


_normal = normal_equations(_eye)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: recognize_braiding_gate(REP, np.eye(8)), "gate must be 16x16"),
        (lambda: ybe_summation_residual(np.eye(4), 3), "matrix does not match the declared local dimension"),
        (lambda: ybe_summation_residual(np.eye(25), 5), "summation form is a small-d cross-check"),
        (
            lambda: solve_stack(_line, np.zeros(2), normal_fn=_normal),
            "expected a (rows, params) stack of starts, got shape (2,)",
        ),
        (
            lambda: damped_least_squares(_line, np.zeros((1, 2)), normal_fn=_normal),
            "expected a 1-D start, got shape (1, 2)",
        ),
        (lambda: BlockSolution(DiagBlock(2, 1), *[DiagBlock.identity()] * 6), "block A must be unitary diagonal"),
        (lambda: BlockSolution.from_matrices(np.eye(2), np.eye(4)), "expected a 4x4 matrix"),
        (lambda: check_block_equations(np.eye(4), np.eye(2)), "expected a 4x4 matrix"),
        (lambda: split_blocks(np.eye(4)), "expected an 8x8 matrix"),
        (lambda: search_local_conjugation(ROWELL, ROWELL, shapes=("round",)), "unknown conjugator shape: 'round'"),
        (
            lambda: search_local_conjugation(ROWELL, ROWELL, shapes="diagonal"),
            "shapes must be a non-empty collection of names from "
            "('diagonal', 'antidiagonal', 'general'), got 'diagonal'",
        ),
        (
            lambda: search_local_conjugation(ROWELL, ROWELL, shapes=()),
            "shapes must be a non-empty collection of names from ('diagonal', 'antidiagonal', 'general'), got ()",
        ),
        (
            lambda: search_local_conjugation(ROWELL, ROWELL, None),
            "shapes must be a non-empty collection of names from ('diagonal', 'antidiagonal', 'general'), got None",
        ),
        (
            lambda: search_local_conjugation(ROWELL, ROWELL, shapes=3),
            "shapes must be a non-empty collection of names from ('diagonal', 'antidiagonal', 'general'), got 3",
        ),
        (
            lambda: gybe_objective(np.eye(4), ZeroPattern(np.ones((8, 8))), GybeSignature(2, 3, 1)),
            "candidate side 4 does not match pattern size 8",
        ),
    ],
)
def test_a_malformed_input_is_refused_with_its_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _entry(p: int, q: int) -> np.ndarray:
    u = np.zeros((16, 16), dtype=complex)
    u[p, q] = 1.0
    return u


@pytest.mark.parametrize(
    "gate",
    [
        np.zeros((16, 16)),  # the fitted lambda is 0 for every generator
        _entry(0, 2),  # sigma_1 is zero at the lone entry, and sigma_2 does not fit
    ],
    ids=["zero", "off-sigma_1"],
)
def test_a_gate_that_is_no_multiple_of_a_generator_is_not_recognized(gate):
    assert recognize_braiding_gate(REP, gate) is None


@pytest.mark.parametrize("i", [1, 2])
def test_a_vanishing_multiple_of_a_generator_is_recognized(i):
    # Two 1e-12 cutoffs used to refuse this gate; the tolerance alone decides.
    hit = recognize_braiding_gate(REP, 1e-13 * REP.generator(i), tol=1e-20)
    assert hit is not None and hit[0] == i
    assert abs(hit[1] - 1e-13) <= 1e-25
