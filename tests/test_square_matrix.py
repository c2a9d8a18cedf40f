"""The one input gate, linalg.square_matrix, at every entry point that reads a matrix through it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gybe import linalg
from gybe.braiding import build_rep, recognize_braiding_gate
from gybe.core import GybeSignature, RMatrix, check_ybe, ybe_summation_residual
from gybe.search import dedup_key, gybe_objective, rowell_pattern
from gybe.solutions import (
    BLOCK_SLOTS,
    block_parameters,
    check_block_equations,
    rowell_solution,
    split_blocks,
)

ROWELL = rowell_solution()
X, Y = split_blocks(ROWELL.matrix)
REP = build_rep(ROWELL, 2)

# (entry point, the name its errors give the input, a matrix it accepts).
ENTRY_POINTS = {
    "RMatrix": (lambda m: RMatrix(ROWELL.signature, m), "R-matrix", ROWELL.matrix),
    "check_ybe": (check_ybe, "YBE candidate", np.eye(4)),
    "ybe_summation_residual": (lambda m: ybe_summation_residual(m, 2), "YBE candidate", np.eye(4)),
    "unitarity_residual": (linalg.unitarity_residual, "unitarity candidate", ROWELL.matrix),
    "eigenvalues": (linalg.eigenvalues, "eigenvalue input", ROWELL.matrix),
    "ZeroPattern.accepts": (lambda m: rowell_pattern().accepts(m), "candidate", ROWELL.matrix),
    "gybe_objective": (
        lambda m: gybe_objective(m, rowell_pattern(), GybeSignature(2, 3, 1)), "candidate", ROWELL.matrix,
    ),
    "dedup_key": (dedup_key, "dedup key input", ROWELL.matrix),
    "recognize_braiding_gate": (lambda m: recognize_braiding_gate(REP, m), "gate", ROWELL.matrix),
    "block_parameters": (block_parameters, "block-solution matrix", ROWELL.matrix),
    "check_block_equations X": (lambda m: check_block_equations(m, Y), "block X", X),
    "check_block_equations Y": (lambda m: check_block_equations(X, m), "block Y", Y),
}

# Each bad input, as a function of an accepted matrix and a drawn flat
# index, and the check of the gate that rejects it.
BAD_INPUTS = {
    "nan": (lambda m, k: _with_entry(m, k, np.nan), "must have finite entries"),
    "inf": (lambda m, k: _with_entry(m, k, np.inf), "must have finite entries"),
    "-inf": (lambda m, k: _with_entry(m, k, complex(0.0, -np.inf)), "must have finite entries"),
    "non-square": (lambda m, k: m[:, :-1], "must be a non-empty square matrix"),
    "1-D": (lambda m, k: m.reshape(-1), "must be a non-empty square matrix"),
    "0x0": (lambda m, k: np.zeros((0, 0)), "must be a non-empty square matrix"),
}


def _with_entry(m, k, value):
    out = np.array(m, dtype=np.complex128)
    out.flat[k] = value
    return out


@pytest.mark.parametrize("bad", BAD_INPUTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_every_entry_point_rejects_a_bad_matrix_naming_the_input(entry, bad, data):
    call, name, good = ENTRY_POINTS[entry]
    make, check = BAD_INPUTS[bad]
    k = data.draw(st.integers(0, good.size - 1), label="entry")
    with pytest.raises(ValueError, match=f"^{name} {check}"):
        call(make(good, k))


def test_every_entry_point_accepts_its_matrix():
    for call, _, good in ENTRY_POINTS.values():
        call(good)


def test_the_gate_returns_the_complex_matrix():
    m = linalg.square_matrix([[1, 2], [3, 4]], "m")
    assert m.dtype == np.complex128 and m.shape == (2, 2)
    for bad in ([[1, 2]], [1, 2], np.zeros((0, 0)), np.zeros((0, 2))):
        with pytest.raises(ValueError) as raised:
            linalg.square_matrix(bad, "m")
        assert str(raised.value) == f"m must be a non-empty square matrix, got shape {np.shape(bad)}"


def test_a_nan_in_the_q_slot_of_A_is_not_read_as_omega():
    # omega is read from A's q; a NaN there used to come back as omega = nan.
    m = ROWELL.matrix.copy()
    np.put(m, BLOCK_SLOTS[0, 1], np.nan)
    with pytest.raises(ValueError, match="^block-solution matrix must have finite entries$"):
        block_parameters(m)


def test_a_nan_block_has_no_block_equation_report():
    # A NaN block used to give a report with a NaN residual.
    for x, y, name in ((np.full((4, 4), np.nan), Y, "block X"), (X, np.full((4, 4), np.nan), "block Y")):
        with pytest.raises(ValueError, match=f"^{name} must have finite entries$"):
            check_block_equations(x, y)
