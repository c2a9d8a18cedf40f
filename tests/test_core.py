"""Tests for the equation definitions, lifts, and far commutativity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gybe import linalg
from gybe.core import (
    MAX_MATRIX_SIDE,
    CheckReport,
    GybeSignature,
    RMatrix,
    braid_dimension,
    braid_generator_matrix,
    check_far_commutativity,
    check_gybe,
    check_ybe,
    double_lift_check,
    far_commutativity_indices,
    gybe_residual,
    lift_index,
    lift_pair,
    lifted_difference,
    ybe_summation_residual,
)
from gybe.equivalence import GaugeOp, apply_gauge
from gybe.solutions import (
    DiagBlock,
    assemble_quadrant,
    base_solution,
    family_solution,
    registry_ids,
    resolve_solution,
    rowell_solution,
    split_blocks,
    xshape_solution,
)


def test_signature_validation_and_sizes():
    sig = GybeSignature(2, 3, 1)
    assert sig.matrix_size == 8
    assert sig.lifted_size == 16
    assert str(sig) == "(2,3,1)"
    with pytest.raises(ValueError):
        GybeSignature(0, 3, 1)
    with pytest.raises(ValueError):
        GybeSignature(2, 3, 0)


def test_rmatrix_validates_shape_and_invertibility():
    with pytest.raises(ValueError):
        RMatrix(GybeSignature(2, 3, 1), linalg.identity(4))
    with pytest.raises(linalg.SingularMatrixError):
        RMatrix(GybeSignature(2, 1, 1), np.zeros((2, 2)))
    for bad in (np.nan, np.inf):
        m = linalg.identity(8)
        m[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            RMatrix(GybeSignature(2, 3, 1), m)


def test_rmatrix_is_immutable():
    r = rowell_solution()
    with pytest.raises(ValueError):
        r.matrix[0, 0] = 0.0


def test_check_gybe_zeta_solution():
    report = check_gybe(rowell_solution(), 1e-12)
    assert report.passed
    assert report.residual <= 1e-14
    assert len(report.detail) == 1


def test_check_gybe_identity_is_exact():
    for sig in (GybeSignature(2, 3, 1), GybeSignature(3, 2, 1), GybeSignature(2, 3, 2)):
        r = RMatrix(sig, linalg.identity(sig.matrix_size), "identity")
        assert check_gybe(r, 0.0).residual == 0.0


def test_check_gybe_random_unitaries_fail():
    rng = np.random.default_rng(12)
    for _ in range(10):
        r = RMatrix(GybeSignature(2, 3, 1), linalg.random_unitary(8, rng), "haar")
        report = check_gybe(r, 1e-12)
        assert not report.passed
        assert report.residual > 1e-3


def test_check_gybe_rejects_size_mismatch():
    with pytest.raises(ValueError):
        gybe_residual(linalg.identity(4), GybeSignature(2, 3, 1))


def test_check_ybe_family_three_theta_pi():
    x, y = split_blocks(family_solution(3, np.pi).matrix)
    assert linalg.max_abs_diff(x, y) <= 1e-12
    assert check_ybe(x, 1e-12).passed


def test_check_ybe_identity():
    assert check_ybe(linalg.identity(4), 1e-12).passed


def test_check_ybe_zeta_block_fails():
    x, _ = split_blocks(rowell_solution().matrix)
    report = check_ybe(x, 1e-12)
    assert not report.passed
    assert report.residual > 0.1


def test_check_ybe_rejects_non_square_dimension():
    with pytest.raises(ValueError):
        check_ybe(linalg.identity(6))


def test_check_ybe_rejects_non_finite_entries():
    # A NaN residual would otherwise come back as a failed check, not an input error.
    for check in (check_ybe, lambda m: ybe_summation_residual(m, 2)):
        with pytest.raises(ValueError, match="finite"):
            check(np.full((4, 4), np.nan))


def test_lifted_residual_matches_kron_reference():
    rng = np.random.default_rng(17)
    for name in registry_ids():
        r = resolve_solution(name)
        sig = r.signature
        pad = np.eye(sig.d**sig.l)
        # The solution itself, and a perturbation far from any solution.
        for m in (r.matrix, r.matrix + 0.1 * rng.standard_normal(r.matrix.shape)):
            left, right = np.kron(m, pad), np.kron(pad, m)
            reference = left @ right @ left - right @ left @ right
            lifted_left, lifted_right = lift_pair(m, sig.d**sig.l)
            np.testing.assert_array_equal(lifted_left, left)
            np.testing.assert_array_equal(lifted_right, right)
            np.testing.assert_allclose(lifted_difference(m, sig), reference, rtol=0, atol=1e-14)
            assert abs(gybe_residual(m, sig) - linalg.max_abs(reference)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    pad=st.integers(1, 5),
    batch=st.sampled_from([(), (1,), (3,), (2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lift_pair_is_the_kron_pair(n, pad, batch, seed):
    # Equal entry for entry; the gather writes +0.0 off the blocks where
    # kron's products with 0.0 may give -0.0.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n))
    m[rng.random(m.shape) < 0.3] = 0.0
    left, right = lift_pair(m, pad)
    table = lift_index(n, pad)
    assert table.shape == (2, n * pad, n * pad)
    assert table.min() >= 0 and table.max() <= n * n
    for index in np.ndindex(*batch):
        np.testing.assert_array_equal(left[index], np.kron(m[index], np.eye(pad)))
        np.testing.assert_array_equal(right[index], np.kron(np.eye(pad), m[index]))


def test_summation_form_agrees_with_lifted_products():
    rng = np.random.default_rng(13)
    for _ in range(3):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(
            ybe_summation_residual(m, 2) - gybe_residual(m, GybeSignature(2, 2, 1))
        ) <= 1e-12
    x, _ = split_blocks(family_solution(3, np.pi).matrix)
    assert ybe_summation_residual(x, 2) <= 1e-14


def test_double_lift_agreement():
    x, _ = split_blocks(family_solution(3, np.pi).matrix)
    report = double_lift_check(x, 1e-12)
    assert report.ybe.passed and report.gybe.passed and report.agree

    report = double_lift_check(linalg.identity(4), 1e-12)
    assert report.ybe.passed and report.gybe.passed

    zx, _ = split_blocks(rowell_solution().matrix)
    report = double_lift_check(zx, 1e-12)
    assert not report.ybe.passed and not report.gybe.passed and report.agree


def test_double_lift_agreement_on_random_samples():
    rng = np.random.default_rng(14)
    for _ in range(5):
        m = linalg.random_unitary(4, rng)
        assert double_lift_check(m, 1e-10).agree
    with pytest.raises(ValueError):
        double_lift_check(linalg.identity(8))


def test_braid_generator_two_strands_is_r_itself():
    r = rowell_solution()
    np.testing.assert_array_equal(braid_generator_matrix(r, 2, 1), r.matrix)


def test_braid_generators_three_strands():
    r = rowell_solution()
    g1 = braid_generator_matrix(r, 3, 1)
    g2 = braid_generator_matrix(r, 3, 2)
    assert g1.shape == g2.shape == (16, 16)
    np.testing.assert_array_equal(g1, np.kron(r.matrix, np.eye(2)))
    np.testing.assert_array_equal(g2, np.kron(np.eye(2), r.matrix))


def test_braid_generator_xshape_shift_two():
    r = xshape_solution()
    g2 = braid_generator_matrix(r, 3, 2)
    assert g2.shape == (32, 32)
    np.testing.assert_array_equal(g2, np.kron(np.eye(4), r.matrix))
    assert linalg.is_unitary(g2, 1e-12).passed


def test_braid_generator_index_validation():
    r = rowell_solution()
    with pytest.raises(ValueError):
        braid_generator_matrix(r, 3, 0)
    with pytest.raises(ValueError):
        braid_generator_matrix(r, 3, 3)
    with pytest.raises(ValueError):
        braid_generator_matrix(r, 1, 1)


def test_far_commutativity_vacuous_for_xshape():
    report = check_far_commutativity(xshape_solution(), 1e-12)
    assert report.passed and report.vacuous
    assert report.residual == 0.0
    assert report.detail == ()


def test_far_commutativity_family_two_base():
    report = check_far_commutativity(base_solution(2).to_rmatrix("base2"), 1e-12)
    assert report.passed and not report.vacuous
    assert len(report.detail) == 1  # only j = 3 qualifies for (2,3,1)


def test_far_commutativity_fails_with_non_diagonal_block():
    b = base_solution(1)
    x = b.x_matrix().copy()
    x[:2, :2] = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    r = RMatrix(GybeSignature(2, 3, 1), linalg.direct_sum(x, b.y_matrix()), "modified")
    report = check_far_commutativity(r, 1e-12)
    assert not report.passed
    assert report.residual > 0.1


def test_far_commutativity_vacuous_iff_2l_ge_m():
    cases = [
        (GybeSignature(2, 2, 1), True),
        (GybeSignature(2, 3, 1), False),
        (GybeSignature(2, 3, 2), True),
        (GybeSignature(2, 4, 1), False),
        (GybeSignature(2, 4, 2), True),
        (GybeSignature(2, 4, 3), True),
        (GybeSignature(2, 5, 2), False),
    ]
    for sig, expect_vacuous in cases:
        assert (2 * sig.l >= sig.m) == expect_vacuous
        assert (far_commutativity_indices(sig) == []) == expect_vacuous
        r = RMatrix(sig, linalg.identity(sig.matrix_size), "identity")
        assert check_far_commutativity(r).vacuous == expect_vacuous
    assert far_commutativity_indices(GybeSignature(2, 4, 1)) == [3, 4]
    for m in range(1, 13):
        for l in range(1, 7):
            want = [j for j in range(3, m + 3) if (j - 1) * l < m]
            assert far_commutativity_indices(GybeSignature(2, m, l)) == want


def test_core_paths_hit_the_dense_cap():
    # For (3,4,1) the pair (1, 4) spans 5 strands, side 3^7 = 2187.
    with pytest.raises(ValueError, match="dense cap"):
        check_far_commutativity(RMatrix(GybeSignature(3, 4, 1), linalg.identity(81)))
    # The lifted residual acts on 3 strands, side 2^11.
    with pytest.raises(ValueError, match="dense cap"):
        gybe_residual(linalg.identity(1024), GybeSignature(2, 10, 1))


def test_side_and_cap_tests_agree_with_the_power():
    for d in range(1, 5):
        for m in range(1, 13):
            sig = GybeSignature(d, m, 1)
            assert [s for s in range(1, 5000) if sig.has_side(s)] == [d**m] * (d**m < 5000)
            for n in range(2, 6):
                if d ** (m + n - 2) <= MAX_MATRIX_SIDE:
                    assert braid_dimension(sig, n) == d ** (m + n - 2)
                else:
                    with pytest.raises(ValueError, match=f"{d}\\^{m + n - 2} exceeds"):
                        braid_dimension(sig, n)


def test_far_commutativity_passes_for_random_diagonal_blocks():
    rng = np.random.default_rng(15)

    def rand_block():
        return DiagBlock(
            complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random())),
            complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random())),
        )

    for _ in range(5):
        blocks = [rand_block() for _ in range(8)]
        x = assemble_quadrant(*blocks[:4])
        y = assemble_quadrant(*blocks[4:])
        r = RMatrix(GybeSignature(2, 3, 1), linalg.direct_sum(x, y), "diag-blocks")
        assert check_far_commutativity(r, 1e-12).passed


def test_gauge_stability_of_solutions():
    rng = np.random.default_rng(16)
    for name in ("rowell", "xshape", "base1", "base2", "base3"):
        r = resolve_solution(name)
        scaled = apply_gauge(r, GaugeOp.scalar(1.3 * np.exp(0.91j)))
        assert check_gybe(scaled, 1e-11).passed
        inverted = apply_gauge(r, GaugeOp.inverse())
        assert check_gybe(inverted, 1e-12).passed
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        conjugated = apply_gauge(r, GaugeOp.local_conj(q))
        assert check_gybe(conjugated, 1e-9).passed


def test_check_report_json_shape():
    report = check_gybe(rowell_solution(), 1e-12)
    data = report.to_json_dict()
    assert set(data) == {"passed", "residual", "tolerance", "detail"}
    vac = check_far_commutativity(xshape_solution())
    assert vac.to_json_dict()["vacuous"] is True
    assert CheckReport(0.5, False, 1e-12).to_json_dict()["passed"] is False
