"""Tests for the dense complex matrix toolbox."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gybe import linalg
from gybe.solutions import base_solution, rowell_solution

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_kron_identity_case():
    np.testing.assert_array_equal(
        linalg.kron(linalg.identity(2), linalg.identity(2)), linalg.identity(4)
    )


def test_kron_diagonal_case():
    omega = np.exp(0.73j)
    got = linalg.kron(np.diag([1, omega]), linalg.identity(2))
    np.testing.assert_allclose(got, np.diag([1, 1, omega, omega]), atol=1e-15)


def test_kron_pauli_expansion():
    # Expanding block (i, j) = sigma_x[i, j] * sigma_z by hand.
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(linalg.kron(SIGMA_X, SIGMA_Z), expected)


def test_kron_mixed_product_identity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, c = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        b, d = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        lhs = linalg.kron(a, b) @ linalg.kron(c, d)
        rhs = linalg.kron(a @ c, b @ d)
        assert linalg.max_abs_diff(lhs, rhs) <= 1e-12


def test_kron_associativity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b, c = (
            rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
            for _ in range(3)
        )
        lhs = linalg.kron(linalg.kron(a, b), c)
        rhs = linalg.kron(a, linalg.kron(b, c))
        assert linalg.max_abs_diff(lhs, rhs) <= 1e-15


def test_kron_power():
    q = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(linalg.kron_power(q, 0), linalg.identity(1))
    np.testing.assert_array_equal(
        linalg.kron_power(q, 3), np.kron(np.kron(q, q), q)
    )
    with pytest.raises(ValueError):
        linalg.kron_power(q, -1)


def test_direct_sum_identity():
    np.testing.assert_array_equal(
        linalg.direct_sum(linalg.identity(2), linalg.identity(2)), linalg.identity(4)
    )


def test_direct_sum_of_transcribed_blocks_reproduces_zeta_solution():
    # The two 4x4 blocks transcribed directly, joined by direct_sum.
    zeta = np.exp(2j * np.pi / 8)
    zi = zeta ** (-1)
    s = 1 / np.sqrt(2)
    x = s * np.array(
        [[zi, 0, -zi, 0], [0, zeta, 0, zeta], [zeta, 0, zeta, 0], [0, -zi, 0, zi]]
    )
    y = s * np.array(
        [[zeta, 0, zeta, 0], [0, zi, 0, -zi], [-zi, 0, zi, 0], [0, zeta, 0, zeta]]
    )
    assert linalg.max_abs_diff(
        linalg.direct_sum(x, y), rowell_solution().matrix
    ) <= 1e-15


def test_direct_sum_identical_blocks():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = linalg.direct_sum(x, x)
    assert out.shape == (8, 8)
    np.testing.assert_array_equal(out[:4, :4], x)
    np.testing.assert_array_equal(out[4:, 4:], x)
    assert linalg.max_abs(out[:4, 4:]) == 0
    assert linalg.max_abs(out[4:, :4]) == 0


def test_direct_sum_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.direct_sum(np.ones((2, 3)), linalg.identity(2))


def test_direct_sum_unitary_iff_blocks_unitary():
    rng = np.random.default_rng(3)
    for _ in range(4):
        u = linalg.random_unitary(3, rng)
        v = linalg.random_unitary(5, rng)
        assert linalg.is_unitary(linalg.direct_sum(u, v), 1e-12).passed
        bad = u + 0.1 * rng.standard_normal((3, 3))
        assert not linalg.is_unitary(linalg.direct_sum(bad, v), 1e-6).passed
        assert not linalg.is_unitary(linalg.direct_sum(u, 2 * v), 1e-6).passed


def test_dagger_known_matrix():
    a = np.array([[1 + 1j, 2 - 1j], [3, 4 + 2j]])
    expected = np.array([[1 - 1j, 3], [2 + 1j, 4 - 2j]])
    np.testing.assert_array_equal(linalg.dagger(a), expected)


def test_dagger_involution():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    np.testing.assert_array_equal(linalg.dagger(linalg.dagger(m)), m)


def test_dagger_acts_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    daggered = linalg.dagger(stack)
    assert daggered.shape == stack.shape
    for index in np.ndindex(2, 3):
        np.testing.assert_array_equal(daggered[index], linalg.dagger(stack[index]))
    with pytest.raises(ValueError, match="shape"):
        linalg.dagger(np.ones(3))


def test_frozen_is_a_read_only_copy():
    source = np.arange(4.0)
    out = linalg.frozen(source)
    assert not out.flags.writeable and source.flags.writeable
    source[0] = 9.0
    assert out[0] == 0.0
    with pytest.raises(ValueError):
        out[1] = 5.0
    # A read-only source still gives a copy.
    assert linalg.frozen(out) is not out


def test_is_unitary_zeta_solution():
    check = linalg.is_unitary(rowell_solution().matrix, 1e-12)
    assert check.passed
    assert bool(check) is True
    assert check.residual <= 1e-14


def test_is_unitary_scaled_identity_residual_three():
    check = linalg.is_unitary(2 * linalg.identity(4), 1e-12)
    assert not check.passed
    assert bool(check) is False
    # (2I)(2I)^dagger - I = 3I entrywise.
    assert check.residual == pytest.approx(3.0, abs=1e-15)


def test_unitarity_rejects_non_finite_entries():
    # A NaN residual used to come back as a failed check, not an input error.
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        m = linalg.identity(4)
        m[1, 2] = bad
        for check in (linalg.unitarity_residual, linalg.is_unitary):
            with pytest.raises(ValueError, match="finite"):
                check(m)


def test_inverse_identity():
    np.testing.assert_array_equal(linalg.inverse(linalg.identity(8)), linalg.identity(8))


def test_inverse_of_unitary_is_dagger():
    rng = np.random.default_rng(5)
    for n in (2, 4, 8):
        u = linalg.random_unitary(n, rng)
        assert linalg.max_abs_diff(linalg.inverse(u), linalg.dagger(u)) <= 1e-10


def test_inverse_diagonal():
    got = linalg.inverse(np.diag([2.0, 1j]))
    np.testing.assert_allclose(got, np.diag([0.5, -1j]), atol=1e-14)


def test_inverse_contract_residual():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert linalg.max_abs_diff(m @ linalg.inverse(m), linalg.identity(8)) <= 1e-10
    for n in (1, 2, 3, 4, 8, 16):
        # Unitary times a diagonal with moduli in [0.5, 2]: condition number <= 4.
        u = linalg.random_unitary(n, rng)
        m = u @ np.diag(rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 6.3, n)))
        assert linalg.max_abs_diff(m @ linalg.inverse(m), linalg.identity(n)) <= 1e-12
        assert linalg.max_abs_diff(linalg.inverse(m) @ m, linalg.identity(n)) <= 1e-12


def test_inverse_singular_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.inverse(np.ones((2, 3)))


def test_inverse_rejects_non_finite_entries():
    # numpy's SVD raises its own LinAlgError on NaN; the gate comes first.
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        with pytest.raises(linalg.SingularMatrixError, match="non-finite"):
            linalg.inverse(m)


def test_inverse_gate_boundary():
    threshold = linalg.SINGULAR_VALUE_THRESHOLD
    for t in (0.0, threshold / 2, np.nextafter(threshold, 0.0)):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inverse(np.diag([1.0, t]))
    for t in (threshold, 2 * threshold):
        np.testing.assert_allclose(
            linalg.inverse(np.diag([1.0, t])), np.diag([1.0, 1.0 / t]), rtol=1e-15
        )


def test_determinant_matches_eigenvalue_product():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        eig_prod = np.prod(linalg.eigenvalues(m))
        assert abs(eig_prod - np.linalg.det(m)) <= 1e-8


def test_eigenvalues_identity():
    np.testing.assert_allclose(
        linalg.eigenvalues(linalg.identity(4)), np.ones(4), atol=1e-12
    )


def test_eigenvalues_family_one_base_block():
    expected = [np.exp(-1j * np.pi / 12)] * 2 + [np.exp(7j * np.pi / 12)] * 2
    got = linalg.eigenvalues(base_solution(1).x_matrix())
    assert linalg.eigenvalue_multisets_close(got, expected, 1e-8)


def test_eigenvalues_family_three_base_block():
    expected = [np.exp(-1j * np.pi / 4)] * 2 + [np.exp(1j * np.pi / 4)] * 2
    got = linalg.eigenvalues(base_solution(3).x_matrix())
    assert linalg.eigenvalue_multisets_close(got, expected, 1e-8)


def test_eigenvalues_satisfy_char_poly():
    # lambda is a root of det(m - lambda I) iff m - lambda I is singular.
    rng = np.random.default_rng(9)
    for n in (4, 8):
        m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        for lam in linalg.eigenvalues(m):
            smallest = np.linalg.svd(m - lam * linalg.identity(n), compute_uv=False)[-1]
            assert smallest <= 1e-8


def test_eigenvalues_of_unitary_lie_on_circle():
    rng = np.random.default_rng(10)
    for _ in range(4):
        u = linalg.random_unitary(6, rng)
        assert np.all(np.abs(np.abs(linalg.eigenvalues(u)) - 1.0) <= 1e-8)


def test_eigenvalues_size_cap():
    with pytest.raises(ValueError):
        linalg.eigenvalues(np.eye(17))


def _tuple_sorted(values):
    """The canonical order as a Python sort of (round(re), round(im), re, im) keys."""
    vals = np.asarray(values, dtype=np.complex128)
    keys = [(round(v.real, 6), round(v.imag, 6), v.real, v.imag) for v in vals]
    return vals[sorted(range(len(vals)), key=lambda i: keys[i])]


# Points of the 1e-6 grid and the rounding ties halfway between them, each
# with its neighbours one ulp below and above, and both signed zeros.
def _grid_parts(half_steps: list[int]) -> list[float]:
    parts = [0.0, -0.0]
    for k in half_steps:
        point = k * 5e-7
        parts += [float(np.nextafter(point, -np.inf)), point, float(np.nextafter(point, np.inf))]
    return parts


@settings(max_examples=300, deadline=None)
@given(
    half_steps=st.lists(st.integers(-4_000_000, 4_000_000), min_size=1, max_size=3),
    picks=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=12),
)
def test_sort_eigenvalues_matches_the_tuple_sort(half_steps, picks):
    # Values are built from a few parts, so repeats, near-ties and ties
    # broken only by the exact parts are common.
    parts = _grid_parts(half_steps)
    values = np.array([complex(parts[i % len(parts)], parts[j % len(parts)]) for i, j in picks])
    got, expected = linalg.sort_eigenvalues(values), _tuple_sorted(values)
    assert got.tobytes() == expected.tobytes()


def test_eigenvalue_multiset_comparison():
    a = [1.0, 1j, 1j, -1.0]
    b = [1j, -1.0, 1.0, 1j]
    assert linalg.eigenvalue_multisets_close(a, b, 1e-12)
    assert not linalg.eigenvalue_multisets_close(a, [1.0, 1j, -1j, -1.0], 1e-6)
    assert not linalg.eigenvalue_multisets_close(a, [1.0, 1j], 1e-6)


def test_matrix_json_shape():
    data = linalg.matrix_to_json_dict(linalg.identity(2))
    assert data == {
        "rows": 2,
        "cols": 2,
        "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    }
    assert json.loads(json.dumps(data)) == data


# Finite doubles, with -0.0, subnormals and the extremes drawn often.
FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7976931348623157e308]),
)


@st.composite
def complex_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = 2 * rows * cols
    floats = draw(st.lists(FINITE_DOUBLES, min_size=size, max_size=size))
    return np.array(floats, dtype=np.float64).view(np.complex128).reshape(rows, cols)


@settings(max_examples=100, deadline=None)
@given(m=complex_matrices())
def test_matrix_json_round_trip_is_exact(m):
    back = linalg.matrix_from_json(linalg.matrix_to_json(m))
    assert back.shape == m.shape and back.dtype == np.complex128
    assert back.tobytes() == m.tobytes()


def _dumps_reference(m):
    return json.dumps(linalg.matrix_to_json_dict(m), allow_nan=False)


# A few values, so that entries repeat and mix zeros of both signs and subnormals.
POOLED_DOUBLES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1 / 3, 1e308])


@st.composite
def pooled_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = 2 * rows * cols
    floats = draw(st.lists(POOLED_DOUBLES, min_size=size, max_size=size))
    return np.array(floats, dtype=np.float64).view(np.complex128).reshape(rows, cols)


@settings(max_examples=100, deadline=None)
@given(m=st.one_of(complex_matrices(), pooled_matrices()))
def test_matrix_json_text_is_that_of_json_dumps(m):
    assert linalg.matrix_to_json(m) == _dumps_reference(m)
    # A transposed view is not contiguous, and a state is a single column.
    assert linalg.matrix_to_json(m.T) == _dumps_reference(m.T)
    column = m.reshape(-1, 1)
    assert linalg.matrix_to_json(column) == _dumps_reference(column)


def test_format_entries_formats_each_bit_pattern_once():
    m = np.array([[0.0, -0.0, 0.0], [1j, -0.0, 1j]])
    calls = []

    def fmt(z):
        calls.append(z)
        return repr(z)

    texts = linalg.format_entries(m, fmt)
    assert texts.shape == m.shape
    assert texts.tolist() == [[repr(complex(v)) for v in row] for row in m]
    assert len(calls) == 3  # 0.0 and -0.0 are told apart by their bits


def test_matrix_to_json_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            linalg.matrix_to_json(np.array([[1.0, bad]]))


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        linalg.matrix_from_json('{"rows": 2, "cols": 2, "entries": [[1, 0]]}')
    with pytest.raises(ValueError):
        linalg.matrix_from_json('{"rows": 1, "cols": 1, "entries": [[1, 0, 0]]}')
    with pytest.raises(ValueError):
        linalg.matrix_from_json('{"cols": 1, "entries": [[1, 0]]}')
    for rows, cols in (("1.9", "1"), ('"1"', "1"), ("true", "true"), ("1", "1.0"), ("null", "1")):
        with pytest.raises(ValueError, match="rows and cols must be integers"):
            linalg.matrix_from_json(f'{{"rows": {rows}, "cols": {cols}, "entries": [[1, 0]]}}')
    for entries in (
        "5", "[1, 0]", "[[1, 0], [1]]", "[[1, 0], [[1], 0]]", '"ab"', '[["a", "b"]]', "[[{}, 0]]",
        '[["1.5", true]]', '[["1.5", 0]]', "[[1, false]]", "[[null, 0]]",
    ):
        with pytest.raises(ValueError, match="malformed matrix JSON"):
            linalg.matrix_from_json(f'{{"rows": 1, "cols": 1, "entries": {entries}}}')
    # JSON integers are numbers and still decode.
    assert linalg.matrix_from_json('{"rows": 1, "cols": 1, "entries": [[2, -1]]}')[0, 0] == 2 - 1j
    with pytest.raises(ValueError, match="positive dimensions"):
        linalg.matrix_from_json('{"rows": 0, "cols": 1, "entries": []}')
    for bad in ("NaN", "Infinity", "-Infinity"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a non-finite entry warns about nothing
            with pytest.raises(ValueError, match="finite"):
                linalg.matrix_from_json(
                    f'{{"rows": 1, "cols": 2, "entries": [[1, 0], [0, {bad}]]}}'
                )
