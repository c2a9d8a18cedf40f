"""Tests for the dense complex matrix toolbox."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from random_unitary import random_unitary

from gybe import cli, linalg
from gybe.solutions import base_solution, registry_ids, resolve_solution, rowell_solution

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
        u = random_unitary(3, rng)
        v = random_unitary(5, rng)
        assert linalg.unitarity_residual(linalg.direct_sum(u, v)) <= 1e-12
        bad = u + 0.1 * rng.standard_normal((3, 3))
        assert not linalg.unitarity_residual(linalg.direct_sum(bad, v)) <= 1e-6
        assert not linalg.unitarity_residual(linalg.direct_sum(u, 2 * v)) <= 1e-6


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
    assert linalg.unitarity_residual(rowell_solution().matrix) <= 1e-14


def test_is_unitary_scaled_identity_residual_three():
    residual = linalg.unitarity_residual(2 * linalg.identity(4))
    assert not residual <= 1e-12
    # (2I)(2I)^dagger - I = 3I entrywise.
    assert residual == pytest.approx(3.0, abs=1e-15)


@pytest.mark.parametrize("scale", [1.0, 1 + 1e-6, 2.0])
@pytest.mark.parametrize("name", registry_ids())
def test_unitarity_residual_of_a_scaled_solution_is_its_scale_defect(name, scale):
    # (sR)(sR)^dagger - I = (s^2 - 1) I + s^2 (RR^dagger - I), and every
    # registry solution is unitary to rounding.
    m = resolve_solution(name).matrix
    assert linalg.unitarity_residual(m) <= 1e-14
    assert linalg.unitarity_residual(scale * m) == pytest.approx(scale**2 - 1, abs=1e-13)


def test_unitarity_rejects_non_finite_entries():
    # A NaN residual used to come back as a failed check, not an input error.
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        m = linalg.identity(4)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            linalg.unitarity_residual(m)


@pytest.mark.parametrize(
    "lam",
    [0.0, 1e-200, 1e-13, 1.0, -2.5, 3 - 4j, 1e-7j, 1e150 * np.exp(0.3j)],
    ids=["zero", "1e-200", "1e-13", "one", "negative", "complex", "imaginary", "1e150"],
)
def test_scalar_fit_recovers_an_exact_multiple_at_any_magnitude(lam):
    rng = np.random.default_rng(41)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(linalg.scalar_fit(a, lam * a) - lam) <= 1e-14 * abs(lam)


def test_scalar_fit_leaves_a_residual_orthogonal_to_the_source():
    # Frobenius-optimal: <a, b - lambda a> = 0.
    rng = np.random.default_rng(42)
    a, b = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
    lam = linalg.scalar_fit(a, b)
    assert abs(np.vdot(a, b - lam * a)) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)


def test_inverse_identity():
    np.testing.assert_array_equal(linalg.inverse(linalg.identity(8)), linalg.identity(8))


def test_inverse_of_unitary_is_dagger():
    rng = np.random.default_rng(5)
    for n in (2, 4, 8):
        u = random_unitary(n, rng)
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
        u = random_unitary(n, rng)
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


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([2, 8]),
    smallest=st.floats(-16, -8),
    scale=st.floats(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_decides_as_the_svd_and_returns_the_bits_of_inv(n, smallest, scale, seed):
    # U diag(s) V^dagger times 10^scale, with min s = 10^smallest and the
    # others log-uniform in [min s, 1]: 2x2 as a GaugeOp's Q, 8x8 as an R.
    rng = np.random.default_rng(seed)
    s = 10.0 ** rng.uniform(smallest, 0.0, n)
    s[0] = 10.0**smallest
    a = 10.0**scale * (random_unitary(n, rng) * s) @ random_unitary(n, rng)
    if np.linalg.svd(a, compute_uv=False).min() < linalg.SINGULAR_VALUE_THRESHOLD:
        with pytest.raises(linalg.SingularMatrixError, match="smallest singular value"):
            linalg.inverse(a)
    else:
        assert linalg.inverse(a).tobytes() == np.linalg.inv(a).tobytes()


def test_inverse_of_a_well_conditioned_matrix_runs_no_svd(monkeypatch):
    rng = np.random.default_rng(11)
    monkeypatch.setattr(np.linalg, "svd", None)  # calling it would raise
    for n in (1, 2, 4, 8, 16):
        u = random_unitary(n, rng)
        assert linalg.inverse(u).tobytes() == np.linalg.inv(u).tobytes()


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
    got, expected = linalg.eigenvalues(base_solution(1).x_matrix()), linalg.sort_eigenvalues(expected)
    assert got.shape == expected.shape and linalg.max_abs_diff(got, expected) <= 1e-8


def test_eigenvalues_family_three_base_block():
    expected = [np.exp(-1j * np.pi / 4)] * 2 + [np.exp(1j * np.pi / 4)] * 2
    got, expected = linalg.eigenvalues(base_solution(3).x_matrix()), linalg.sort_eigenvalues(expected)
    assert got.shape == expected.shape and linalg.max_abs_diff(got, expected) <= 1e-8


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
        u = random_unitary(6, rng)
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
    a = linalg.sort_eigenvalues([1.0, 1j, 1j, -1.0])
    b = linalg.sort_eigenvalues([1j, -1.0, 1.0, 1j])
    assert a.shape == b.shape and linalg.max_abs_diff(a, b) <= 1e-12
    c = linalg.sort_eigenvalues([1.0, 1j, -1j, -1.0])
    assert a.shape == c.shape and not linalg.max_abs_diff(a, c) <= 1e-6
    assert a.shape != linalg.sort_eigenvalues([1.0, 1j]).shape


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


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(0, 5), cols=st.integers(0, 5), data=st.data())
def test_the_json_decoder_reads_what_the_encoder_writes(rows, cols, data):
    # Over every shape, a zero side included: what the encoder writes decodes
    # bit for bit, and a matrix with no entries neither encodes nor decodes.
    floats = data.draw(st.lists(FINITE_DOUBLES, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.array(floats, dtype=np.float64).view(np.complex128).reshape(rows, cols)
    if m.size:
        back = linalg.matrix_from_json(linalg.matrix_to_json(m))
        assert back.shape == m.shape and back.tobytes() == m.tobytes()
        return
    for encode in (linalg.matrix_to_json, linalg.matrix_to_json_dict, linalg.matrix_to_text):
        with pytest.raises(ValueError, match="with entries"):
            encode(m)
    with pytest.raises(ValueError, match="must be at least 1, got 0"):
        linalg.matrix_from_json(json.dumps({"rows": rows, "cols": cols, "entries": []}))


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


def _text_reference(m):
    """The plain-text matrix, one ``format`` call per part of every entry."""
    return "\n".join("  ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in row) for row in m.tolist())


def _printed(m):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_matrix(m)
    return out.getvalue()


def test_matrix_output_formats_each_value_once():
    # Values -1.0, -0.5, -0.0, 0.0 (beside a live part), 0.5 and 1.0, each
    # signed value apart; the +0.0+0.0j entries are not formatted at all.
    m = np.array([[0.0, -0.0, 0.5], [0.5j, -0.5, 1j], [0.0, -1.0 - 0.5j, 0.0]])
    calls = []

    def fmt(x):
        calls.append(x)
        return repr(x)

    live, words = linalg._live_words(m)
    assert live.tolist() == [1, 2, 3, 4, 5, 7]
    texts, index = linalg._part_texts(words, fmt)
    assert sorted(map(repr, calls)) == sorted(map(repr, [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]))
    want = [[repr(z.real), repr(z.imag)] for z in m.reshape(-1)[live].tolist()]
    assert np.take(texts, index).tolist() == want


# Both signed zeros in either part, so that +0.0+0.0j (which is never
# formatted) sits beside the three other zero patterns and nonzero entries.
SIGNED_ZERO_ENTRIES = st.builds(complex, *[st.sampled_from([0.0, -0.0, 0.5, -5e-324])] * 2)


@st.composite
def signed_zero_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("mixed", "no +0.0", "+0.0 only", "-0.0 only")))
    if kind == "+0.0 only":
        return np.zeros((rows, cols), dtype=np.complex128)
    if kind == "-0.0 only":
        return np.full((rows, cols), complex(-0.0, -0.0))
    entries = draw(st.lists(SIGNED_ZERO_ENTRIES, min_size=rows * cols, max_size=rows * cols))
    m = np.array(entries, dtype=np.complex128).reshape(rows, cols)
    if kind == "no +0.0":
        m[(m.view(np.uint64).reshape(rows, cols, 2) == 0).all(axis=-1)] = complex(0.0, -0.0)
    return m


@settings(max_examples=150, deadline=None)
@given(m=signed_zero_matrices())
def test_matrix_output_keeps_every_zero_pattern_apart(m):
    assert linalg.matrix_to_json(m) == _dumps_reference(m)
    assert linalg.matrix_to_text(m) == _text_reference(m)


# Magnitudes on both sides of float repr's switches to exponent form (1e-4
# and 1e16), subnormals, the largest double, and a few plain values.
SPARSE_MAGNITUDES = st.sampled_from([
    0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 9.999999999999999e-05, 1e-4,
    0.00010000000000000002, 9999999999999998.0, 1e16, 1.0000000000000002e16,
    0.5, 1 / 3, 1.7976931348623157e308,
])
SIGNS = st.sampled_from([1.0, -1.0])


@st.composite
def sparse_matrices(draw):
    """Entries of a few shared magnitudes, ±0.0 in either part, and +0.0+0.0j
    laid out as no entry, every entry, a random subset, or a subset that
    starts and ends with a zero run; 1x1, single rows and single columns."""
    rows, cols = draw(
        st.sampled_from([(1, 1), (1, 7), (7, 1)]) | st.tuples(st.integers(1, 6), st.integers(1, 6))
    )
    size = rows * cols
    layout = draw(st.sampled_from(("no zero", "all zero", "sparse", "zero ends")))
    parts = draw(st.lists(st.tuples(SIGNS, SPARSE_MAGNITUDES, SIGNS, SPARSE_MAGNITUDES, st.booleans()),
                          min_size=size, max_size=size))
    # A mirrored entry has the real magnitude in its imaginary part, with the opposite sign.
    m = np.array([complex(a * x, -a * x if mirror else b * y) for a, x, b, y, mirror in parts])
    if layout == "all zero":
        m[:] = 0.0
    elif layout != "no zero":
        m[~np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))] = 0.0
        if layout == "zero ends":
            m[[0, -1]] = 0.0
    zero = (m.view(np.uint64).reshape(size, 2) == 0).all(axis=-1)
    if layout == "no zero":
        m[zero] = complex(-0.0, 0.0)
    else:
        assert layout != "zero ends" or (zero[0] and zero[-1])
    return m.reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(m=sparse_matrices())
def test_matrix_json_of_sparse_matrices_is_that_of_json_dumps(m):
    assert linalg.matrix_to_json(m) == json.dumps(linalg.matrix_to_json_dict(m), allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(m=sparse_matrices())
def test_printed_matrix_of_sparse_matrices_formats_every_entry(m):
    assert _printed(m) == _text_reference(m) + "\n"


def test_matrix_to_json_rejects_non_finite_entries():
    # In either part, signed (a NaN with its sign bit set, as an overflowing
    # product leaves it, too), next to zero parts (0.0 + nan·i), and as the
    # first, a middle and the last entry of a matrix that is mostly +0.0; the
    # JSON and the plain-text encoders alike.
    values = (np.nan, -np.float64(np.nan), np.inf, -np.inf)
    bads = values + tuple(complex(0.0, v) for v in values) + (complex(-1.0, np.inf),)
    for encode in (linalg.matrix_to_json, linalg.matrix_to_text):
        for bad in bads:
            for at in (0, 2, 5):
                m = np.zeros((2, 3), dtype=np.complex128)
                m[0, 1] = 1.0
                m.flat[at] = bad
                with pytest.raises(ValueError, match="finite"):
                    encode(m)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        linalg.matrix_from_json('{"rows": 2, "cols": 2, "entries": [[1, 0]]}')
    with pytest.raises(ValueError):
        linalg.matrix_from_json('{"rows": 1, "cols": 1, "entries": [[1, 0, 0]]}')
    with pytest.raises(ValueError):
        linalg.matrix_from_json('{"cols": 1, "entries": [[1, 0]]}')
    for rows, cols in (("1.9", "1"), ('"1"', "1"), ("true", "true"), ("1", "1.0"), ("null", "1")):
        with pytest.raises(ValueError, match="^(rows|cols) must be an integer, got "):
            linalg.matrix_from_json(f'{{"rows": {rows}, "cols": {cols}, "entries": [[1, 0]]}}')
    for entries in (
        "5", "[1, 0]", "[[1, 0], [1]]", "[[1, 0], [[1], 0]]", '"ab"', '[["a", "b"]]', "[[{}, 0]]",
        '[["1.5", true]]', '[["1.5", 0]]', "[[1, false]]", "[[null, 0]]",
    ):
        with pytest.raises(ValueError, match="malformed matrix JSON"):
            linalg.matrix_from_json(f'{{"rows": 1, "cols": 1, "entries": {entries}}}')
    # JSON integers are numbers and still decode.
    assert linalg.matrix_from_json('{"rows": 1, "cols": 1, "entries": [[2, -1]]}')[0, 0] == 2 - 1j
    with pytest.raises(ValueError, match="^rows must be at least 1, got 0$"):
        linalg.matrix_from_json('{"rows": 0, "cols": 1, "entries": []}')
    for bad in ("NaN", "Infinity", "-Infinity"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a non-finite entry warns about nothing
            with pytest.raises(ValueError, match="finite"):
                linalg.matrix_from_json(
                    f'{{"rows": 1, "cols": 2, "entries": [[1, 0], [0, {bad}]]}}'
                )


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False))
def test_real_reads_every_repr_of_a_float(x):
    # Command-line reals come as repr texts: the bench pools, --alpha nan,0.
    y = linalg.real(repr(x))
    assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)


def test_real_reads_plain_decimals_only():
    assert math.isnan(linalg.real("nan"))
    assert math.copysign(1.0, linalg.real("-0.0")) == -1.0
    assert [linalg.real(t) for t in ("1", "1.", ".5", "-2.5e-3", "1e+16")] == [1.0, 1.0, 0.5, -2.5e-3, 1e16]
    # float() reads each of these; the first four as 1, 0.3, 1 and 0.3.
    for text in ("0_1", "٠.٣", "+1", " 0.3", "1E5", "NaN", "-nan", "Infinity", "1e", ".", "-", "1.2.3", ""):
        with pytest.raises(ValueError, match="^not a decimal real number: "):
            linalg.real(text)
