"""Tests for gauge operations, invariants, and the witness search."""

import numpy as np
import pytest
from central_differences import central_differences
from hypothesis import given, settings
from hypothesis import strategies as st

from gybe import equivalence, linalg, optimize
from gybe.core import GybeSignature, RMatrix, check_gybe
from gybe.equivalence import (
    WITNESS_TOL,
    EquivalenceWitness,
    GaugeOp,
    apply_gauge,
    apply_gauge_sequence,
    conjugacy_invariants,
    invariants_close,
    is_locally_conjugate_params,
    search_equivalence,
    search_local_conjugation,
)
from gybe.solutions import (
    GeneralParams,
    base_solution,
    family_solution,
    general_solution,
    registry_ids,
    resolve_solution,
    rowell_solution,
    split_blocks,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)


def test_gauge_op_validation():
    with pytest.raises(ValueError):
        GaugeOp.scalar(0)
    for bad in (complex("nan"), complex("inf"), complex(0, -np.inf), complex(1, np.nan)):
        with pytest.raises(ValueError, match="finite nonzero lambda"):
            GaugeOp.scalar(bad)
    with pytest.raises(linalg.SingularMatrixError):
        GaugeOp.local_conj(np.ones((2, 2)))
    for bad in (np.nan, np.inf):
        with pytest.raises(linalg.SingularMatrixError, match="non-finite"):
            GaugeOp.local_conj(np.full((2, 2), bad))
    with pytest.raises(ValueError):
        GaugeOp("warp")
    with pytest.raises(ValueError):
        GaugeOp("local_conj")


def test_scalar_identity_op():
    r = rowell_solution()
    out = apply_gauge(r, GaugeOp.scalar(1))
    assert linalg.max_abs_diff(out.matrix, r.matrix) == 0.0


def test_inverse_of_zeta_solution_still_solves():
    out = apply_gauge(rowell_solution(), GaugeOp.inverse())
    assert check_gybe(out, 1e-12).passed


def test_local_conjugation_preserves_solutions():
    rng = np.random.default_rng(21)
    q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    out = apply_gauge(base_solution(2).to_rmatrix("base2"), GaugeOp.local_conj(q))
    assert check_gybe(out, 1e-9).passed


def test_local_conjugation_checks_dimension():
    with pytest.raises(ValueError):
        apply_gauge(rowell_solution(), GaugeOp.local_conj(np.eye(3)))


def test_gauge_ops_preserve_verdict_on_non_solutions():
    rng = np.random.default_rng(22)
    r = RMatrix(GybeSignature(2, 3, 1), linalg.random_unitary(8, rng), "haar")
    assert not check_gybe(r, 1e-9).passed
    for op in (GaugeOp.scalar(2.0), GaugeOp.inverse(), GaugeOp.local_conj(I2 + 0.2 * SIGMA_X)):
        assert not check_gybe(apply_gauge(r, op), 1e-9).passed


@pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_local_conjugation_matches_kron_reference(d, m):
    # A non-symmetric Q catches a lift that applies Q transposed.
    rng = np.random.default_rng([27, d, m])
    q = linalg.identity(d) + 0.4 * _complex_normal(rng, d)
    r = RMatrix(GybeSignature(d, m, 1), _complex_normal(rng, d**m))
    want = linalg.kron_power(linalg.inverse(q), m) @ r.matrix @ linalg.kron_power(q, m)
    got = apply_gauge(r, GaugeOp.local_conj(q)).matrix
    assert linalg.max_abs_diff(got, want) <= 1e-12 * linalg.max_abs(want)


def _complex_normal(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _gauge_move(kind: str, seed: int) -> tuple[GaugeOp, float]:
    """A gauge move with |lambda| in [0.8, 1.25] and cond(Q) <= 1.25, and the
    factor by which it may scale a GYBE residual.  The residual is cubic in
    R; conjugation by Q^⊗m scales R by at most cond(Q)^m, so the caller
    raises the returned cond(Q)^3 to the m-th power.  Inversion keeps R of
    the form lambda (Q^-1)^⊗m U Q^⊗m with U unitary, whose bounds these
    factors already cover."""
    rng = np.random.default_rng(seed)
    if kind == "inverse":
        return GaugeOp.inverse(), 1.0
    if kind == "scalar":
        size = rng.uniform(0.8, 1.25)
        return GaugeOp.scalar(size * np.exp(2j * np.pi * rng.random())), max(size, 1 / size) ** 3
    smallest = rng.uniform(0.8, 1.0)
    q = linalg.random_unitary(2, rng) @ np.diag([1.0, smallest]) @ linalg.random_unitary(2, rng)
    return GaugeOp.local_conj(q), smallest ** -3


@settings(max_examples=40, deadline=None)
@given(
    moves=st.lists(
        st.tuples(st.sampled_from(("scalar", "inverse", "local_conj")), st.integers(0, 2**32 - 1)),
        max_size=4,
    )
)
def test_gauge_moves_preserve_the_gybe_verdict(moves):
    """Solutions stay solutions and 1e-3-perturbed ones stay non-solutions
    under any bounded gauge sequence, at a tolerance scaled by the moves."""
    rng = np.random.default_rng(28)
    for name in registry_ids():
        exact = resolve_solution(name)
        noise = _complex_normal(rng, exact.size)
        perturbed = RMatrix(exact.signature, exact.matrix + 1e-3 * noise / linalg.max_abs(noise))
        tol = 1e-12
        for kind, seed in moves:
            op, scale = _gauge_move(kind, seed)
            tol *= scale ** exact.signature.m if kind == "local_conj" else scale
            exact, perturbed = apply_gauge(exact, op), apply_gauge(perturbed, op)
        assert check_gybe(exact, tol).passed
        assert not check_gybe(perturbed, tol).passed


def test_scalar_op_scales_eigenvalues():
    lam = 1.7 * np.exp(0.3j)
    r = rowell_solution()
    scaled = apply_gauge(r, GaugeOp.scalar(lam))
    before = linalg.eigenvalues(r.matrix)
    after = linalg.eigenvalues(scaled.matrix)
    assert linalg.eigenvalue_multisets_close(after / lam, before, 1e-8)


def test_conjugacy_invariants_of_base_blocks():
    # Explicit conjugators carrying X onto Y for the three reduced solutions.
    conjugators = {
        1: np.block([[Z2, 1j * SIGMA_Z], [I2, Z2]]),
        2: np.block([[Z2, SIGMA_X], [SIGMA_X, Z2]]),
        3: np.block([[Z2, I2], [I2, Z2]]),
    }
    for k, p in conjugators.items():
        b = base_solution(k)
        x, y = b.x_matrix(), b.y_matrix()
        assert linalg.max_abs_diff(linalg.dagger(p) @ x @ p, y) <= 1e-12
        assert invariants_close(conjugacy_invariants(x), conjugacy_invariants(y))


def test_conjugacy_invariants_char_poly_small_cases():
    inv = conjugacy_invariants(np.diag([2.0, 3.0]))
    np.testing.assert_allclose(inv.char_poly, [1.0, -5.0, 6.0], atol=1e-12)
    # Cayley-Hamilton: the characteristic polynomial annihilates its matrix.
    rng = np.random.default_rng(8)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    p_of_m = np.zeros((5, 5), dtype=complex)
    for c in conjugacy_invariants(m).char_poly:
        p_of_m = p_of_m @ m + c * np.eye(5)
    assert linalg.max_abs(p_of_m) <= 1e-9


def test_conjugacy_invariants_distinguish_families():
    x1 = base_solution(1).x_matrix()
    x3 = base_solution(3).x_matrix()
    assert not invariants_close(conjugacy_invariants(x1), conjugacy_invariants(x3))


def test_conjugacy_invariants_under_permutation():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    perm = np.eye(4)[[2, 0, 3, 1]]
    assert invariants_close(
        conjugacy_invariants(m), conjugacy_invariants(perm.T @ m @ perm)
    )


def test_conjugacy_invariants_under_unitary_conjugation():
    rng = np.random.default_rng(24)
    x, _ = split_blocks(rowell_solution().matrix)
    for _ in range(3):
        u = linalg.random_unitary(4, rng)
        assert invariants_close(
            conjugacy_invariants(x), conjugacy_invariants(linalg.dagger(u) @ x @ u)
        )
    # The same stability holds for the whole matrix under the unitary
    # local-conjugation gauge move.
    r = rowell_solution()
    for _ in range(3):
        q = linalg.random_unitary(2, rng)
        conjugated = apply_gauge(r, GaugeOp.local_conj(q))
        assert invariants_close(
            conjugacy_invariants(r.matrix), conjugacy_invariants(conjugated.matrix)
        )


def test_ratio_criterion_examples():
    assert is_locally_conjugate_params(GeneralParams(1, 1, 1j), GeneralParams(1, 1j, -1))
    assert not is_locally_conjugate_params(GeneralParams(1, 1, 1), GeneralParams(1, 1, 1j))
    p = GeneralParams(2, np.exp(0.3j), np.exp(1.1j))
    assert is_locally_conjugate_params(p, p)
    with pytest.raises(ValueError):
        is_locally_conjugate_params(GeneralParams(1, 1, 1), GeneralParams(2, 1, 1))


def test_ratio_criterion_symmetric_and_transitive():
    rng = np.random.default_rng(25)
    t = np.exp(2j * np.pi * rng.random())
    members = [
        GeneralParams(2, a, a * t)
        for a in (np.exp(2j * np.pi * rng.random()) for _ in range(3))
    ]
    for p in members:
        for q in members:
            assert is_locally_conjugate_params(p, q)
            assert is_locally_conjugate_params(q, p)


def test_search_finds_identity_witness():
    r = resolve_solution("base2")
    hit = search_local_conjugation(r, r, ("diagonal",), restarts=3)
    assert hit is not None
    q, residual = hit
    assert residual <= 1e-12
    out = apply_gauge(r, GaugeOp.local_conj(q))
    assert linalg.max_abs_diff(out.matrix, r.matrix) <= 1e-9


def test_search_finds_diagonal_witness_for_equal_ratio():
    r = general_solution(1, 1, np.exp(1j * np.pi / 2))
    s = general_solution(1, np.exp(1j * np.pi / 4), np.exp(3j * np.pi / 4))
    hit = search_local_conjugation(r, s, ("diagonal",), restarts=4)
    assert hit is not None
    q, residual = hit
    assert residual <= 1e-9
    assert abs(q[0, 1]) <= 1e-6 and abs(q[1, 0]) <= 1e-6
    out = apply_gauge(r, GaugeOp.local_conj(q))
    assert linalg.max_abs_diff(out.matrix, s.matrix) <= residual + 1e-12


def test_family_one_antidiagonal_search_finds_nothing():
    r = general_solution(1, 1, 1j)
    s = general_solution(1, np.exp(0.25j), 1j * np.exp(0.25j))
    assert search_local_conjugation(r, s, ("antidiagonal",), restarts=6) is None


def test_families_two_three_admit_antidiagonal_witnesses():
    for fam in (2, 3):
        r = general_solution(fam, 1, np.exp(0.8j))
        s = general_solution(fam, np.exp(0.5j), np.exp(1.3j))
        hit = search_local_conjugation(r, s, ("antidiagonal",), restarts=6)
        assert hit is not None and hit[1] <= 1e-9


def test_search_rejects_unequal_ratio():
    r = general_solution(2, 1, 1)
    s = general_solution(2, 1, 1j)
    assert search_local_conjugation(r, s, ("diagonal", "antidiagonal"), restarts=4) is None


def test_search_validates_compatibility():
    with pytest.raises(ValueError):
        search_local_conjugation(rowell_solution(), resolve_solution("xshape"))


def test_witness_search_needs_local_dimension_two():
    # The searched shapes of Q are 2x2; apply_gauge itself takes any d.
    r = RMatrix(GybeSignature(3, 2, 1), linalg.identity(9), "identity")
    with pytest.raises(ValueError, match="local dimension 2, got d = 3"):
        search_local_conjugation(r, r)
    with pytest.raises(ValueError, match="local dimension 2, got d = 3"):
        search_equivalence(r, r)


def test_searches_reject_fewer_than_one_restart():
    r, s = rowell_solution(), resolve_solution("base1")
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts"):
            search_local_conjugation(r, s, restarts=restarts)
        with pytest.raises(ValueError, match="restarts"):
            search_equivalence(r, s, restarts=restarts)


def test_members_conjugate_to_their_normalized_form():
    rng = np.random.default_rng(26)
    for fam in (1, 2, 3):
        alpha = np.exp(2j * np.pi * rng.random())
        beta = np.exp(2j * np.pi * rng.random())
        r = general_solution(fam, 1, beta / alpha)
        s = general_solution(fam, alpha, beta)
        hit = search_local_conjugation(r, s, ("diagonal",), restarts=4)
        assert hit is not None and hit[1] <= 1e-9


def test_zeta_solution_equivalent_to_quarter_turn_member():
    witness = search_equivalence(
        family_solution(1, np.pi / 2), rowell_solution(), restarts=6
    )
    assert witness is not None
    assert witness.residual <= 1e-9
    kinds = tuple(op.kind for op in witness.ops)
    assert "inverse" in kinds and "local_conj" in kinds and "scalar" in kinds
    reproduced = apply_gauge_sequence(family_solution(1, np.pi / 2), witness.ops)
    assert linalg.max_abs_diff(reproduced.matrix, rowell_solution().matrix) <= 1e-9


def test_inverse_prefix_runs_only_when_the_direct_one_fails():
    # Both prefixes reach this family-3 target; the direct one is tried
    # first and wins, whatever the rounding of the two residuals.
    r = general_solution(3, 1, np.exp(1.0j))
    s = general_solution(3, np.exp(0.2j), np.exp(1.2j))
    inverted = apply_gauge(r, GaugeOp.inverse())
    assert search_equivalence(inverted, s, include_inverse=False) is not None
    witness = search_equivalence(r, s)
    assert witness is not None
    assert [op.kind for op in witness.ops] == ["local_conj", "scalar"]
    # The zeta solution is reached only through the inverse.
    source = family_solution(1, np.pi / 2)
    assert search_equivalence(source, rowell_solution(), include_inverse=False, restarts=6) is None
    witness = search_equivalence(source, rowell_solution(), restarts=6)
    assert witness is not None and witness.ops[0].kind == "inverse"


def test_zeta_solution_exact_witness_identity():
    # Frozen closed form of the witness the search rediscovers.
    zeta = np.exp(2j * np.pi / 8)
    q = np.array([[0, 1], [-1j, 0]], dtype=complex)
    ops = (GaugeOp.inverse(), GaugeOp.local_conj(q), GaugeOp.scalar(zeta))
    out = apply_gauge_sequence(family_solution(1, np.pi / 2), ops)
    assert linalg.max_abs_diff(out.matrix, rowell_solution().matrix) <= 1e-12


def test_direct_scaled_conjugation_cannot_reach_zeta_solution():
    # Without the inverse step the beta/alpha gauge invariant (i vs -i)
    # obstructs any scalar + local-conjugation witness.
    witness = search_equivalence(
        family_solution(1, np.pi / 2),
        rowell_solution(),
        include_inverse=False,
        restarts=6,
    )
    assert witness is None


def test_transpose_mirrors_the_angle_within_family_one():
    # Transposition (conjugation composed with inversion) sends the member
    # with ratio e^{i theta} onto the one with ratio e^{-i theta}.  It is
    # not itself a gauge operation, and for generic angles the two members
    # are not gauge equivalent; theta = pi/2 is the exception exercised in
    # the zeta-solution tests above.
    for theta in (0.7, 2.2):
        r = general_solution(1, 1, np.exp(1j * theta))
        mirrored = general_solution(1, -1j, -1j * np.exp(-1j * theta))
        assert linalg.max_abs_diff(r.matrix.T, mirrored.matrix) <= 1e-14


def test_mirrored_angles_are_not_gauge_equivalent_generically():
    theta = 0.7
    r = general_solution(1, 1, np.exp(1j * theta))
    s = general_solution(1, 1, np.exp(-1j * theta))
    assert search_equivalence(r, s, restarts=6) is None


def test_distinct_angles_are_inequivalent():
    witness = search_equivalence(
        family_solution(1, 0.3), family_solution(1, 1.1), restarts=4
    )
    assert witness is None


def test_witness_json_shape():
    w = EquivalenceWitness(
        (GaugeOp.inverse(), GaugeOp.local_conj(I2), GaugeOp.scalar(2j)),
        "src",
        "dst",
        1e-12,
    )
    data = w.to_json_dict()
    assert [op["kind"] for op in data["ops"]] == ["inverse", "local_conj", "scalar"]
    assert data["ops"][2]["lambda"] == [0.0, 2.0]
    assert data["ops"][1]["Q"]["rows"] == 2
    assert data["residual"] == 1e-12


def _no_optimizer(*args, **kwargs):
    raise AssertionError("the diagonal and antidiagonal shapes must not call an optimizer")


def _graded_q(shape: str, rng) -> np.ndarray:
    """diag(u, v) or [[0, u], [v, 0]] with |u|, |v| in [0.8, 1.25] and random phases."""
    u, v = rng.uniform(0.8, 1.25, 2) * np.exp(2j * np.pi * rng.random(2))
    if shape == "diagonal":
        return np.array([[u, 0], [0, v]])
    return np.array([[0, u], [v, 0]])


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(("diagonal", "antidiagonal")),
    invert=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_graded_shapes_find_witnesses_in_closed_form(shape, invert, seed):
    """Every scalar, diagonal or antidiagonal conjugation and optional
    inverse of a registry solution is undone by the closed form, which runs
    no least-squares solve."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.8, 1.25) * np.exp(2j * np.pi * rng.random())
    with pytest.MonkeyPatch.context() as mp:
        for target in (equivalence, optimize):
            mp.setattr(target, "solve_stack", _no_optimizer)
        mp.setattr(optimize, "damped_least_squares", _no_optimizer)
        for name in registry_ids():
            r = resolve_solution(name)
            assert r.signature.d == 2
            ops = (GaugeOp.inverse(),) if invert else ()
            ops += (GaugeOp.local_conj(_graded_q(shape, rng)), GaugeOp.scalar(lam))
            s = apply_gauge_sequence(r, ops)
            witness = search_equivalence(r, s, shapes=("diagonal", "antidiagonal"))
            assert witness is not None, name
            replayed = apply_gauge_sequence(r, witness.ops).matrix
            assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL


_PHASE = st.floats(0.0, 2 * np.pi)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from((1, 2, 3)),
    phases=st.tuples(_PHASE, _PHASE, _PHASE),
    ratio_gap=st.one_of(st.just(0.0), st.floats(0.01, 2 * np.pi - 0.01)),
)
def test_closed_form_agrees_with_the_ratio_criterion(family, phases, ratio_gap):
    """Within one family a diagonal or antidiagonal conjugator exists exactly
    when beta/alpha agree: the paper's criterion, decided by the closed form."""
    a1, a2, ratio = phases
    p = GeneralParams(family, np.exp(1j * a1), np.exp(1j * (a1 + ratio)))
    q = GeneralParams(family, np.exp(1j * a2), np.exp(1j * (a2 + ratio + ratio_gap)))
    r = general_solution(family, p.alpha, p.beta)
    s = general_solution(family, q.alpha, q.beta)
    found = search_local_conjugation(r, s) is not None
    assert found == is_locally_conjugate_params(p, q)


def test_closed_form_tries_every_root():
    # Exponents w(j) - w(i) of {-2, 0, 3} fix only z^2 through their
    # smallest gap; the k = 3 entry then rejects the principal square root,
    # so the search must go on to the other one.
    rng = np.random.default_rng(29)
    weight = np.array([bin(i).count("1") for i in range(8)])
    exponent = weight[None, :] - weight[:, None]
    support = np.isin(exponent, (-2, 0, 3)) & (rng.random((8, 8)) < 0.7)
    support[np.diag_indices(8)] = True
    matrix = np.where(support, 1.0 + 0.5 * _complex_normal(rng, 8), 0.0)
    r = RMatrix(GybeSignature(2, 3, 1), matrix, "graded")
    assert set(np.unique(exponent[support])) == {-2, 0, 3}
    z = np.exp(2j)  # the principal square root of z^2 is -z
    q = np.diag([1.0, z])
    for lam, search in ((1.0, search_local_conjugation), (0.9j, search_equivalence)):
        s = apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(lam)))
        assert search(r, s, ("diagonal",)) is not None


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from((2, 3, 4)),
    form=st.sampled_from(equivalence._GENERAL_FORMS),
    with_scalar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_witness_jacobian_matches_central_differences(m, form, with_scalar, seed):
    rng = np.random.default_rng(seed)
    signature = GybeSignature(2, m, 1)
    r, s = (RMatrix(signature, _complex_normal(rng, 2**m)) for _ in range(2))
    problem = equivalence._CommutationResidual(r, s, form, with_scalar)
    x = rng.standard_normal((3, 2 * (len(form[1]) + with_scalar)))
    exact = problem.jacobian(x)
    numeric = central_differences(problem.residual, x)
    assert exact.shape == numeric.shape == (3, 2 * 4**m, x.shape[1])
    assert linalg.max_abs(exact - numeric) <= 1e-6 * linalg.max_abs(exact)


@pytest.mark.parametrize("name, seed", [("rowell", 0), ("rowell", 1), ("rowell", 2), ("xshape", 3)])
def test_general_shape_finds_near_identity_conjugators(name, seed):
    """S = 1.1i (Q^-1)^⊗m R Q^⊗m for a dense Q near the identity: cases the
    general shape solves, pinned so that no change to its solver loses them."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    q = np.eye(2) + 0.3 * (a + 1j * b)
    r = resolve_solution(name)
    s = apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(1.1j)))
    witness = search_equivalence(r, s, shapes=("general",), include_inverse=False)
    assert witness is not None
    replayed = apply_gauge_sequence(r, witness.ops).matrix
    assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL
