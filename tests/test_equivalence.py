"""Tests for gauge operations, invariants, and the witness search."""

import contextlib
import itertools
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from random_unitary import random_unitary

from gybe import equivalence, linalg, optimize
from gybe.braiding import build_rep
from gybe.core import GybeSignature, RMatrix, check_gybe
from gybe.equivalence import (
    WITNESS_TOL,
    EquivalenceWitness,
    GaugeOp,
    apply_gauge,
    apply_gauge_sequence,
    decide_equivalence,
    search_equivalence,
    search_local_conjugation,
)
from gybe.solutions import (
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
    with pytest.raises(ValueError, match="non-square"):
        GaugeOp.local_conj(np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(linalg.SingularMatrixError, match="non-finite"):
            GaugeOp.local_conj(np.full((2, 2), bad))
    with pytest.raises(ValueError):
        GaugeOp("warp")
    with pytest.raises(ValueError):
        GaugeOp("local_conj")


def test_a_gauge_op_takes_only_its_kind_s_parameter():
    # Each of these used to be accepted, keeping a Q or a lambda that no
    # move reads: to_json_dict dropped the Q, apply_gauge ignored the lambda.
    with pytest.raises(ValueError, match="^scalar gauge op takes no q$"):
        GaugeOp("scalar", lam=2.0, q=np.eye(3))
    with pytest.raises(ValueError, match="^local_conj gauge op takes no lam$"):
        GaugeOp("local_conj", q=np.eye(2), lam=5.0)
    with pytest.raises(ValueError, match="^inverse gauge op takes no lam or q$"):
        GaugeOp("inverse", lam=1.0, q=np.eye(2))
    with pytest.raises(ValueError, match="^unknown gauge op kind: 'warp'$"):
        GaugeOp("warp", lam=1.0)
    assert (GaugeOp.scalar(2).q, GaugeOp.local_conj(np.eye(2)).lam, GaugeOp.inverse().q) == (None,) * 3


def test_scalar_identity_op():
    r = rowell_solution()
    out = apply_gauge(r, GaugeOp.scalar(1))
    assert linalg.max_abs_diff(out.matrix, r.matrix) == 0.0


def _inverse_calls(monkeypatch) -> list:
    """Record every call of ``linalg.inverse`` from here on."""
    calls, inverse = [], linalg.inverse

    def spy(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(linalg, "inverse", spy)
    return calls


def test_inverse_of_zeta_solution_still_solves(monkeypatch):
    r = rowell_solution()
    calls = _inverse_calls(monkeypatch)
    out = apply_gauge(r, GaugeOp.inverse())
    # The move reads r.inverse; the one inversion is the gate of the image.
    assert len(calls) == 1
    np.testing.assert_array_equal(out.matrix, r.inverse)
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
    r = RMatrix(GybeSignature(2, 3, 1), random_unitary(8, rng), "haar")
    assert not check_gybe(r, 1e-9).passed
    for op in (GaugeOp.scalar(2.0), GaugeOp.inverse(), GaugeOp.local_conj(I2 + 0.2 * SIGMA_X)):
        assert not check_gybe(apply_gauge(r, op), 1e-9).passed


@pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_local_conjugation_matches_kron_reference(d, m, monkeypatch):
    # A non-symmetric Q catches a lift that applies Q transposed.
    rng = np.random.default_rng([27, d, m])
    q = linalg.identity(d) + 0.4 * _complex_normal(rng, d)
    r = RMatrix(GybeSignature(d, m, 1), _complex_normal(rng, d**m))
    want = linalg.kron_power(linalg.inverse(q), m) @ r.matrix @ linalg.kron_power(q, m)
    op = GaugeOp.local_conj(q)
    # The op keeps the inverse of Q, read-only, and the conjugation reads
    # it: the one inversion is the gate of the image.
    assert linalg.max_abs_diff(op.q @ op.q_inverse, linalg.identity(d)) <= 1e-13
    with pytest.raises(ValueError):
        op.q_inverse[0, 0] = 0.0
    calls = _inverse_calls(monkeypatch)
    got = apply_gauge(r, op).matrix
    assert len(calls) == 1
    assert linalg.max_abs_diff(got, want) <= 1e-12 * linalg.max_abs(want)


def _complex_normal(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _decide_prefix(r, s, shapes=equivalence.SHAPES, *, invert=False, tol=WITNESS_TOL):
    """(decision, ops): the scalar-and-conjugation search from one prefix
    of ``r`` (inverted or not) over ``shapes`` alone, without the pair
    checks and the invariants that ``decide_equivalence`` runs first.  ``decision`` is its
    :class:`~gybe.equivalence.PrefixDecision` and ``ops`` the gauge
    sequence that replays the witness from ``r``, or None."""
    prefix = (GaugeOp.inverse(),) if invert else ()
    hit, decision = equivalence._search_conjugator(
        apply_gauge_sequence(r, prefix),
        s,
        shapes,
        with_scalar=True,
        tol=tol,
        prefix="inverse" if invert else "direct",
    )
    if hit is None:
        return decision, None
    op, lam, _ = hit
    return decision, prefix + (op, GaugeOp.scalar(lam))


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
    q = random_unitary(2, rng) @ np.diag([1.0, smallest]) @ random_unitary(2, rng)
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
    scaled_back = linalg.sort_eigenvalues(after / lam)
    assert scaled_back.shape == before.shape and linalg.max_abs_diff(scaled_back, before) <= 1e-8


def _same_spectrum(a: np.ndarray, b: np.ndarray) -> bool:
    ea, eb = linalg.eigenvalues(a), linalg.eigenvalues(b)
    return ea.shape == eb.shape and linalg.max_abs_diff(ea, eb) <= 1e-8


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
        assert _same_spectrum(x, y)


def test_conjugacy_invariants_distinguish_families():
    x1 = base_solution(1).x_matrix()
    x3 = base_solution(3).x_matrix()
    assert not _same_spectrum(x1, x3)


def test_conjugacy_invariants_under_permutation():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    perm = np.eye(4)[[2, 0, 3, 1]]
    assert _same_spectrum(m, perm.T @ m @ perm)


def test_conjugacy_invariants_under_unitary_conjugation():
    rng = np.random.default_rng(24)
    x, _ = split_blocks(rowell_solution().matrix)
    for _ in range(3):
        u = random_unitary(4, rng)
        assert _same_spectrum(x, linalg.dagger(u) @ x @ u)
    # The same stability holds for the whole matrix under the unitary
    # local-conjugation gauge move.
    r = rowell_solution()
    for _ in range(3):
        q = random_unitary(2, rng)
        conjugated = apply_gauge(r, GaugeOp.local_conj(q))
        assert _same_spectrum(r.matrix, conjugated.matrix)


def _locally_conjugate(p: tuple, q: tuple) -> bool:
    """Whether the family members of (family, alpha, beta) ``p`` and ``q`` are."""
    return search_local_conjugation(general_solution(*p), general_solution(*q)) is not None


def test_ratio_criterion_examples():
    # Members of one family are locally conjugate exactly when beta/alpha agree.
    assert _locally_conjugate((1, 1, 1j), (1, 1j, -1))
    assert not _locally_conjugate((1, 1, 1), (1, 1, 1j))
    p = (2, np.exp(0.3j), np.exp(1.1j))
    assert _locally_conjugate(p, p)


def test_ratio_criterion_symmetric_and_transitive():
    rng = np.random.default_rng(25)
    t = np.exp(2j * np.pi * rng.random())
    members = [
        (2, a, a * t)
        for a in (np.exp(2j * np.pi * rng.random()) for _ in range(3))
    ]
    for p in members:
        for q in members:
            assert _locally_conjugate(p, q)


@pytest.mark.parametrize("kind", ["tuple", "list", "generator"])
def test_search_finds_identity_witness(kind):
    # The shapes are read once, so a generator is searched, not used up by a check.
    shapes = {"tuple": ("diagonal",), "list": ["diagonal"], "generator": (s for s in ["diagonal"])}[kind]
    r = resolve_solution("base2")
    hit = search_local_conjugation(r, r, shapes)
    assert hit is not None
    q, residual = hit
    assert residual <= 1e-12
    out = apply_gauge(r, GaugeOp.local_conj(q))
    assert linalg.max_abs_diff(out.matrix, r.matrix) <= 1e-9


def test_search_finds_diagonal_witness_for_equal_ratio():
    r = general_solution(1, 1, np.exp(1j * np.pi / 2))
    s = general_solution(1, np.exp(1j * np.pi / 4), np.exp(3j * np.pi / 4))
    hit = search_local_conjugation(r, s, ("diagonal",))
    assert hit is not None
    q, residual = hit
    assert residual <= 1e-9
    assert abs(q[0, 1]) <= 1e-6 and abs(q[1, 0]) <= 1e-6
    out = apply_gauge(r, GaugeOp.local_conj(q))
    assert linalg.max_abs_diff(out.matrix, s.matrix) <= residual + 1e-12


def test_family_one_antidiagonal_search_finds_nothing():
    r = general_solution(1, 1, 1j)
    s = general_solution(1, np.exp(0.25j), 1j * np.exp(0.25j))
    assert search_local_conjugation(r, s, ("antidiagonal",)) is None


def test_families_two_three_admit_antidiagonal_witnesses():
    for fam in (2, 3):
        r = general_solution(fam, 1, np.exp(0.8j))
        s = general_solution(fam, np.exp(0.5j), np.exp(1.3j))
        hit = search_local_conjugation(r, s, ("antidiagonal",))
        assert hit is not None and hit[1] <= 1e-9


def test_search_rejects_unequal_ratio():
    r = general_solution(2, 1, 1)
    s = general_solution(2, 1, 1j)
    assert search_local_conjugation(r, s, ("diagonal", "antidiagonal")) is None


def test_search_validates_compatibility():
    with pytest.raises(ValueError):
        search_local_conjugation(rowell_solution(), resolve_solution("xshape"))


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_witness_searches_reject_a_nan_or_negative_tolerance(tol):
    # A NaN tolerance used to give "undecided" or no witness.
    r = rowell_solution()
    for search in (decide_equivalence, search_equivalence, search_local_conjugation):
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            search(r, r, tol=tol)


def test_the_pair_is_checked_before_any_invariant():
    # Each pair's traces differ, so an invariant would rule it out; the
    # checks of the pair come first and raise as they always have.
    with pytest.raises(ValueError, match="^witness search needs matching signatures$"):
        decide_equivalence(rowell_solution(), resolve_solution("xshape"))
    signature = GybeSignature(3, 2, 1)
    r, s = RMatrix(signature, linalg.identity(9)), RMatrix(signature, np.diag(np.arange(1.0, 10.0)))
    with pytest.raises(ValueError, match="^witness search needs local dimension 2, got d = 3$"):
        decide_equivalence(r, s)


def test_witness_search_needs_local_dimension_two():
    # The searched shapes of Q are 2x2; apply_gauge itself takes any d.
    r = RMatrix(GybeSignature(3, 2, 1), linalg.identity(9), "identity")
    with pytest.raises(ValueError, match="local dimension 2, got d = 3"):
        search_local_conjugation(r, r)
    with pytest.raises(ValueError, match="local dimension 2, got d = 3"):
        search_equivalence(r, r)


def test_members_conjugate_to_their_normalized_form():
    rng = np.random.default_rng(26)
    for fam in (1, 2, 3):
        alpha = np.exp(2j * np.pi * rng.random())
        beta = np.exp(2j * np.pi * rng.random())
        r = general_solution(fam, 1, beta / alpha)
        s = general_solution(fam, alpha, beta)
        hit = search_local_conjugation(r, s, ("diagonal",))
        assert hit is not None and hit[1] <= 1e-9


def test_zeta_solution_equivalent_to_quarter_turn_member():
    witness = search_equivalence(family_solution(1, np.pi / 2), rowell_solution())
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
    assert _decide_prefix(r, s, invert=True)[1] is not None
    witness = search_equivalence(r, s)
    assert witness is not None
    assert [op.kind for op in witness.ops] == ["local_conj", "scalar"]
    # The zeta solution is reached only through the inverse.
    source = family_solution(1, np.pi / 2)
    assert _decide_prefix(source, rowell_solution())[1] is None
    witness = search_equivalence(source, rowell_solution())
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
    _, ops = _decide_prefix(family_solution(1, np.pi / 2), rowell_solution())
    assert ops is None


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
    assert search_equivalence(r, s) is None


def test_distinct_angles_are_inequivalent():
    witness = search_equivalence(family_solution(1, 0.3), family_solution(1, 1.1))
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
    raise AssertionError("the witness search must not call an optimizer")


@contextlib.contextmanager
def _optimizer_forbidden():
    """Every least-squares entry point raises inside this context."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "solve_stack", _no_optimizer)
        mp.setattr(optimize, "damped_least_squares", _no_optimizer)
        yield


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
    with _optimizer_forbidden():
        for name in registry_ids():
            r = resolve_solution(name)
            assert r.signature.d == 2
            ops = (GaugeOp.inverse(),) if invert else ()
            ops += (GaugeOp.local_conj(_graded_q(shape, rng)), GaugeOp.scalar(lam))
            s = apply_gauge_sequence(r, ops)
            _, ops = _decide_prefix(r, s, ("diagonal", "antidiagonal"), invert=invert)
            assert ops is not None, name
            replayed = apply_gauge_sequence(r, ops).matrix
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
    p_alpha, p_beta = np.exp(1j * a1), np.exp(1j * (a1 + ratio))
    q_alpha, q_beta = np.exp(1j * a2), np.exp(1j * (a2 + ratio + ratio_gap))
    r = general_solution(family, p_alpha, p_beta)
    s = general_solution(family, q_alpha, q_beta)
    found = search_local_conjugation(r, s) is not None
    assert found == (abs(p_beta / p_alpha - q_beta / q_alpha) <= WITNESS_TOL)


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
    s = apply_gauge_sequence(r, (GaugeOp.local_conj(q),))
    assert search_local_conjugation(r, s, ("diagonal",)) is not None
    s = apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(0.9j)))
    assert _decide_prefix(r, s, ("diagonal",))[1] is not None


def test_the_pinned_scorer_passes_over_a_candidate_with_lambda_minus_one():
    # r sits on odd exponents w(j) - w(i) only, so Z^⊗3 r Z^⊗3 = -r.  For
    # s = r conjugated by diag(1, e^2i) the exponents fix z^2 = e^4i, and the
    # first root, z = -e^2i, carries r onto -s: a witness with lambda = -1,
    # which the local-conjugation search must pass over for z = e^2i.
    rng = np.random.default_rng(36)
    weight = np.array([bin(i).count("1") for i in range(8)])
    odd = (weight[None, :] - weight[:, None]) % 2 == 1
    r = RMatrix(GybeSignature(2, 3, 1), np.where(odd, _complex_normal(rng, 8), 0.0), "odd")
    z = np.exp(2j)
    s = apply_gauge(r, GaugeOp.local_conj(np.diag([1.0, z])))
    _, ops = _decide_prefix(r, s, ("diagonal",))
    assert abs(ops[0].q[1, 1] + z) <= 1e-12 and abs(ops[1].lam + 1) <= 1e-12
    q, residual = search_local_conjugation(r, s, ("diagonal",))
    assert residual <= WITNESS_TOL * linalg.max_abs(s.matrix)
    assert linalg.max_abs_diff(q, np.diag([1.0, z])) <= 1e-12


def _near_identity_target(name: str, seed: int) -> tuple[RMatrix, RMatrix]:
    """R and S = 1.1i (Q^-1)^⊗m R Q^⊗m for Q = I + 0.3 (A + iB), A, B Gaussian."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    q = np.eye(2) + 0.3 * (a + 1j * b)
    r = resolve_solution(name)
    return r, apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(1.1j)))


@pytest.mark.parametrize("name, seed", [("rowell", 0), ("rowell", 1), ("rowell", 2), ("xshape", 3)])
def test_general_shape_finds_near_identity_conjugators(name, seed):
    """S = 1.1i (Q^-1)^⊗m R Q^⊗m for a dense Q near the identity: cases the
    general shape solves, pinned so that no change to its solver loses them."""
    r, s = _near_identity_target(name, seed)
    _, ops = _decide_prefix(r, s, ("general",))
    assert ops is not None
    replayed = apply_gauge_sequence(r, ops).matrix
    assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL


def test_general_shape_finds_every_planted_near_identity_conjugator():
    """The full replay behind the pinned cases above: rowell, base2 and
    xshape at seeds 0-9, each decided by a covariant."""
    with _optimizer_forbidden():
        for name in ("rowell", "base2", "xshape"):
            for seed in range(10):
                r, s = _near_identity_target(name, seed)
                decision, ops = _decide_prefix(r, s, ("general",))
                assert decision.verdict == "witness", (name, seed)
                assert decision.covariant is not None
                replayed = apply_gauge_sequence(r, ops).matrix
                assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL


@pytest.mark.parametrize("tol", [1e-18, 1e-15, 1e-12])
def test_a_tolerance_below_rounding_never_rules_out_a_gauge_image(tol):
    # The support of the reduced matrices is cut at a rounding scale, not
    # at tol: a tiny tol may leave the pair undecided, never "none".
    for name, seed in (("rowell", 0), ("rowell", 1), ("base2", 2), ("xshape", 3)):
        r, s = _near_identity_target(name, seed)
        decision, _ = _decide_prefix(r, s, ("general",), tol=tol)
        assert decision.verdict != "none", (name, seed)
        assert decision.candidates >= 1


def _conditioned_q(rng, worst: float) -> np.ndarray:
    """U diag(1, t) V with Haar U, V and t in [1 / worst, 1], so cond(Q) <= worst."""
    t = rng.uniform(1.0 / worst, 1.0)
    return random_unitary(2, rng) @ np.diag([1.0, t]) @ random_unitary(2, rng)


@settings(max_examples=30, deadline=None)
@given(invert=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_every_gauge_image_of_a_registry_solution_has_a_witness(invert, seed):
    """A dense Q with cond(Q) <= 10, a random lambda and an optional inverse
    carry each registry solution onto a target whose witness the search
    finds, over all three shapes, without a least-squares solve."""
    rng = np.random.default_rng(seed)
    with _optimizer_forbidden():
        for name in registry_ids():
            r = resolve_solution(name)
            lam = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
            ops = (GaugeOp.inverse(),) if invert else ()
            ops += (GaugeOp.local_conj(_conditioned_q(rng, 10.0)), GaugeOp.scalar(lam))
            s = apply_gauge_sequence(r, ops)
            decision = decide_equivalence(r, s)
            assert decision.verdict == "witness", name
            assert decision.witness.residual <= WITNESS_TOL
            replayed = apply_gauge_sequence(r, decision.witness.ops).matrix
            assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL


_SAME_SIGNATURE = [
    (a, b) for a in registry_ids() for b in registry_ids()
    if resolve_solution(a).signature == resolve_solution(b).signature
]


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(_SAME_SIGNATURE),
    image=st.booleans(),
    invert=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-11, 6),
)
def test_the_decision_does_not_depend_on_the_scale_of_s(pair, image, invert, seed, k):
    """decide_equivalence(r, c s) for c = 10^k gives the verdict, and the
    witness or none, of decide_equivalence(r, s), where s is a gauge image
    of r with cond(Q) <= 10 or another registry member."""
    r = resolve_solution(pair[0])
    if image:
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
        ops = (GaugeOp.inverse(),) if invert else ()
        s = apply_gauge_sequence(r, ops + (GaugeOp.local_conj(_conditioned_q(rng, 10.0)), GaugeOp.scalar(lam)))
    else:
        s = resolve_solution(pair[1])
    try:
        scaled = apply_gauge(s, GaugeOp.scalar(10.0**k))
    except linalg.SingularMatrixError:
        assume(False)
    base, moved = decide_equivalence(r, s), decide_equivalence(r, scaled)
    assert moved.verdict == base.verdict
    assert (moved.witness is None) == (base.witness is None)
    if moved.witness is not None:
        assert moved.witness.residual <= WITNESS_TOL * linalg.max_abs(scaled.matrix)


_SOLUTION_IDS = st.one_of(
    st.sampled_from(registry_ids()),
    st.builds("family{}:theta={!r}".format, st.integers(1, 3), st.floats(0.0, np.pi)),
)
_PLANTED = {
    "name": _SOLUTION_IDS,
    "invert": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
    "k": st.integers(-11, 6),
}


def _planted(name: str, invert: bool, seed: int, k: int) -> tuple[RMatrix, RMatrix, complex]:
    """(source, s, lambda): solution ``name``, inverted or not, and
    s = lambda (Q^-1)^⊗m source Q^⊗m with cond(Q) <= 10 and lambda = 10^k e^(i phi)."""
    rng = np.random.default_rng(seed)
    source = apply_gauge_sequence(resolve_solution(name), (GaugeOp.inverse(),) if invert else ())
    lam = 10.0**k * np.exp(2j * np.pi * rng.random())
    try:
        s = apply_gauge_sequence(source, (GaugeOp.local_conj(_conditioned_q(rng, 10.0)), GaugeOp.scalar(lam)))
    except linalg.SingularMatrixError:
        assume(False)
    return source, s, lam


def _refutes(r: np.ndarray, s: np.ndarray):
    """_refuting_invariant of side 2^m matrices r and s at the witness tolerance."""
    m = len(s).bit_length() - 1
    return equivalence._refuting_invariant(r, s, equivalence._invariants(s, m), m, WITNESS_TOL)


@settings(max_examples=80, deadline=None)
@given(**_PLANTED)
def test_the_invariants_are_covariant_within_the_documented_bound(name, invert, seed, k):
    """Each invariant of a planted image is lambda^deg times the source's, within
    the bound of _refuting_invariant at the witness tolerance: eta = N e for
    the trace, eta (2 size(s) + eta) for the others."""
    source, s, lam = _planted(name, invert, seed, k)
    eta = s.size * max(WITNESS_TOL, equivalence.NEAR_MISS) * linalg.max_abs(s.matrix)
    m = s.signature.m
    rows = zip(equivalence._invariants(source.matrix, m), equivalence._invariants(s.matrix, m))
    for (label, degree, a, _), (_, _, b, size) in rows:
        bound = eta if degree == 1 else eta * (2 * size + eta)
        assert abs(b - lam**degree * a) <= bound, label


@settings(max_examples=80, deadline=None)
@given(**_PLANTED)
def test_no_planted_gauge_image_is_ruled_out_by_an_invariant(name, invert, seed, k):
    source, s, _ = _planted(name, invert, seed, k)
    assert _refutes(source.matrix, s.matrix) is None


@pytest.mark.parametrize("phases", ["one", "aligned", "random"])
def test_an_image_moved_within_the_near_miss_is_never_ruled_out(phases):
    """A planted image plus E, every |E_ij| = 0.99 NEAR_MISS max|s|, keeps a
    candidate the search could call a near miss, so no invariant may rule
    its prefix out.  E takes one phase, the phases of s^T conjugated and
    turned to tr s (which moves tr s^2 and the partial traces most), or
    random phases."""
    for name in registry_ids():
        for invert in (False, True):
            for seed in range(4):
                rng = np.random.default_rng([35, seed])
                source, s, _ = _planted(name, invert, seed, 0)
                if phases == "one":
                    phase = np.exp(2j * np.pi * rng.random())
                elif phases == "aligned":
                    phase = np.exp(1j * (np.angle(np.trace(s.matrix)) - np.angle(s.matrix.T)))
                else:
                    phase = np.exp(2j * np.pi * rng.random(s.matrix.shape))
                moved = s.matrix + 0.99 * equivalence.NEAR_MISS * linalg.max_abs(s.matrix) * phase
                refuted = _refutes(source.matrix, moved)
                assert refuted is None, (name, invert, seed)


_SHAPE_SETS = (("diagonal",), ("antidiagonal",), ("general",), ("diagonal", "antidiagonal"), equivalence.SHAPES)


@settings(max_examples=40, deadline=None)
@given(
    pair=st.tuples(_SOLUTION_IDS, _SOLUTION_IDS),
    image=st.booleans(),
    shapes=st.sampled_from(_SHAPE_SETS),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_local_conjugation_hit_is_a_witness_of_the_decision(pair, image, shapes, seed):
    """Of r and s, another solution or (Q^-1)^⊗m r Q^⊗m with cond(Q) <= 10
    and lambda = 1: a hit of the local-conjugation search replays to s
    within the tolerance, and decide_equivalence finds a witness too.  An
    image is always hit by the general shape."""
    r, s = (resolve_solution(name) for name in pair)
    if image:
        s = apply_gauge(r, GaugeOp.local_conj(_conditioned_q(np.random.default_rng(seed), 10.0)))
    assume(r.signature == s.signature)
    hit = search_local_conjugation(r, s, shapes)
    if image and "general" in shapes:
        assert hit is not None
    if hit is not None:
        replayed = apply_gauge(r, GaugeOp.local_conj(hit[0])).matrix
        assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL * linalg.max_abs(s.matrix)
        assert decide_equivalence(r, s).verdict == "witness"


def _refuted_verdicts(r: RMatrix, s: RMatrix) -> list[str]:
    """The unchanged search's verdict at each prefix of r that an invariant rules out."""
    verdicts = []
    for invert in (False, True):
        source = apply_gauge_sequence(r, (GaugeOp.inverse(),) if invert else ())
        if _refutes(source.matrix, s.matrix) is not None:
            verdicts.append(_decide_prefix(r, s, invert=invert)[0].verdict)
    return verdicts


def test_an_invariant_rules_out_no_registry_prefix_with_a_witness():
    verdicts = [
        verdict for a, b in _SAME_SIGNATURE for verdict in _refuted_verdicts(resolve_solution(a), resolve_solution(b))
    ]
    assert verdicts and set(verdicts) <= {"none", "undecided"}


@settings(max_examples=60, deadline=None)
@given(pair=st.tuples(_SOLUTION_IDS, _SOLUTION_IDS))
# Subnormal angles, whose covariants a determinant turned into warnings.
@example(pair=("rowell", "family3:theta=5e-324"))
@example(pair=("family3:theta=0.0", "family1:theta=2.225073858507203e-309"))
def test_an_invariant_rules_out_no_family_prefix_with_a_witness(pair):
    r, s = (resolve_solution(name) for name in pair)
    assume(r.signature == s.signature)
    assert set(_refuted_verdicts(r, s)) <= {"none", "undecided"}


@pytest.mark.parametrize("c", [1.0, 1e14])
def test_an_inverse_below_the_singular_value_gate_leaves_its_prefix_undecided(c):
    # (1e14 rowell)^-1 has singular values 1e-14, below the 1e-13 gate of
    # RMatrix; the inverse prefix used to raise SingularMatrixError.  At
    # c = 1 both prefixes decide, as they always have.
    r, s = rowell_solution(), resolve_solution("base2")
    scaled = RMatrix(r.signature, c * r.matrix, r.label)
    # The search alone: a covariant decides each prefix it can reach.
    distinct = equivalence.Covariant("R", 1, "distinct")
    searched = [_decide_prefix(scaled, s)[0]]
    if c == 1:
        searched.append(_decide_prefix(scaled, s, invert=True)[0])
    else:
        with pytest.raises(linalg.SingularMatrixError):
            _decide_prefix(scaled, s, invert=True)
    assert [(p.prefix, p.verdict, p.covariant, p.candidates) for p in searched] == [
        ("direct", "none", distinct, 2),
        ("inverse", "none", distinct, 2),
    ][: len(searched)]
    # The decision rules out each prefix past its gate by an invariant first;
    # the inverse that fails the gate stays undecided.
    decision = decide_equivalence(scaled, s)
    inverse = ("inverse", "none", None, 0, "tr R^2") if c == 1 else ("inverse", "undecided", None, 0, None)
    assert [
        (p.prefix, p.verdict, p.covariant, p.candidates, p.invariant and p.invariant.name)
        for p in decision.prefixes
    ] == [("direct", "none", None, 0, "tr R^2"), inverse]
    assert decision.witness is None
    assert decision.verdict == ("none" if c == 1 else "undecided")


def test_only_the_rmatrix_and_gauge_op_constructors_invert(monkeypatch):
    callers, inverse = [], linalg.inverse

    def spy(m):
        caller = sys._getframe(1)
        callers.append(f"{type(caller.f_locals.get('self')).__name__}.{caller.f_code.co_name}")
        return inverse(m)

    monkeypatch.setattr(linalg, "inverse", spy)
    r = resolve_solution("family1:theta=0.9")
    build_rep(r, 4)
    build_rep(apply_gauge(r, GaugeOp.local_conj(np.array([[1, 0.3], [0.2j, 1.1]]))), 4)
    # A witness through the inverse prefix, a miss, and a general-shape hit.
    assert decide_equivalence(family_solution(1, np.pi / 2), rowell_solution()).verdict == "witness"
    assert decide_equivalence(general_solution(1, 1, 1j), general_solution(1, 1, np.exp(0.7j))).verdict == "none"
    _, s = _near_identity_target("rowell", 0)
    assert decide_equivalence(rowell_solution(), s).verdict == "witness"
    assert set(callers) == {"RMatrix.__post_init__", "GaugeOp.__post_init__"}


def _site_zero_matrix(rng, a: np.ndarray, m: int = 2) -> RMatrix:
    """A (2, m, 1) matrix whose first covariant, R traced over every site
    but 0, is tr(B) A: R = A ⊗ B + Y ⊗ Z with tr Z = 0."""
    n = 2 ** (m - 1)
    b, y, z = _complex_normal(rng, n), _complex_normal(rng, 2), _complex_normal(rng, n)
    z -= np.trace(z) / n * np.eye(n)
    return RMatrix(GybeSignature(2, m, 1), np.kron(a, b) + np.kron(y, z), "site0")


def _jordan_covariant_matrix(rng, corner: float = 1.0) -> RMatrix:
    """A (2, 2, 1) matrix whose first covariant is tr(B) A for
    A = [[1, 1], [0, corner]], a Jordan block for corner = 1."""
    return _site_zero_matrix(rng, np.array([[1.0, 1.0], [0.0, corner]]))


@pytest.mark.parametrize("seed", range(4))
def test_jordan_block_covariant_decides_in_closed_form(seed):
    rng = np.random.default_rng([30, seed])
    r = _jordan_covariant_matrix(rng)
    q = _conditioned_q(rng, 5.0)
    lam = 0.8 * np.exp(1.3j)
    with _optimizer_forbidden():
        s = apply_gauge(r, GaugeOp.local_conj(q))
        hit = search_local_conjugation(r, s, ("general",))
        assert hit is not None and hit[1] <= WITNESS_TOL
        s = apply_gauge(s, GaugeOp.scalar(lam))
        direct, ops = _decide_prefix(r, s, ("general",))
    assert direct.covariant == equivalence.Covariant("R", 0, "jordan")
    assert direct.verdict == "witness"
    replayed = apply_gauge_sequence(r, ops).matrix
    assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL
    # Another Jordan-covariant matrix is not a gauge image of r or of its inverse.
    other = _jordan_covariant_matrix(rng)
    for invert in (False, True):
        assert _decide_prefix(r, other, ("general",), invert=invert)[0].verdict == "none"


@pytest.mark.parametrize("m", [2, 3])
def test_a_nilpotent_first_covariant_is_passed_over_by_the_pinned_search(m):
    # The site-0 covariant of R is tr(B) [[0, 1], [0, 0]]: a Jordan block
    # with mean 0, which fixes no scalar, so every search reduces by a
    # later covariant, the local-conjugation one included.
    for seed in range(4):
        rng = np.random.default_rng([37, m, seed])
        r = _site_zero_matrix(rng, np.array([[0.0, 1.0], [0.0, 0.0]]), m)
        s = apply_gauge(r, GaugeOp.local_conj(_conditioned_q(rng, 5.0)))
        with _optimizer_forbidden():
            hit = search_local_conjugation(r, s, ("general",))
            decision, _ = _decide_prefix(r, s, ("general",))
        assert hit is not None and hit[1] <= WITNESS_TOL * linalg.max_abs(s.matrix), seed
        replayed = apply_gauge(r, GaugeOp.local_conj(hit[0])).matrix
        assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL * linalg.max_abs(s.matrix)
        assert decision.covariant != equivalence.Covariant("R", 0, "jordan")


def test_a_gap_below_the_separation_gate_passes_to_the_next_covariant():
    # The site-0 covariant has distinct eigenvalues about 1.7e-5 apart and
    # an O(1) off-diagonal entry.  The separation gate skips it before its
    # eigenvectors are read: the gap is below SEPARATION_GATE times the
    # threshold (about 2.8e-3), so the site-1 covariant decides.
    rng = np.random.default_rng(31)
    r = _jordan_covariant_matrix(rng, corner=1.0 + 1e-5)
    threshold = equivalence.COVARIANT_RTOL * linalg.max_abs(r.matrix)
    kind, _, separation, _ = equivalence._split(equivalence._partial_trace(r.matrix, 2, 0), threshold)
    assert kind == "distinct" and separation < equivalence.SEPARATION_GATE * threshold
    s = apply_gauge_sequence(r, (GaugeOp.local_conj(_conditioned_q(rng, 5.0)), GaugeOp.scalar(1.1j)))
    decision, _ = _decide_prefix(r, s, ("general",))
    assert decision.covariant == equivalence.Covariant("R", 1, "distinct")
    assert decision.verdict == "witness"


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["distinct", "jordan"])
def test_a_covariant_near_the_threshold_never_rules_out_a_gauge_image(kind, m):
    # The site-0 covariant tr(B) A is diag(1, 1 + e) or [[1, e], [0, 1]]
    # times tr(B), with e set so that its gap or its Jordan part is
    # 3 COVARIANT_RTOL of its word's scale: too close to a scalar to reduce
    # by.  S is R conjugated by a Q with cond(Q) = 10, then scaled: the
    # search must neither raise nor say "none", but reduce by another site.
    for seed in range(6):
        rng = np.random.default_rng([32, m, seed])
        probe = _site_zero_matrix(np.random.default_rng([32, m, seed]), I2, m)
        trace_b = np.trace(probe.matrix[: 2 ** (m - 1), : 2 ** (m - 1)])
        e = 3 * equivalence.COVARIANT_RTOL * linalg.max_abs(probe.matrix) / abs(trace_b)
        a = np.diag([1.0, 1.0 + e]) if kind == "distinct" else np.array([[1.0, e], [0.0, 1.0]])
        r = _site_zero_matrix(rng, a, m)
        q = random_unitary(2, rng) @ np.diag([1.0, 0.1]) @ random_unitary(2, rng)
        s = apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(0.9j)))
        decision, _ = _decide_prefix(r, s, ("general",))
        assert decision.covariant.site != 0
        assert decision.verdict == "witness", seed


@pytest.mark.parametrize("cond", [33.0, 300.0])
def test_the_covariant_of_s_is_judged_on_the_scale_of_r(cond):
    # R = diag(1, 1 + e) ⊗ I + Y ⊗ Z with tr Y = tr Z = 0: only the site-0
    # covariant of R is not scalar, and its gap is 2e-3 of R's scale, just
    # above the separation gate.  Q swells S's entries by up to cond(Q)^3,
    # so judged against S's own scale the covariant would look like a
    # Jordan block and rule S out; judged on R's scale times |lambda|, it
    # agrees.  Its eigenvectors then carry S's rounding, too much to reduce
    # by, so the pair is undecided rather than ruled out.
    for seed in range(10):
        rng = np.random.default_rng([34, seed])
        y, z = _complex_normal(rng, 2), _complex_normal(rng, 4)
        y -= np.trace(y) / 2 * I2
        z -= np.trace(z) / 4 * np.eye(4)
        off_diagonal = np.kron(y, z)
        e = 2e-3 * linalg.max_abs(np.eye(8) + off_diagonal) / 4
        r = RMatrix(GybeSignature(2, 3, 1), np.kron(np.diag([1.0, 1.0 + e]), np.eye(4)) + off_diagonal, "r")
        q = random_unitary(2, rng) @ np.diag([1.0, 1.0 / cond]) @ random_unitary(2, rng)
        s = apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(0.9j)))
        decision, _ = _decide_prefix(r, s, ("general",))
        assert decision.covariant == equivalence.Covariant("R", 0, "distinct")
        assert decision.verdict != "none", seed


def test_a_near_miss_leaves_the_prefix_undecided():
    # One entry of a gauge image moved by 1e-8 of the largest: the true
    # conjugator misses the tolerance by a hair, within NEAR_MISS, so there
    # is no proof that none exists.
    r, s = _near_identity_target("rowell", 3)
    m = s.matrix.copy()
    largest = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    m[largest] += 1e-8 * linalg.max_abs(m)
    s = RMatrix(s.signature, m, "near-miss")
    direct, _ = _decide_prefix(r, s, ("general",))
    assert direct.verdict == "undecided" and direct.covariant is not None
    assert direct.candidates >= 1


def test_the_witness_tolerance_scales_with_the_target():
    # Scaled by 1e8, the rounding of a true gauge image alone exceeds an
    # absolute WITNESS_TOL; relative to the target's largest entry it passes.
    q = np.array([[1, 0.3 + 0.2j], [0.1j, 1.2]])
    r = rowell_solution()
    s = apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(1e8)))
    decision = decide_equivalence(r, s)
    assert decision.verdict == "witness"
    replayed = apply_gauge_sequence(r, decision.witness.ops).matrix
    assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL * linalg.max_abs(s.matrix)


def _rmatrix_labels(monkeypatch) -> list:
    """Record the label of every ``RMatrix`` built from here on."""
    labels, post_init = [], RMatrix.__post_init__

    def spy(self):
        labels.append(self.label)
        post_init(self)

    monkeypatch.setattr(RMatrix, "__post_init__", spy)
    return labels


def test_scored_candidates_build_no_rmatrix(monkeypatch):
    # Different beta/alpha: no witness.  Each prefix's general shape lifts r
    # and s by their covariant bases, and conjugates the candidates it
    # scores, without an RMatrix; the only one built is the inverse prefix's R^-1.
    r = general_solution(1, 1, 1j)
    s = general_solution(1, 1, np.exp(0.7j))
    labels = _rmatrix_labels(monkeypatch)
    searched = [_decide_prefix(r, s, invert=invert)[0] for invert in (False, True)]
    assert all(p.verdict == "none" for p in searched) and sum(p.candidates for p in searched) >= 4
    assert all(p.covariant is not None for p in searched)
    assert labels == [f"inverse({r.label})"]
    # The decision rules out both prefixes by an invariant and scores none.
    labels.clear()
    decision = decide_equivalence(r, s)
    assert decision.verdict == "none" and decision.candidates == 0
    assert [p.invariant.name for p in decision.prefixes] == ["tr C_1^2", "tr C_1^2"]
    assert labels == [f"inverse({r.label})"]


def test_a_planted_hit_builds_one_rmatrix_for_its_candidate(monkeypatch):
    r = general_solution(1, 1, 1j)
    q = np.array([[1, 0], [0, 0.9 * np.exp(0.4j)]])
    s = apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(1.1j)))
    labels = _rmatrix_labels(monkeypatch)
    decision = decide_equivalence(r, s)
    assert decision.verdict == "witness" and decision.candidates == 1
    assert labels == [f"local_conj({r.label})"]


def test_scalar_fit_is_one_when_the_source_vanishes():
    b = np.arange(4, dtype=complex).reshape(2, 2)
    assert linalg.scalar_fit(np.zeros((2, 2), dtype=complex), b) == 1


def test_the_jordan_candidate_fits_lambda_on_the_top_level(monkeypatch):
    r = rowell_solution()
    s = apply_gauge_sequence(r, (GaugeOp.local_conj(I2 + 0.3 * equivalence._JORDAN), GaugeOp.scalar(0.7j)))
    fit, fits = linalg.scalar_fit, []

    def spy(a, b):
        fits.append((a, b))
        return fit(a, b)

    monkeypatch.setattr(linalg, "scalar_fit", spy)
    list(equivalence._jordan_conjugators(r.matrix, s.matrix, tol=WITNESS_TOL))
    weight = np.array([bin(i).count("1") for i in range(8)])
    level = weight[:, None] - weight[None, :]
    top = level == level[np.abs(r.matrix) > WITNESS_TOL * linalg.max_abs(r.matrix)].max()
    ((a, b),) = fits
    np.testing.assert_array_equal(a, r.matrix[top])
    np.testing.assert_array_equal(b, s.matrix[top])


def test_a_target_that_vanishes_on_the_top_level_has_no_jordan_candidate(monkeypatch):
    # R = A ⊗ B + Y ⊗ Z and S = A ⊗ B + Y ⊗ Z^T, for A = [[1, 1], [0, 1]], B
    # symmetric and Z traceless with Z[0, 1] = 0, share every invariant and
    # the Jordan covariant tr(B) A, whose bases are exactly I.  S vanishes on
    # R's top level, entry (3, 0), so lambda fits to 0 and no Q is yielded.
    sig = GybeSignature(2, 2, 1)
    a, b, y = [[1.0, 1.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]], [[1.0, 2.0], [3.0, -1.0]]
    z = np.array([[1.0, 0.0], [2.0, -1.0]])
    r = RMatrix(sig, np.kron(a, b) + np.kron(y, z), "r")
    s = RMatrix(sig, np.kron(a, b) + np.kron(y, z.T), "s")
    assert r.matrix[3, 0] != 0 and s.matrix[3, 0] == 0
    yielded, jordan = [], equivalence._jordan_conjugators

    def spy(a, b, *, tol):
        yielded.append(list(jordan(a, b, tol=tol)))
        return iter(yielded[-1])

    monkeypatch.setattr(equivalence, "_jordan_conjugators", spy)
    decision = decide_equivalence(r, s)
    direct = decision.prefixes[0]
    assert decision.witness is None and yielded == [[]]
    assert direct.invariant is None and direct.covariant == equivalence.Covariant("R", 0, "jordan")
    assert direct.verdict == "none" and direct.candidates == 0


def test_a_target_that_vanishes_on_the_top_level_to_rounding_scores_no_candidate():
    # The same pair with random complex B, Y and Z: the covariant's bases
    # are I only to rounding, so the reduced S keeps a rounding-size entry
    # on R's top level, lambda would fit to about 1e-16 and the one Q would
    # carry a c near 1e15.  Read against S's own support cut, that level is
    # empty and no Q is scored.
    sig, rng = GybeSignature(2, 2, 1), np.random.default_rng([53, 0])
    a, b, y, z = np.array([[1.0, 1.0], [0.0, 1.0]]), *(_complex_normal(rng, 2) for _ in range(3))
    z[0, 1] = 0
    z -= np.trace(z) / 2 * I2
    r = RMatrix(sig, np.kron(a, b + b.T) + np.kron(y, z), "r")
    s = RMatrix(sig, np.kron(a, b + b.T) + np.kron(y, z.T), "s")
    assert r.matrix[3, 0] != 0 and s.matrix[3, 0] == 0
    direct = decide_equivalence(r, s).prefixes[0]
    assert (direct.verdict, direct.covariant, direct.candidates) == (
        "none",
        equivalence.Covariant("R", 0, "jordan"),
        0,
    )


def test_words_walk_only_the_site_transpositions():
    rng = np.random.default_rng(33)
    m = 4
    r = _complex_normal(rng, 2**m)
    q = linalg.kron_power(_conditioned_q(rng, 5.0), m)
    words = list(equivalence._words(r, m))
    assert len(words) == 3 + 4 * m * (m - 1) // 2
    conjugated = equivalence._words(np.linalg.solve(q, r @ q), m)
    scaled = equivalence._words(2 * r, m)
    for (name, degree, w), (_, _, wc), (_, _, ws) in zip(words, conjugated, scaled):
        # Each word is covariant, and homogeneous of its degree in r.
        assert np.allclose(wc, np.linalg.solve(q, w @ q)), name
        assert np.allclose(ws, 2**degree * w), name


def _swap_sites(k: int, m: int, i: int, j: int) -> int:
    """Index k of m qubits (site 0 the leading bit) with the bits of sites i and j swapped."""
    bits = [(k >> (m - 1 - site)) & 1 for site in range(m)]
    bits[i], bits[j] = bits[j], bits[i]
    return int("".join(map(str, bits)), 2)


def _words_by_products(r: np.ndarray, m: int) -> list:
    """The words of ``_words``, each transposition an explicit permutation matrix."""
    r2 = r @ r
    words = [("R", 1, r), ("R^2", 2, r2), ("R^3", 3, r2 @ r)]
    for i, j in itertools.combinations(range(m), 2):
        p = np.zeros((2**m, 2**m), dtype=complex)
        for k in range(2**m):
            p[k, _swap_sites(k, m, i, j)] = 1
        perm = list(range(m))
        perm[i], perm[j] = j, i
        tag = "P" + "".join(map(str, perm))
        words += [
            (f"R {tag}", 1, r @ p),
            (f"R {tag} R", 2, r @ p @ r),
            (f"R^2 {tag}", 2, r2 @ p),
            (f"{tag} R {tag} R", 2, p @ r @ p @ r),
        ]
    return words


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), zeroed=st.floats(0.0, 0.9))
def test_words_permute_by_index_as_the_permutation_matrices_multiply(m, seed, zeroed):
    # Entries, and real or imaginary parts, zeroed at random: the indexed
    # words equal the matrix products bit for bit, zero signs included.
    rng = np.random.default_rng(seed)
    r = _complex_normal(rng, 2**m)
    r[rng.random(r.shape) < zeroed] = 0
    r.real[rng.random(r.shape) < zeroed / 2] = 0
    r.imag[rng.random(r.shape) < zeroed / 2] = 0
    words = list(equivalence._words(r, m))
    expected = _words_by_products(r, m)
    assert [w[:2] for w in words] == [w[:2] for w in expected]
    for (name, _, w), (_, _, product) in zip(words, expected):
        assert w.tobytes() == product.tobytes(), name
    # A product by P adds +0.0 to a -0.0 entry of -r; indexing keeps the entry.
    for (name, _, w), (_, _, product) in zip(equivalence._words(-r, m), _words_by_products(-r, m)):
        np.testing.assert_array_equal(w, product, err_msg=name)


def test_split_reads_a_subnormal_covariant_without_a_determinant():
    # A covariant of family 1 at theta = 2.225073858507203e-309, less its
    # mean.  LAPACK's determinant of it warned and gave NaN, so its NaN gap
    # read as two distinct eigenvalues; sqrt(a^2 + bc) is 5e-155, a Jordan block.
    c = np.array([[0, np.sqrt(2)], [1.57e-309, 0]], dtype=complex)
    # A scalar covariant of family 3 at theta = 5e-324, which warned too: it
    # is judged before any eigenvalue arithmetic.
    scalar = np.array([[1, -5e-324j], [-5e-324j, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kind, mean, separation, basis = equivalence._split(c, 1e-6)
        assert equivalence._split(scalar, 1e-6) == ("scalar", 1, None, None)
    assert (kind, mean, separation) == ("jordan", 0, np.sqrt(2))
    np.testing.assert_array_equal(basis, [[np.sqrt(2), 0], [0, 1]])


def test_a_planted_image_of_a_subnormal_angle_has_a_witness():
    r = resolve_solution("family3:theta=5e-324")
    q = np.array([[1.0, 0.3 + 0.2j], [-0.1j, 0.9]])
    s = apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(0.8j)))
    decision = decide_equivalence(r, s)
    assert decision.verdict == "witness"
    assert decision.prefixes[0].covariant == equivalence.Covariant("R P102", 0, "distinct")
    replayed = apply_gauge_sequence(r, decision.witness.ops).matrix
    assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL


def test_all_scalar_covariants_leave_the_pair_undecided():
    # Every word in the identity and the swap, and each partial trace, is
    # scalar, so no covariant can reduce Q; the graded shapes fail on the
    # support.  The pair is inequivalent, yet the search's "none" would not
    # be a proof.
    signature = GybeSignature(2, 2, 1)
    swap = linalg.identity(4)[[0, 2, 1, 3]]
    r, s = RMatrix(signature, linalg.identity(4), "I"), RMatrix(signature, swap, "swap")
    searched = [_decide_prefix(r, s, invert=invert)[0] for invert in (False, True)]
    assert [p.prefix for p in searched] == ["direct", "inverse"]
    assert all(p.verdict == "undecided" and p.covariant is None for p in searched)
    # Over the graded shapes alone, "none" is a decision.
    for invert in (False, True):
        assert _decide_prefix(r, s, ("diagonal", "antidiagonal"), invert=invert)[0].verdict == "none"
    # The invariants prove it: lambda = 1/2 takes tr I = 4 onto tr SWAP = 2,
    # and then lambda^2 tr I^2 = 1 against tr SWAP^2 = 4.
    decision = decide_equivalence(r, s)
    assert decision.witness is None and decision.verdict == "none"
    assert [p.prefix for p in decision.prefixes] == ["direct", "inverse"]
    for p in decision.prefixes:
        assert (p.verdict, p.covariant, p.candidates) == ("none", None, 0)
        assert (p.invariant.name, p.invariant.degree) == ("tr R^2", 2)
        assert abs(p.invariant.source - 1) <= 1e-12 and abs(p.invariant.target - 4) <= 1e-12
    assert search_equivalence(r, s) is None


def test_a_miss_through_both_prefixes_reads_the_target_invariants_once(monkeypatch):
    # I against SWAP: both prefixes reach the invariants, which read r, r^-1 and s once each.
    signature = GybeSignature(2, 2, 1)
    r, s = RMatrix(signature, linalg.identity(4), "I"), RMatrix(signature, linalg.identity(4)[[0, 2, 1, 3]], "swap")
    read = []
    invariants = equivalence._invariants
    monkeypatch.setattr(equivalence, "_invariants", lambda a, m: read.append(a) or invariants(a, m))
    decision = decide_equivalence(r, s)
    assert [p.prefix for p in decision.prefixes] == ["direct", "inverse"]
    assert len(read) == 3
    assert sum(a is s.matrix for a in read) == 1


def test_a_pair_with_every_invariant_zero_is_left_to_the_candidates():
    # The cyclic shift has trace 0, and so has the square of it and of each
    # partial trace: no invariant fits a scalar, so none refutes, and the
    # diagonal shape's first candidate is the witness.
    shift = RMatrix(GybeSignature(2, 3, 1), np.roll(np.eye(8), 1, axis=0), "shift")
    assert [value for _, _, value, _ in equivalence._invariants(shift.matrix, 3)] == [0] * 5
    assert _refutes(shift.matrix, shift.matrix) is None
    decision = decide_equivalence(shift, shift)
    assert decision.verdict == "witness"
    assert [(p.prefix, p.verdict, p.candidates) for p in decision.prefixes] == [("direct", "witness", 1)]


def _sheared(e: float) -> RMatrix:
    """[[1, 1], [0, 1 + e]] ⊗ I_8 at (2, 4, 1).  Its site-0 covariant is 8
    times the 2x2: a gap of 8e, which clears the separation gate for
    e > 1.25e-4, and eigenvectors about e apart, which fail the eigenvector
    gate for e < 2e-4."""
    return RMatrix(GybeSignature(2, 4, 1), np.kron(np.array([[1.0, 1.0], [0.0, 1.0 + e]]), np.eye(8)), "sheared")


@pytest.mark.parametrize("e, reduces", [(1.6e-4, False), (4e-4, True)])
def test_a_clear_gap_with_near_parallel_eigenvectors_is_passed_over(e, reduces):
    w = _sheared(e).matrix
    best = equivalence._reducing_covariant(w, 4, equivalence.COVARIANT_RTOL * linalg.max_abs(w))
    assert (best is not None) == reduces


def test_near_parallel_eigenvectors_of_s_leave_the_prefix_undecided():
    # R's site-0 covariant 8 diag(1, 2) reduces; S's has as clear a gap,
    # but its eigenvectors fail the gate, so neither side can be reduced.
    r = RMatrix(GybeSignature(2, 4, 1), np.kron(np.diag([1.0, 2.0]), np.eye(8)), "r")
    decision, _ = _decide_prefix(r, _sheared(1.6e-4), ("general",))
    assert (decision.verdict, decision.covariant, decision.candidates) == (
        "undecided",
        equivalence.Covariant("R", 0, "distinct"),
        0,
    )


@pytest.mark.parametrize("e, verdict", [(1e-7, "undecided"), (1e-10, "none")])
def test_a_scalar_covariant_of_s_rules_out_only_clear_of_the_margin(e, verdict):
    # R's site-0 covariant 2 diag(1, 2) has a clear gap.  S's, 2 diag(1,
    # 1 + e), is scalar at S's threshold (about 1.4e-6); at a hundredth of
    # it, e = 1e-7 is a gap again, so S is neither matched nor ruled out.
    signature = GybeSignature(2, 2, 1)
    r = RMatrix(signature, np.diag([1.0, 1.0, 2.0, 2.0]), "r")
    s = RMatrix(signature, np.diag([1.0, 1.0, 1.0 + e, 1.0 + e]), "s")
    decision, _ = _decide_prefix(r, s, ("general",))
    assert (decision.verdict, decision.covariant, decision.candidates) == (
        verdict,
        equivalence.Covariant("R", 0, "distinct"),
        0,
    )


@pytest.mark.parametrize("seed", range(3))
def test_a_nilpotent_covariant_of_s_rules_out_a_jordan_covariant_of_r(seed):
    # The covariant of a gauge image has lambda^deg times r's mean, which
    # is never 0 when r's is not.
    rng = np.random.default_rng([38, seed])
    r = _jordan_covariant_matrix(rng)
    s = _site_zero_matrix(rng, np.array([[0.0, 1.0], [0.0, 0.0]]))
    decision, _ = _decide_prefix(r, s, ("general",))
    assert (decision.verdict, decision.covariant, decision.candidates) == (
        "none",
        equivalence.Covariant("R", 0, "jordan"),
        0,
    )


def test_a_jordan_reduction_with_a_tiny_lambda_scores_its_candidate():
    # R at 1e145 against another Jordan-covariant matrix at 1e-10: the top
    # level fits |lambda| near 1e-155, which is no scalar's floor, so the
    # reduction offers its one candidate, and it misses.
    rng = np.random.default_rng(30)
    r = apply_gauge(_jordan_covariant_matrix(rng), GaugeOp.scalar(1e145))
    s = apply_gauge(_jordan_covariant_matrix(rng), GaugeOp.scalar(1e-10))
    decision, _ = _decide_prefix(r, s, ("general",))
    assert (decision.verdict, decision.covariant, decision.candidates) == (
        "none",
        equivalence.Covariant("R", 0, "jordan"),
        1,
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("big, small", [(1e145, 1e-155), (1e150, 1e-151)])
def test_a_gauge_image_with_a_tiny_lambda_has_a_witness(big, small, seed):
    # R scaled by ``big`` and its image under a cond-3 Q scaled by ``small``:
    # lambda is tiny but nonzero, so the Jordan reduction's candidate is
    # scored and hits.
    r = apply_gauge(_jordan_covariant_matrix(np.random.default_rng(30)), GaugeOp.scalar(big))
    rng = np.random.default_rng([42, seed])
    q = random_unitary(2, rng) @ np.diag([1.0, 1 / 3]) @ random_unitary(2, rng)
    s = apply_gauge_sequence(r, (GaugeOp.local_conj(q), GaugeOp.scalar(small)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decision, ops = _decide_prefix(r, s)
    assert (decision.verdict, decision.covariant, decision.candidates) == (
        "witness",
        equivalence.Covariant("R", 0, "jordan"),
        3,
    )
    replayed = apply_gauge_sequence(r, ops).matrix
    assert linalg.max_abs_diff(replayed, s.matrix) <= WITNESS_TOL * linalg.max_abs(s.matrix)


def _graded_pair(a: np.ndarray, b: np.ndarray) -> tuple[RMatrix, RMatrix]:
    signature = GybeSignature(2, 2, 1)
    return RMatrix(signature, a, "a"), RMatrix(signature, b, "b")


def test_ratios_that_overflow_give_no_graded_candidate():
    # Every ratio b / a is 1e312, past the largest float: z is NaN.
    m = np.eye(4) + 0.5 * np.eye(4)[::-1]
    r, s = _graded_pair(1e-12 * m, 1e300 * m)
    with np.errstate(over="ignore", invalid="ignore"):
        assert list(equivalence._graded_conjugators(r.matrix, s.matrix, "diagonal", tol=WITNESS_TOL)) == []
        assert search_local_conjugation(r, s, ("diagonal",)) is None


def test_a_candidate_below_the_singular_value_gate_is_passed_over():
    # Ratios b / a of 1e-8 on the diagonal and 1e8 off it fix z = 1e-16:
    # diag(1, z) fails GaugeOp's gate, so the scorer drops it.
    eps = 1e-8
    r, s = _graded_pair(np.kron(I2, [[1, eps], [eps, 1]]), np.kron(I2, [[eps, 1], [1, eps]]))
    (q,) = equivalence._graded_conjugators(r.matrix, s.matrix, "diagonal", tol=WITNESS_TOL)
    assert abs(q[1, 1] - 1e-16) <= 1e-30
    with pytest.raises(linalg.SingularMatrixError):
        GaugeOp.local_conj(q)
    assert search_local_conjugation(r, s, ("diagonal",)) is None


def test_a_candidate_whose_image_overflows_is_passed_over():
    # S is R conjugated by diag(1, 10) and scaled by 1e-2, but R's entries
    # are 1e307: the image before the scalar overflows, so the scorer drops
    # both roots z = ±10.
    m = 1e307 * (np.eye(4) + 0.5 * np.eye(4)[::-1])
    r, s = _graded_pair(m, m * 10.0 ** (equivalence._grading(4) - 2.0))
    roots = list(equivalence._graded_conjugators(r.matrix, s.matrix, "diagonal", tol=WITNESS_TOL))
    assert sorted(round(q[1, 1].real) for q in roots) == [-10, 10]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _decide_prefix(r, s, ("diagonal",))[0].verdict == "none"


def test_decision_json_reports_verdict_and_covariant():
    r, s = family_solution(1, 0.3), family_solution(1, 1.1)
    # The search alone decides each prefix by a covariant.
    for invert in (False, True):
        prefix = _decide_prefix(r, s, invert=invert)[0].to_json_dict()
        assert prefix["verdict"] == "none" and prefix["invariant"] is None
        assert set(prefix["covariant"]) == {"word", "site", "kind"}
    # The decision rules each prefix out by an invariant, in strict JSON.
    data = json.loads(json.dumps(decide_equivalence(r, s).to_json_dict(), allow_nan=False))
    assert data["verdict"] == "none" and data["witness"] is None
    assert [p["prefix"] for p in data["prefixes"]] == ["direct", "inverse"]
    for prefix in data["prefixes"]:
        assert prefix["verdict"] == "none" and prefix["covariant"] is None
        invariant = prefix["invariant"]
        assert (invariant["name"], invariant["degree"]) == ("tr C_1^2", 2)
        assert all(len(invariant[key]) == 2 for key in ("source", "target"))
        assert abs(complex(*invariant["source"]) - complex(*invariant["target"])) > 1
    assert data["candidates"] == sum(p["candidates"] for p in data["prefixes"]) == 0
