"""Tests for braid words, representations, and gate recognition."""

import ast
import dataclasses
import inspect
import pathlib
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from random_unitary import random_unitary

import gybe
from gybe import braiding, core, linalg, pattern_residual
from gybe.braiding import (
    BraidRep,
    BraidWord,
    RepresentationError,
    StateVector,
    apply_to_state,
    build_rep,
    evaluate_word,
    parse_braid_word,
    recognize_braiding_gate,
    word_difference,
)
from gybe.core import (
    MAX_MATRIX_SIDE,
    GybeSignature,
    RMatrix,
    _place,
    apply_local,
    braid_dimension,
    braid_generator_matrix,
    check_gybe,
    far_commutativity_indices,
    far_commutativity_residual,
)
from gybe.equivalence import GaugeOp, apply_gauge
from gybe.search import SearchConfig, rowell_pattern, solve_pattern
from gybe.solutions import (
    base_solution,
    registry_ids,
    resolve_solution,
    rowell_solution,
    xshape_solution,
)

REGISTRY_231 = ("rowell", "base1", "base2", "base3")


def kron_generator(sig, local, n, i):
    """I^(l(i-1)) ⊗ local ⊗ I^(l(n-i-1)) by Kronecker products, independent
    of the contraction under test."""
    left = linalg.identity(sig.d ** (sig.l * (i - 1)))
    right = linalg.identity(sig.d ** (sig.l * (n - i - 1)))
    return linalg.kron_all([left, local, right])


def reference_violation(r, n, tol):
    """The first failing pair and its residual under the all-pairs check over
    dense generators, far pairs first; None when every relation holds."""
    sig = r.signature
    if sig.d ** (sig.m + (n - 2) * sig.l) > MAX_MATRIX_SIDE:
        raise ValueError("over the dense cap")
    gens = [kron_generator(r.signature, r.matrix, n, i) for i in range(1, n)]
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            a, b = gens[i], gens[j]
            residual = linalg.max_abs_diff(a @ b, b @ a)
            if residual > tol:
                return (i + 1, j + 1), residual
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        residual = linalg.max_abs_diff(a @ b @ a, b @ a @ b)
        if residual > tol:
            return (i + 1, i + 2), residual
    return None


def reference_word_matrix(r, n, letters):
    """Dense product of generator images, inverses by numpy."""
    out = linalg.identity(r.signature.d ** (r.signature.m + (n - 2) * r.signature.l))
    for v in letters:
        g = kron_generator(r.signature, r.matrix, n, abs(v))
        out = out @ (g if v > 0 else np.linalg.inv(g))
    return out


def _candidate(name, kind, scale, rng):
    """A registry solution, or a non-solution derived from it.

    ``dense`` adds scaled complex noise, which generally breaks far
    commutativity as well; ``product`` is U ⊗ I for a random unitary U on
    the first m-1 factors, which commutes with its far translates but
    fails the braid relation.
    """
    r = resolve_solution(name)
    size = r.size
    if kind == "dense":
        noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        return RMatrix(r.signature, r.matrix + scale * noise, "dense")
    if kind == "product":
        u = random_unitary(size // r.signature.d, rng)
        return RMatrix(r.signature, linalg.kron(u, linalg.identity(r.signature.d)), "product")
    return r


def test_braid_word_validation():
    w = BraidWord(4, (1, 2, -1, 3))
    assert len(w) == 4
    with pytest.raises(ValueError):
        BraidWord(4, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(1, ())


def test_braid_word_parse():
    assert parse_braid_word("n=4: 1,2,-1,3") == BraidWord(4, (1, 2, -1, 3))
    assert parse_braid_word("n=3:") == BraidWord(3, ())
    assert parse_braid_word("n=3:   ") == BraidWord(3, ())
    assert parse_braid_word(" n = 5 : 2, -2 ") == BraidWord(5, (2, -2))
    with pytest.raises(ValueError):
        parse_braid_word("4: 1,2")
    with pytest.raises(ValueError):
        parse_braid_word("n=3: 1;2")
    # Only an empty body is the empty word; an empty letter is malformed.
    for text in ("n=3: ,", "n=3: 1,,2", "n=3: 1,2,", "n=3: ,1"):
        with pytest.raises(ValueError, match="empty letter"):
            parse_braid_word(text)
    # Integers are plain ASCII decimals; int() alone would read the first
    # three as letter 11, letter 1 and 3 strands.
    for text in ("n=12: 1_1", "n=3: \u0661", "n=\u0663: 1", "n=3: +1", "n=: 1"):
        with pytest.raises(ValueError, match="not a decimal integer"):
            parse_braid_word(text)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    s = StateVector(linalg.identity(4)[2])
    assert s.dim == 4
    assert s.amplitudes[2] == 1.0
    with pytest.raises(ValueError, match="finite"):
        StateVector(np.array([1.0, np.nan]))


@pytest.mark.parametrize(
    "shape, got", [((4, 4), "a 4x4 matrix"), ((1, 16), "a 1x16 matrix"), ((2, 2, 4), "shape (2, 2, 4)")]
)
def test_state_vector_takes_a_vector_or_one_column_only(shape, got):
    # 16 amplitudes of norm 1 in each shape; only (16,) and (16, 1) are states.
    amps = np.full(shape, 0.25)
    with pytest.raises(ValueError) as raised:
        StateVector(amps)
    assert str(raised.value) == f"a state must be a vector or one column, got {got}"
    for good in (amps.reshape(16), amps.reshape(16, 1)):
        s = StateVector(good)
        assert s.dim == 16
        assert np.array_equal(s.amplitudes, np.full(16, 0.25))


def test_build_rep_zeta_three_strands():
    rep = build_rep(rowell_solution(), 3, tol=1e-13)
    assert rep.dim == 16
    g1, g2 = rep.generator(1), rep.generator(2)
    assert linalg.max_abs_diff(g1 @ g2 @ g1, g2 @ g1 @ g2) <= 1e-13


def test_build_rep_family_three_four_strands():
    rep = build_rep(base_solution(3).to_rmatrix("base3"), 4, tol=1e-12)
    assert rep.dim == 32
    for i in range(1, rep.n):
        assert linalg.unitarity_residual(rep.generator(i)) <= 1e-12


def test_build_rep_two_strands():
    for name in REGISTRY_231:
        rep = build_rep(resolve_solution(name), 2, tol=1e-12)
        assert rep.dim == 8
        assert rep.n == 2 and np.array_equal(rep.generator(1), rep.r.matrix)
    # Two strands have no relation to check, so a non-solution builds too.
    r = RMatrix(GybeSignature(2, 3, 1), random_unitary(8, np.random.default_rng(30)))
    assert not check_gybe(r, 1e-10).passed
    assert build_rep(r, 2).dim == 8
    with pytest.raises(RepresentationError):
        build_rep(r, 3)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(REGISTRY_231 + ("xshape",)),
    kind=st.sampled_from(("exact", "dense", "product")),
    scale=st.sampled_from((1e-6, 1e-3, 0.1)),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_rep_matches_all_pairs_reference(name, kind, scale, n, seed):
    r = _candidate(name, kind, scale, np.random.default_rng(seed))
    tol = 1e-10
    try:
        expected = reference_violation(r, n, tol)
    except ValueError:  # over the dense cap
        with pytest.raises(ValueError, match="dense cap"):
            build_rep(r, n, tol)
        return
    if expected is None:
        rep = build_rep(r, n, tol)
        assert rep.dim == r.signature.d ** (r.signature.m + (n - 2) * r.signature.l)
        return
    with pytest.raises(RepresentationError) as err:
        build_rep(r, n, tol)
    assert err.value.pair == expected[0]
    assert abs(err.value.residual - expected[1]) <= 1e-15


def _solution(name):
    """A registry solution, or one of two non-unitary solutions: a scalar
    multiple and a local conjugate."""
    if name == "scaled":
        return apply_gauge(rowell_solution(), GaugeOp.scalar(1.25))
    if name == "conjugated":
        r = resolve_solution("base1")
        q = linalg.identity(2) + 0.3 * np.array([[0.2, 0.5j], [-0.4, 0.1]])
        q3 = linalg.kron_all([q, q, q])
        return RMatrix(r.signature, q3 @ r.matrix @ linalg.inverse(q3), "conjugated")
    return resolve_solution(name)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(REGISTRY_231 + ("xshape", "scaled", "conjugated")),
    n=st.integers(2, 5),
    data=st.data(),
)
def test_word_evaluation_matches_dense_products(name, n, data):
    r = _solution(name)
    rep = build_rep(r, n)
    letters = data.draw(
        st.lists(
            st.integers(1, n - 1).flatmap(lambda v: st.sampled_from((v, -v))), max_size=8
        )
    )
    want = reference_word_matrix(r, n, letters)
    word = BraidWord(n, tuple(letters))
    assert linalg.max_abs_diff(evaluate_word(rep, word), want) <= 1e-13
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
    s = StateVector(amps / np.linalg.norm(amps))
    if linalg.unitarity_residual(rep.r.matrix) <= 1e-10:
        got = apply_to_state(rep, word, s).amplitudes
        assert linalg.max_abs(got - want @ s.amplitudes) <= 1e-13
    else:  # a non-unitary R is refused, even on a word that keeps the norm
        with pytest.raises(ValueError, match="needs a unitary R"):
            apply_to_state(rep, word, s)


# (d, m, l) and the largest strand count drawn: windows that start past
# qudit 0, letters wider than their shift, and d = 3, 4.
WINDOW_LAYOUTS = (((2, 2, 1), 6), ((2, 3, 1), 5), ((2, 3, 2), 4), ((2, 4, 2), 4), ((3, 2, 1), 4), ((4, 2, 1), 4))


def _hand_built_rep(sig, n, rng):
    """A representation of a random invertible R with singular values in
    [0.5, 2], assembled directly: R solves nothing, only the layout is tested."""
    side = sig.matrix_size
    values = rng.uniform(0.5, 2.0, side)
    matrix = random_unitary(side, rng) * values @ random_unitary(side, rng)
    r = RMatrix(sig, matrix, "random")
    return BraidRep(r, n)


def _window_support(sig, n, letters):
    """Where I^(lo) ⊗ block ⊗ I^(rest) may be nonzero, for the qudit window
    [lo, hi) the letters touch (the diagonal for the empty word)."""
    starts = [sig.l * (abs(v) - 1) for v in letters]
    lo, hi = (min(starts), max(starts) + sig.m) if letters else (0, 0)
    qudits = sig.m + (n - 2) * sig.l
    eye = lambda k: np.eye(sig.d**k, dtype=bool)  # noqa: E731
    return np.kron(np.kron(eye(lo), np.ones((sig.d ** (hi - lo),) * 2, dtype=bool)), eye(qudits - hi))


@settings(max_examples=80, deadline=None)
@given(layout=st.sampled_from(WINDOW_LAYOUTS), data=st.data())
def test_windowed_word_evaluation_matches_dense_products(layout, data):
    (d, m, l), top = layout
    sig = GybeSignature(d, m, l)
    n = data.draw(st.integers(2, top))
    rep = _hand_built_rep(sig, n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    letters = data.draw(
        st.lists(st.integers(1, n - 1).flatmap(lambda v: st.sampled_from((v, -v))), max_size=6)
    )
    got = evaluate_word(rep, BraidWord(n, tuple(letters)))
    want = reference_word_matrix(rep.r, n, letters)
    # Only rounding may differ: BLAS blocks a d = 3 contraction by its width.
    assert linalg.max_abs_diff(got, want) <= 1e-12 * max(1.0, linalg.max_abs(want))
    outside = got.view(np.float64).reshape(rep.dim, rep.dim, 2)[~_window_support(sig, n, letters)]
    assert not outside.view(np.uint64).any()  # +0.0, never -0.0


def _contraction_sides(monkeypatch):
    """The row count of every block braiding contracts, recorded by a spy."""
    sides = []

    def spy(m, columns, left):
        sides.append(columns.shape[0])
        return apply_local(m, columns, left)

    monkeypatch.setattr(braiding, "apply_local", spy)
    return sides


def test_word_evaluation_contracts_only_its_window(monkeypatch):
    rep = build_rep(rowell_solution(), 8)  # (2, 3, 1): 512 on 8 strands
    sides = _contraction_sides(monkeypatch)
    # sigma_3 covers qudits 2..4, sigma_4 qudits 3..5: a 16-side window.
    letters = (3, 4, -3, 4, 3)
    got = evaluate_word(rep, BraidWord(8, letters))
    assert linalg.max_abs_diff(got, reference_word_matrix(rep.r, 8, letters)) <= 1e-13
    assert len(sides) == len(letters) and max(sides) == 16
    sides.clear()
    assert np.array_equal(rep.generator(5), kron_generator(rep.r.signature, rep.r.matrix, 8, 5))
    assert sides == []  # R placed into zeros at its window, nothing contracted


def _layout_cases():
    """(R, largest strand count under the cap) over the registry, xshape and
    random matrices: one far pair at shift two, d = 3, two far pairs."""
    rng = np.random.default_rng(33)
    cases = [(resolve_solution(name), 6) for name in REGISTRY_231] + [(xshape_solution(), 5)]
    for (d, m, l), top in (((2, 5, 2), 4), ((3, 3, 1), 5), ((2, 4, 1), 5)):
        size = d**m
        for _ in range(2):
            noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            cases.append((RMatrix(GybeSignature(d, m, l), noise, "random"), top))
    return cases


def test_generator_images_and_far_pairs_match_kron_reference():
    for r, top in _layout_cases():
        sig = r.signature
        for j in far_commutativity_indices(sig):
            g1 = kron_generator(sig, r.matrix, j + 1, 1)
            gj = kron_generator(sig, r.matrix, j + 1, j)
            assert far_commutativity_residual(r, j) == linalg.max_abs_diff(g1 @ gj, gj @ g1)
        for n in range(2, top + 1):
            # A random R fails the relations, so its representation is
            # assembled directly; only the tensor layout is under test here.
            if r.label == "random":
                rep = BraidRep(r, n)
            else:
                rep = build_rep(r, n)
            for i in range(1, n):
                want = kron_generator(sig, r.matrix, n, i)
                assert np.array_equal(braid_generator_matrix(r, n, i), want)
                assert np.array_equal(rep.generator(i), want)
                want_inv = kron_generator(sig, rep.r.inverse, n, i)
                assert np.array_equal(rep.generator(-i), want_inv)


def test_place_matches_the_kron_reference_on_stacks_and_entry_numbers():
    for r, top in _layout_cases():
        sig, side = r.signature, r.size
        stack = np.stack([r.matrix, 2 * r.matrix, r.matrix.conj()])
        numbers = np.arange(1, side * side + 1).reshape(side, side)
        for n in range(2, top + 1):
            for i in range(1, n):
                placed = _place(stack, sig, n, i)
                assert placed.shape == (3,) + (braid_dimension(sig, n),) * 2
                assert all(np.array_equal(p, kron_generator(sig, m, n, i)) for p, m in zip(placed, stack))
                entries = _place(numbers, sig, n, i)
                assert entries.dtype == numbers.dtype
                assert np.array_equal(entries, kron_generator(sig, numbers, n, i))


def test_generator_images_on_two_strands_are_writable_copies():
    # On two strands nothing is padded: each image must still be a copy.
    for r in (rowell_solution(), apply_gauge(rowell_solution(), GaugeOp.scalar(2))):
        rep = BraidRep(r, 2)
        for image in (rep.generator(1), rep.generator(-1), braid_generator_matrix(r, 2, 1)):
            assert image.flags.writeable
            assert not np.shares_memory(image, r.matrix) and not np.shares_memory(image, rep.r.inverse)


def _layout_reads(path):
    """Lines of the module at ``path`` that read an attribute named ``l``."""
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "l"]


def test_no_module_but_core_knows_the_braid_layout():
    found = {}
    for path in sorted(pathlib.Path(gybe.__file__).parent.glob("*.py")):
        lines = _layout_reads(path)
        if lines and path.name != "core.py":
            found[path.name] = lines
    assert found == {}
    assert _layout_reads(pathlib.Path(core.__file__))  # the guard sees core's
    tree = ast.parse(pathlib.Path(pattern_residual.__file__).read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not imported & {"pad_identity", "braid_dimension"}


def test_the_state_path_refuses_a_non_unitary_solution():
    # 2·rowell solves the equation, so it affords a representation, but
    # RR† = 4I: a state is refused before any letter acts on it.
    rep = build_rep(apply_gauge(rowell_solution(), GaugeOp.scalar(2)), 3)
    assert not linalg.unitarity_residual(rep.r.matrix) <= 1e-10
    assert linalg.unitarity_residual(build_rep(rowell_solution(), 3).r.matrix) <= 1e-10
    state = StateVector(linalg.identity(16)[0])
    message = r"^applying a word to a state needs a unitary R, but max \|RR† - I\| = 3\.000e\+00$"
    for letters in ((1,), ()):
        with pytest.raises(ValueError, match=message):
            apply_to_state(rep, BraidWord(3, letters), state)


def test_the_state_path_names_a_norm_drift_and_the_residual_of_r():
    # R passes the 1e-10 unitarity verdict, but ten letters move the norm by
    # 4e-10: the output, not the caller's unit-norm state, is refused.
    r = rowell_solution()
    rep = build_rep(RMatrix(r.signature, r.matrix * (1 + 4e-11)), 3)
    assert linalg.unitarity_residual(rep.r.matrix) <= 1e-10
    state = StateVector(linalg.identity(16)[0])
    message = (
        r"^a word of 10 letter\(s\) drifted the output's norm by 4\.000e-10, beyond 1e-10: "
        r"R is unitary only to max \|RR† - I\| = 8\.000e-11$"
    )
    with pytest.raises(ValueError, match=message):
        apply_to_state(rep, BraidWord(3, (1,) * 10), state)
    assert apply_to_state(rep, BraidWord(3, (1,)), state).dim == 16  # one letter stays within


@pytest.mark.parametrize(
    "scale, accepted",
    [
        (1.0, True),
        (1j, True),
        (1 + 2e-11, True),
        (1 + 4e-11, True),
        (1 - 4e-11, True),
        (1 + 6e-11, False),
        (1 - 6e-11, False),
        (1 + 1e-9, False),
        (2.0, False),
        (0.5, False),
    ],
)
def test_the_state_path_verdict_is_the_residual_of_r_at_1e_10(scale, accepted):
    # |scale|² - 1 is R's unitarity defect: 4e-11 leaves max |RR† - I| near
    # 8e-11, within the verdict, and 6e-11 near 1.2e-10, beyond it.
    r = rowell_solution()
    rep = build_rep(RMatrix(r.signature, r.matrix * scale), 3)
    residual = linalg.unitarity_residual(rep.r.matrix)
    assert (residual <= 1e-10) is accepted
    state = StateVector(linalg.identity(16)[0])
    if accepted:
        np.testing.assert_array_equal(apply_to_state(rep, BraidWord(3, ()), state).amplitudes, state.amplitudes)
    else:
        message = f"applying a word to a state needs a unitary R, but max |RR† - I| = {residual:.3e}"
        with pytest.raises(ValueError) as raised:
            apply_to_state(rep, BraidWord(3, (1,)), state)
        assert str(raised.value) == message


@pytest.mark.parametrize("name", registry_ids())
def test_a_representation_forms_no_rr_dagger_and_a_state_forms_one(name, monkeypatch):
    # The residual of R is read where it is used, once per state, and not
    # stored when the representation is built.
    calls = []
    measure = linalg.unitarity_residual
    monkeypatch.setattr(linalg, "unitarity_residual", lambda m: calls.append(m) or measure(m))
    rep = build_rep(resolve_solution(name), 3)
    evaluate_word(rep, BraidWord(3, (1, -2)))
    assert calls == []
    state = StateVector(linalg.identity(rep.dim)[0])
    out = apply_to_state(rep, BraidWord(3, (1, 2, -1)), state)
    assert len(calls) == 1 and calls[0] is rep.r.matrix
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10


def test_every_braid_path_hits_the_dense_cap():
    r = rowell_solution()
    assert braid_dimension(r.signature, 9) == 1024
    with pytest.raises(ValueError, match="dense cap"):
        braid_generator_matrix(r, 10, 1)
    with pytest.raises(ValueError, match="dense cap"):
        build_rep(r, 10)
    with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
        braid_dimension(r.signature, 1)


def test_build_then_evaluate_nine_strands_budget():
    # Checking every generator pair with dense 1024-side products takes about
    # 8 s; the signature-level check does not grow with n.
    start = time.perf_counter()
    rep = build_rep(rowell_solution(), 9)
    out = evaluate_word(rep, BraidWord(9, (1, 2, 3, 4, 5, 6, 7, 8)))
    elapsed = time.perf_counter() - start
    assert out.shape == (1024, 1024)
    assert elapsed < 2.0, f"build_rep + 8-letter word took {elapsed:.2f}s"


def test_build_rep_xshape_far_commutativity_is_blanket():
    # With shift 2 the generators act on disjoint factors for every strand
    # count that fits under the dense-size cap.
    for n in (3, 4, 5):
        rep = build_rep(xshape_solution(), n, tol=1e-12)
        assert rep.dim == 2 ** (3 + 2 * (n - 2))
    with pytest.raises(ValueError):
        build_rep(xshape_solution(), 6)


def test_build_rep_rejects_far_commutativity_violation():
    b = base_solution(1)
    x = b.x_matrix().copy()
    x[:2, :2] = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    bad = RMatrix(GybeSignature(2, 3, 1), linalg.direct_sum(x, b.y_matrix()), "bad")
    with pytest.raises(RepresentationError) as err:
        build_rep(bad, 4)
    assert err.value.pair == (1, 3)
    assert err.value.residual > 0.1


@pytest.mark.parametrize("scale, n, pair", [(1e103, 3, (1, 2)), (1e103, 4, (1, 2)), (1e155, 4, (1, 3))])
def test_build_rep_refuses_a_relation_whose_residual_overflows(scale, n, pair):
    # The products of a finite R can overflow: the residual is then NaN,
    # which no tolerance passes, and numpy is not left to warn about it.
    r = RMatrix(GybeSignature(2, 3, 1), scale * rowell_solution().matrix, "big")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not check_gybe(r).passed
        with pytest.raises(RepresentationError) as err:
            build_rep(r, n)
    assert err.value.pair == pair and np.isnan(err.value.residual)


def test_build_rep_far_pair_with_shift_two():
    # For (2,5,2), sigma_1 and sigma_3 overlap and span 4 strands (side 2^9);
    # padding them to (j-1)l+2 = 6 strands would exceed the dense cap.
    sig = GybeSignature(2, 5, 2)
    assert build_rep(RMatrix(sig, linalg.identity(32)), 4).dim == 2**9
    r = RMatrix(sig, random_unitary(32, np.random.default_rng(32)))
    pair, residual = reference_violation(r, 4, 1e-10)
    with pytest.raises(RepresentationError) as err:
        build_rep(r, 4)
    assert err.value.pair == pair == (1, 3)
    assert abs(err.value.residual - residual) <= 1e-15


def test_build_rep_dimension_cap():
    with pytest.raises(ValueError):
        build_rep(rowell_solution(), 10)


def test_a_representation_takes_only_r_and_n():
    assert [f.name for f in dataclasses.fields(BraidRep) if f.init] == ["r", "n"]
    assert [f.name for f in dataclasses.fields(BraidRep)] == ["r", "n", "qudits", "dim"]
    assert not hasattr(BraidRep, "unitary")
    r = rowell_solution()
    rep = BraidRep(r, np.int64(4))
    assert (type(rep.n), rep.n, rep.qudits, rep.dim) == (int, 4, 5, 32)
    assert rep.dim == braid_dimension(r.signature, 4) == build_rep(r, 4).dim
    # Past the dense cap that build_rep enforces, and below two strands.
    with pytest.raises(ValueError, match="exceeds the dense cap"):
        BraidRep(r, 10)
    with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
        BraidRep(r, 1)
    # The side and the inverse are no longer the caller's to give.
    with pytest.raises(TypeError):
        BraidRep(r, 3, 16, np.eye(8))


def test_an_inverse_letter_places_the_read_only_inverse_r_keeps():
    # A representation keeps no inverse of its own, unitary R or not.
    assert "inverse" not in [f.name for f in dataclasses.fields(BraidRep)]
    rng = np.random.default_rng(28)
    sig = GybeSignature(2, 3, 1)
    scaled = random_unitary(8, rng) * rng.uniform(0.5, 2.0, 8) @ random_unitary(8, rng)
    cases = [resolve_solution(name) for name in registry_ids()] + [RMatrix(sig, scaled, "random")]
    for r in cases:
        rep = BraidRep(r, 3)
        unitary = linalg.unitarity_residual(r.matrix) <= 1e-10
        assert unitary == (r.label != "random")
        assert rep._letter(-1)[0] is r.inverse
        for i in (1, 2):
            assert np.array_equal(rep.generator(-i), kron_generator(r.signature, r.inverse, 3, i))
        assert not r.inverse.flags.writeable
        with pytest.raises(ValueError):
            r.inverse[0, 0] = 1.0
        out = evaluate_word(rep, BraidWord(3, (1, -1)))
        assert linalg.max_abs_diff(out, linalg.identity(rep.dim)) <= 1e-12, r.label


def test_words_and_states_share_one_letter_loop(monkeypatch):
    assert inspect.getsource(braiding).count("for letter in reversed(") == 1
    rep = build_rep(rowell_solution(), 5)
    word, state = BraidWord(5, (2, -3, 1, 4)), StateVector(linalg.identity(rep.dim)[3])
    # A state is one apply_local call per letter on the full side, as before.
    d, want = rep.r.signature.d, state.amplitudes
    for letter in reversed(word.letters):
        local, start = rep._letter(letter)
        want = apply_local(local, want, d**start)
    windows = []
    contract = braiding._contract

    def spy(rep, letters, block, lo, hi):
        windows.append((block.shape, lo, hi))
        return contract(rep, letters, block, lo, hi)

    monkeypatch.setattr(braiding, "_contract", spy)
    assert np.array_equal(apply_to_state(rep, word, state).amplitudes, want)
    assert windows == [((rep.dim,), 0, rep.qudits)]
    evaluate_word(rep, word)
    word_difference(rep, word, BraidWord(5, (1,)))
    assert len(windows) == 4 and all(shape == (1, 1) for shape, _, _ in windows[1:])


def test_evaluate_empty_word_is_identity():
    rep = build_rep(rowell_solution(), 3)
    np.testing.assert_array_equal(
        evaluate_word(rep, BraidWord(3, ())), linalg.identity(16)
    )


def test_evaluate_cancelling_word():
    rep = build_rep(rowell_solution(), 3)
    out = evaluate_word(rep, BraidWord(3, (1, -1)))
    assert linalg.max_abs_diff(out, linalg.identity(16)) <= 1e-13


def test_braid_relation_words_agree_for_all_registry_solutions():
    for name in REGISTRY_231:
        rep = build_rep(resolve_solution(name), 3)
        lhs = evaluate_word(rep, BraidWord(3, (1, 2, 1)))
        rhs = evaluate_word(rep, BraidWord(3, (2, 1, 2)))
        assert linalg.max_abs_diff(lhs, rhs) <= 1e-12


def test_word_evaluation_is_homomorphic():
    rng = np.random.default_rng(27)
    rep = build_rep(resolve_solution("base1"), 4)
    for _ in range(4):
        letters1 = tuple(
            int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
            for _ in range(int(rng.integers(0, 9)))
        )
        letters2 = tuple(
            int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
            for _ in range(int(rng.integers(0, 9)))
        )
        w1, w2 = BraidWord(4, letters1), BraidWord(4, letters2)
        lhs = evaluate_word(rep, BraidWord(4, letters1 + letters2))
        rhs = evaluate_word(rep, w1) @ evaluate_word(rep, w2)
        assert linalg.max_abs_diff(lhs, rhs) <= 1e-10


def test_evaluate_word_strand_mismatch():
    rep = build_rep(rowell_solution(), 3)
    with pytest.raises(ValueError):
        evaluate_word(rep, BraidWord(4, (1,)))


def test_long_words_stay_unitary():
    rng = np.random.default_rng(28)
    rep = build_rep(resolve_solution("base2"), 3)
    letters = tuple(
        int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1) for _ in range(64)
    )
    out = evaluate_word(rep, BraidWord(3, letters))
    assert linalg.unitarity_residual(out) <= 1e-9


def test_apply_identity_word_fixes_basis_state():
    rep = build_rep(rowell_solution(), 3)
    s = StateVector(linalg.identity(16)[0])
    out = apply_to_state(rep, BraidWord(3, ()), s)
    np.testing.assert_array_equal(out.amplitudes, s.amplitudes)


def test_apply_preserves_norm():
    rng = np.random.default_rng(29)
    rep = build_rep(resolve_solution("base3"), 3)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    s = StateVector(amps / np.linalg.norm(amps))
    out = apply_to_state(rep, BraidWord(3, (1, 2, -1, 2, 2, -2)), s)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-9


def test_single_generator_action_reads_off_first_column():
    # rho(sigma_1) = R ox I2, so e0 maps to column 0: entries of the X
    # quadrant's first column (1, 0, -i, 0)/sqrt2 land on rows 0 and 4.
    rep = build_rep(base_solution(1).to_rmatrix("base1"), 3)
    out = apply_to_state(rep, BraidWord(3, (1,)), StateVector(linalg.identity(16)[0]))
    expected = np.zeros(16, dtype=complex)
    expected[0] = 1 / np.sqrt(2)
    expected[4] = -1j / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)
    np.testing.assert_allclose(
        out.amplitudes, rep.generator(1)[:, 0], atol=1e-14
    )


def test_apply_dimension_mismatch():
    rep = build_rep(rowell_solution(), 3)
    with pytest.raises(ValueError):
        apply_to_state(rep, BraidWord(3, (1,)), StateVector(linalg.identity(8)[0]))


def test_recognize_plain_generator():
    rep = build_rep(resolve_solution("base2"), 3)
    hit = recognize_braiding_gate(rep, rep.generator(2))
    assert hit is not None
    index, lam = hit
    assert index == 2
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_recognize_scaled_generator():
    rep = build_rep(rowell_solution(), 3)
    lam = np.exp(1j * np.pi / 7)
    hit = recognize_braiding_gate(rep, lam * rep.generator(1))
    assert hit is not None
    assert hit[0] == 1
    assert hit[1] == pytest.approx(lam, abs=1e-12)


def test_recognize_builds_no_image_past_a_hit(monkeypatch):
    # 8 strands of rowell: a hit at sigma_1 builds one 512 x 512 image, not all seven.
    rep = build_rep(rowell_solution(), 8)
    gate = rep.generator(1)
    placed = []
    monkeypatch.setattr(braiding, "_place", lambda *args: placed.append(args) or core._place(*args))
    assert recognize_braiding_gate(rep, gate)[0] == 1
    assert len(placed) == 1


def test_recognize_rejects_products():
    rep = build_rep(rowell_solution(), 3)
    product = rep.generator(1) @ rep.generator(2)
    assert recognize_braiding_gate(rep, product) is None


def test_recognize_rejects_non_finite_gates():
    rep = build_rep(rowell_solution(), 3)
    gate = rep.generator(1)
    gate[0, 0] = np.nan
    for u in (gate, np.full((rep.dim, rep.dim), np.nan)):
        with pytest.raises(ValueError, match="finite"):
            recognize_braiding_gate(rep, u)


def test_recognize_every_registry_generator():
    for name in REGISTRY_231:
        rep = build_rep(resolve_solution(name), 4)
        for i in range(1, 4):
            hit = recognize_braiding_gate(rep, evaluate_word(rep, BraidWord(4, (i,))))
            assert hit is not None
            assert hit[0] == i
            assert hit[1] == pytest.approx(1.0, abs=1e-10)


# Every registry solution's representation on 3 and 4 strands, built once.
RECOGNIZED_REPS = {(name, n): build_rep(resolve_solution(name), n) for name in registry_ids() for n in (3, 4)}


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(sorted(RECOGNIZED_REPS)),
    exponent=st.floats(-200, 200),
    phase=st.floats(0, 2 * np.pi),
    data=st.data(),
)
def test_recognize_finds_a_scaled_generator_at_any_magnitude(key, exponent, phase, data):
    # Two 1e-12 cutoffs, on the largest entry's generator entry and on the
    # estimated lambda, used to refuse every gate with |lambda| < 1e-12.
    rep = RECOGNIZED_REPS[key]
    i = data.draw(st.integers(1, rep.n - 1), label="generator")
    lam = 10.0**exponent * np.exp(1j * phase)
    hit = recognize_braiding_gate(rep, lam * rep.generator(i), tol=1e-12 * abs(lam))
    assert hit is not None and hit[0] == i
    assert abs(hit[1] - lam) <= 1e-12 * abs(lam)


def _no_inverse(m):
    raise AssertionError("build_rep must not invert a matrix")


def test_generator_accessor_handles_inverses():
    rep = build_rep(rowell_solution(), 3)
    inv = rep.generator(-1)
    assert np.array_equal(inv, kron_generator(rep.r.signature, rep.r.inverse, 3, 1))
    # build_rep inverts nothing: an inverse letter places the read-only
    # inverse that R keeps, unitary R or not.
    for name in ("rowell", "scaled", "conjugated"):
        r = _solution(name)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "inverse", _no_inverse)
            built = build_rep(r, 3)
        assert built._letter(-1)[0] is r.inverse, name
        assert linalg.max_abs_diff(r.matrix @ built.r.inverse, linalg.identity(8)) <= 1e-13, name
        with pytest.raises(ValueError):
            built.r.inverse[0, 0] = 0.0
    with pytest.raises(ValueError):
        rep.generator(0)
    with pytest.raises(ValueError):
        rep.generator(5)


def _letters(lo, hi, max_size=6):
    """Signed letters of the generators lo..hi."""
    return st.lists(st.integers(lo, hi).flatmap(lambda v: st.sampled_from((v, -v))), max_size=max_size)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(
        REGISTRY_231 + ("xshape", "scaled", "family1:theta=0.41", "family2:theta=2.2", "family3:theta=0.9")
    ),
    n=st.integers(3, 6),
    layout=st.sampled_from(("any", "far apart", "one empty")),
    data=st.data(),
)
def test_word_difference_is_that_of_the_full_matrices(name, n, layout, data):
    r = _solution(name) if name in REGISTRY_231 + ("xshape", "scaled") else resolve_solution(name)
    n = min(n, 5) if r.signature.l == 2 else n  # xshape on 6 strands is 2048 wide
    rep = build_rep(r, n)
    if layout == "any":
        u, v = data.draw(_letters(1, n - 1)), data.draw(_letters(1, n - 1))
    elif layout == "far apart":  # disjoint windows once n is large enough
        u, v = data.draw(_letters(1, 1)), data.draw(_letters(n - 1, n - 1))
    else:
        u, v = [], data.draw(_letters(1, n - 1))
    if data.draw(st.booleans()):
        u, v = v, u
    u, v = BraidWord(n, tuple(u)), BraidWord(n, tuple(v))
    want = linalg.max_abs_diff(evaluate_word(rep, u), evaluate_word(rep, v))
    assert braiding.word_difference(rep, u, v).hex() == want.hex()


def test_inverse_letters_cancel_on_every_certified_search_class():
    # The benchmark's 16 search calls: the rowell pattern at (2,3,1), 4
    # restarts, seeds 0-15.  Their classes are unitary only to about 1e-12,
    # and sigma_i^-1 must still cancel sigma_i to rounding.
    sig = GybeSignature(2, 3, 1)
    calls = [solve_pattern(rowell_pattern(), sig, SearchConfig(restarts=4, seed=seed)) for seed in range(16)]
    found = [hit.solution for call in calls for hit in call.solutions]
    assert len(found) >= 40
    for r in found:
        for text in ("n=3: 1,-1", "n=4: -2,2", "n=4: 3,1,-3,-1"):
            w = parse_braid_word(text)
            assert word_difference(build_rep(r, w.n), w, BraidWord(w.n)) <= 1e-14, text


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.floats(1e-13, 1e-11), letters=_letters(1, 3))
def test_a_word_times_its_inverse_cancels_on_a_nearly_unitary_r(seed, eps, letters):
    # R = U + eps E is unitary only to about eps and fails the relations, so
    # its representation is assembled directly; w w^-1 is still e.
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rep = BraidRep(RMatrix(GybeSignature(2, 3, 1), random_unitary(8, rng) + eps * noise), 4)
    word = BraidWord(4, (*letters, *(-v for v in reversed(letters))))
    assert word_difference(rep, word, BraidWord(4)) <= 1e-13


def test_word_difference_pads_only_to_the_union_window():
    rep = build_rep(rowell_solution(), 6)
    u, v = parse_braid_word("n=6: 1,1"), parse_braid_word("n=6: 5,-5")
    (_, *window_u), (_, *window_v) = (braiding._word_block(rep, w.letters) for w in (u, v))
    assert window_u == [0, 3] and window_v == [4, 7]  # disjoint
    want = linalg.max_abs_diff(evaluate_word(rep, u), evaluate_word(rep, v))
    assert braiding.word_difference(rep, u, v) == want > 0.5


def test_word_difference_rejects_a_non_finite_word():
    # 330 letters of 10 * rowell overflow to non-finite entries.
    rep = build_rep(RMatrix(GybeSignature(2, 3, 1), 10 * rowell_solution().matrix), 3)
    big, small = BraidWord(3, (1,) * 330), BraidWord(3, (1,))
    with np.errstate(over="ignore", invalid="ignore"):
        for u, v in ((big, small), (small, big), (big, big)):
            with pytest.raises(ValueError, match="not finite"):
                braiding.word_difference(rep, u, v)


def test_word_difference_strand_mismatch():
    rep = build_rep(rowell_solution(), 4)
    for u, v in ((BraidWord(4, (1,)), BraidWord(5, (1,))), (BraidWord(5, (1,)), BraidWord(4, (1,)))):
        with pytest.raises(ValueError, match="word is on 5 strands but the representation has 4"):
            braiding.word_difference(rep, u, v)
