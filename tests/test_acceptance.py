"""Acceptance suite: one test per criterion, each printed with its runtime.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from gybe import linalg
from gybe.braiding import BraidWord, build_rep, evaluate_word
from gybe.core import (
    GybeSignature,
    RMatrix,
    check_far_commutativity,
    check_gybe,
    check_ybe,
)
from gybe.equivalence import (
    apply_gauge_sequence,
    search_equivalence,
    search_local_conjugation,
)
from gybe.search import SearchConfig, rowell_pattern, solve_pattern
from gybe.solutions import (
    BlockSolution,
    base_solution,
    check_block_equations,
    classify_unitary_params,
    family_solution,
    general_solution,
    param_constraint_residuals,
    reduce_to_B_identity,
    resolve_solution,
    restore,
    rowell_solution,
    split_blocks,
    xshape_solution,
)

THETA_GRID = np.linspace(0.0, np.pi, 25)
REGISTRY_231 = ("rowell", "base1", "base2", "base3")


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL [{number:2d}] {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS [{number:2d}] {name}: {elapsed:.3f}s (budget {budget_seconds}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.3f}s >= {budget_seconds}s"
    )


def test_criterion_01_zeta_solution():
    r = rowell_solution()  # construction excluded from the timing budget
    with criterion(1, "zeta solution verifies", 0.010):
        assert check_gybe(r, 1e-13).residual <= 1e-13
        assert linalg.unitarity_residual(r.matrix) <= 1e-13


def test_criterion_02_xshape_solution():
    r = xshape_solution()
    with criterion(2, "x-shape solution verifies on 32-dim lifts", 0.050):
        assert check_gybe(r, 1e-13).residual <= 1e-13
        report = check_far_commutativity(r, 1e-13)
        assert report.passed and report.vacuous


def test_criterion_03_three_families_on_grid():
    with criterion(3, "three families pass on a 25-point grid", 2.0):
        for family in (1, 2, 3):
            for theta in THETA_GRID:
                r = family_solution(family, theta)
                assert check_gybe(r, 1e-12).passed
                assert linalg.unitarity_residual(r.matrix) <= 1e-12
                assert check_far_commutativity(r, 1e-12).passed


def test_criterion_04_block_coincidence_exactly_once():
    with criterion(4, "X equals Y exactly once across the grid", 1.0):
        coincidences = []
        ybe_passes = []
        for family in (1, 2, 3):
            for theta in THETA_GRID:
                x, y = split_blocks(family_solution(family, theta).matrix)
                if linalg.max_abs_diff(x, y) <= 1e-12:
                    coincidences.append((family, theta))
                if check_ybe(x, 1e-12).passed:
                    ybe_passes.append((family, theta))
        assert coincidences == [(3, np.pi)]
        assert ybe_passes == [(3, np.pi)]


def test_criterion_05_eigenvalue_invariants():
    lists = {
        1: [np.exp(-1j * np.pi / 12)] * 2 + [np.exp(7j * np.pi / 12)] * 2,
        2: [np.exp(-1j * np.pi / 4), -np.exp(-1j * np.pi / 4)]
        + [np.exp(1j * np.pi / 4)] * 2,
        3: [np.exp(-1j * np.pi / 4)] * 2 + [np.exp(1j * np.pi / 4)] * 2,
    }
    with criterion(5, "base-block eigenvalues match the published lists", 0.100):
        spectra = {}
        for k, expected in lists.items():
            got, expected = linalg.eigenvalues(base_solution(k).x_matrix()), linalg.sort_eigenvalues(expected)
            assert got.shape == expected.shape and linalg.max_abs_diff(got, expected) <= 1e-8
            spectra[k] = got
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a < b:
                    assert spectra[a].shape == spectra[b].shape
                    assert not linalg.max_abs_diff(spectra[a], spectra[b]) <= 1e-6


def test_criterion_06_block_equations_agree_with_direct_check():
    rng = np.random.default_rng(2026)
    with criterion(6, "block equations agree with the direct check", 2.0):
        registry_blocks = [split_blocks(resolve_solution(n).matrix) for n in REGISTRY_231]
        agreements = 0
        for trial in range(50):
            x, y = registry_blocks[trial % len(registry_blocks)]
            if trial % 2 == 1:
                x = x + 1e-3 * (
                    rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                )
                y = y + 1e-3 * (
                    rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                )
            block_verdict = check_block_equations(x, y, 1e-10).passed
            direct = check_gybe(
                RMatrix(GybeSignature(2, 3, 1), linalg.direct_sum(x, y), "pair"),
                1e-10,
            ).passed
            assert block_verdict == direct
            agreements += 1
        assert agreements == 50


def test_criterion_07_parameter_classification():
    rng = np.random.default_rng(2027)
    with criterion(7, "parameter classification matches brute force", 1.0):
        fourth_roots = (1, -1, 1j, -1j)
        admissible = {
            (w, g, d)
            for w in fourth_roots
            for g in fourth_roots
            for d in fourth_roots
            if max(param_constraint_residuals(w, g, d)) <= 1e-9
        }
        assert admissible == {
            (1j, 1j, 1),
            (-1j, -1j, 1),
            (1j, 1, 1j),
            (-1j, 1, -1j),
            (1, 1, 1),
        }
        for triple in admissible:
            assert classify_unitary_params(*triple) != "none"
        for _ in range(1000):
            w, g, d = (np.exp(2j * np.pi * rng.random()) for _ in range(3))
            residual_pass = max(param_constraint_residuals(w, g, d)) <= 1e-9
            assert residual_pass == (classify_unitary_params(w, g, d) != "none")


def test_criterion_08_reduction_round_trip():
    rng = np.random.default_rng(2028)
    with criterion(8, "reduction and restoration invert each other", 2.0):
        for trial in range(100):
            family = trial % 3 + 1
            alpha1 = np.exp(2j * np.pi * rng.random())
            beta1 = np.exp(2j * np.pi * rng.random())
            s = BlockSolution.from_matrices(
                *split_blocks(general_solution(family, alpha1, beta1).matrix)
            )
            reduced = reduce_to_B_identity(s)
            assert reduced.B.p == 1 and reduced.B.q == 1
            back = restore(reduced, s.B)
            assert linalg.max_abs_diff(back.r_matrix(), s.r_matrix()) <= 1e-14
            assert check_block_equations(s.x_matrix(), s.y_matrix(), 1e-10).passed
            assert check_block_equations(
                reduced.x_matrix(), reduced.y_matrix(), 1e-10
            ).passed
        # Off-category parameters keep failing after reduction: the verdict
        # is preserved in both directions.
        bad = BlockSolution.from_params(np.exp(0.9j), 1, 1, 1j, np.exp(0.3j))
        bad_reduced = reduce_to_B_identity(bad)
        assert not check_block_equations(bad.x_matrix(), bad.y_matrix(), 1e-10).passed
        assert not check_block_equations(
            bad_reduced.x_matrix(), bad_reduced.y_matrix(), 1e-10
        ).passed


def test_criterion_09_local_conjugation_criterion():
    rng = np.random.default_rng(2029)
    with criterion(9, "ratio criterion matches the witness search", 30.0):
        for trial in range(50):
            family = trial % 3 + 1
            alpha1 = np.exp(2j * np.pi * rng.random())
            alpha2 = np.exp(2j * np.pi * rng.random())
            if trial % 2 == 0:
                ratio = np.exp(2j * np.pi * rng.random())
                beta1, beta2 = alpha1 * ratio, alpha2 * ratio
            else:
                while True:
                    r1, r2 = (np.exp(2j * np.pi * rng.random()) for _ in range(2))
                    if abs(r1 - r2) > 1e-3:
                        break
                beta1, beta2 = alpha1 * r1, alpha2 * r2
            p_ratio, q_ratio = beta1 / alpha1, beta2 / alpha2
            source = general_solution(family, alpha1, beta1)
            target = general_solution(family, alpha2, beta2)
            shapes = ("diagonal",) if family == 1 else ("diagonal", "antidiagonal")
            hit = search_local_conjugation(source, target, shapes)
            if p_ratio and abs(p_ratio - q_ratio) <= 1e-9:
                assert hit is not None and hit[1] <= 1e-9
            else:
                assert hit is None


def test_criterion_10_zeta_solution_equivalence():
    with criterion(10, "gauge sequence maps the quarter-turn member to zeta", 10.0):
        source = family_solution(1, np.pi / 2)
        target = rowell_solution()
        witness = search_equivalence(source, target)
        assert witness is not None
        assert witness.residual <= 1e-9
        kinds = [op.kind for op in witness.ops]
        assert "local_conj" in kinds and "scalar" in kinds
        reproduced = apply_gauge_sequence(source, witness.ops)
        assert linalg.max_abs_diff(reproduced.matrix, target.matrix) <= 1e-9


def test_criterion_11_braid_representations():
    rng = np.random.default_rng(2031)
    with criterion(11, "braid representations verify for n in 3..5", 10.0):
        for name in REGISTRY_231:
            r = resolve_solution(name)
            for n in (3, 4, 5):
                rep = build_rep(r, n, tol=1e-12)  # verifies relations and pairs
                for i in range(1, n):
                    assert linalg.unitarity_residual(rep.generator(i)) <= 1e-12
                for _ in range(3):
                    letters = tuple(
                        int(rng.integers(1, n)) * (1 if rng.random() < 0.5 else -1)
                        for _ in range(16)
                    )
                    word = evaluate_word(rep, BraidWord(n, letters))
                    assert linalg.unitarity_residual(word) <= 1e-10


def test_criterion_12_search_rediscovery():
    with criterion(12, "pattern search rediscovers certified solutions", 300.0):
        config = SearchConfig(
            tolerance=1e-11, restarts=64, seed=20260808, max_iterations=250
        )
        result = solve_pattern(rowell_pattern(), GybeSignature(2, 3, 1), config)
        assert len(result.solutions) >= 1
        for found in result.solutions:
            assert found.residual <= 1e-11
            assert check_gybe(found.solution, 1e-10).passed
            assert linalg.unitarity_residual(found.solution.matrix) <= 1e-10
