"""Tests for the zero-pattern solution search."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from central_differences import central_differences, five_point_differences
from hypothesis import given, settings
from hypothesis import strategies as st

from gybe import linalg, pattern_residual
from gybe.core import GybeSignature, check_gybe
from gybe.optimize import LeastSquaresResult, solve_stack
from gybe.search import (
    SearchConfig,
    ZeroPattern,
    _certify,
    _combined_residual_vector,
    _PatternResidual,
    dedup_key,
    gybe_objective,
    load_pattern_text,
    rowell_pattern,
    solve_pattern,
)
from gybe.solutions import (
    base_solution,
    general_solution,
    registry_ids,
    resolve_solution,
    rowell_solution,
    split_blocks,
)

SIG = GybeSignature(2, 3, 1)
REASONS = ("converged", "step_tol", "plateau", "damping_stall", "budget", "non_finite")

# Stop reason and iterations of each restart of the benchmark's 16 search
# calls (rowell pattern, (2,3,1), 4 restarts, 250 iterations, seeds 0-15):
# c = converged and certified, p = plateau, not certified.
BENCH_RESTARTS = (
    "c9 c10 c22 p27",  # seed 0
    "c11 c12 p63 c24",  # seed 1
    "c22 p22 c9 c12",  # seed 2
    "c24 c10 c26 c13",  # seed 3
    "c11 c10 c23 p24",  # seed 4
    "p33 c22 c10 c23",  # seed 5
    "c10 c8 c16 p25",  # seed 6
    "c21 c10 c24 p35",  # seed 7
    "c22 c11 c8 c15",  # seed 8
    "c9 c9 p28 p65",  # seed 9
    "c10 c14 p29 c13",  # seed 10
    "c15 c17 c12 c22",  # seed 11
    "c8 c14 c12 c11",  # seed 12
    "c10 p29 c9 c9",  # seed 13
    "c24 c10 c25 c13",  # seed 14
    "c8 c9 c12 c10",  # seed 15
)
# The same for criterion 12's run: seed 20260808, 64 restarts.
CRITERION_TWELVE_RESTARTS = (
    "c8 c22 c9 c10 c22 c14 c10 c8",  # restarts 0-7
    "c7 c10 c22 c10 c11 c9 c22 c10",  # restarts 8-15
    "c8 c10 c22 c11 c11 c13 p24 c11",  # restarts 16-23
    "c25 c12 c11 c21 c10 c12 c11 c9",  # restarts 24-31
    "c25 c14 p87 c22 c11 p66 c22 c9",  # restarts 32-39
    "c11 c7 c25 c15 c11 p34 c22 c14",  # restarts 40-47
    "c22 c11 c13 c10 c9 c27 c23 c24",  # restarts 48-55
    "c11 c21 c24 c10 c10 c26 p82 p22",  # restarts 56-63
)

FAMILY_EIG_LISTS = (
    [np.exp(-1j * np.pi / 12)] * 2 + [np.exp(7j * np.pi / 12)] * 2,
    [np.exp(-1j * np.pi / 4), -np.exp(-1j * np.pi / 4)] + [np.exp(1j * np.pi / 4)] * 2,
    [np.exp(-1j * np.pi / 4)] * 2 + [np.exp(1j * np.pi / 4)] * 2,
)


def _restart_codes(result) -> list[str]:
    """Each restart as in BENCH_RESTARTS: its reason's initial, then its iterations."""
    for report in result.restarts:
        assert report.certified == (report.reason == "converged")
    return [f"{report.reason[0]}{report.iterations}" for report in result.restarts]


def matches_family_list_up_to_phase(block: np.ndarray) -> bool:
    eigs = linalg.eigenvalues(block)
    for target in FAMILY_EIG_LISTS:
        target = np.asarray(target)
        for ref in eigs:
            phase = target[0] / ref
            got, want = linalg.sort_eigenvalues(phase * eigs), linalg.sort_eigenvalues(target)
            if got.shape == want.shape and linalg.max_abs_diff(got, want) <= 1e-6:
                return True
    return False


def test_pattern_from_matrix_matches_named_pattern():
    # The named pattern is exactly the nonzero set of every (2,3,1) registry
    # solution and of family members at random alpha and beta.
    named = rowell_pattern()
    rng = np.random.default_rng(23)
    members = [general_solution(k, *np.exp(2j * np.pi * rng.random(2))) for k in (1, 2, 3) for _ in range(4)]
    registry = [resolve_solution(name) for name in registry_ids()]
    sources = [r for r in registry if r.signature == SIG] + members
    assert [r.label for r in sources[:4]] == ["rowell", "base1", "base2", "base3"]
    for r in sources:
        np.testing.assert_array_equal(r.matrix != 0, named.mask)
    assert named.free_count == 16
    assert named.accepts(rowell_solution().matrix)
    assert not named.accepts(np.ones((8, 8)))


def _grid(p):
    """The 0/1 grid of pattern ``p``, one row of its mask a line."""
    return "\n".join("".join("1" if v else "0" for v in row) for row in p.mask)


def _json_dict(p):
    """The JSON object of pattern ``p``: its size and its mask as booleans."""
    return {"size": p.size, "mask": p.mask.tolist()}


def test_pattern_text_round_trip():
    p = rowell_pattern()
    again = ZeroPattern.from_text(_grid(p))
    np.testing.assert_array_equal(again.mask, p.mask)
    with pytest.raises(ValueError):
        ZeroPattern.from_text("01\n0")
    with pytest.raises(ValueError):
        ZeroPattern.from_text("0x\n00")
    with pytest.raises(ValueError):
        ZeroPattern.from_text("")


def test_pattern_json_round_trip():
    p = rowell_pattern()
    again = ZeroPattern.from_json_dict(_json_dict(p))
    np.testing.assert_array_equal(again.mask, p.mask)
    loaded = load_pattern_text('{"size": 2, "mask": [[true, false], [false, true]]}')
    np.testing.assert_array_equal(loaded.mask, np.eye(2, dtype=bool))
    loaded = load_pattern_text("10\n01")
    np.testing.assert_array_equal(loaded.mask, np.eye(2, dtype=bool))


def test_pattern_json_rejects_coerced_values():
    # numpy would read "0" as True and int() would truncate 2.7 to 2.
    for text in (
        '{"size": 2, "mask": [["0", "0"], ["0", "1"]]}',
        '{"size": 2, "mask": [[0, 0], [0, 1]]}',
        '{"size": 2.7, "mask": [[true, false], [false, true]]}',
        '{"size": true, "mask": [[true]]}',
        '{"size": "2", "mask": [[true, false], [false, true]]}',
        '{"size": 2, "mask": "1001"}',
        '{"size": 2}',
    ):
        with pytest.raises(ValueError, match="malformed pattern JSON|^size must be an integer, got "):
            load_pattern_text(text)
    # A ragged mask used to raise numpy's "inhomogeneous shape" message.
    for text in (
        '{"size": 2, "mask": [[true, false], [false]]}',
        '{"size": 2, "mask": [[true, false], [true]]}',
        '{"size": 3, "mask": [[true, false], [false, true]]}',
        '{"size": 2, "mask": [[true, false, true], [false, true, false]]}',
        '{"size": 2, "mask": []}',
    ):
        with pytest.raises(ValueError, match=r"^malformed pattern JSON: mask must be (\d) rows of \1 entries"):
            load_pattern_text(text)


def test_a_pattern_is_its_square_mask():
    assert ZeroPattern(np.eye(3)).size == 3 and type(ZeroPattern(np.eye(3)).size) is int
    for mask in (np.ones(4), np.ones((2, 3)), np.ones((2, 2, 2)), True):
        with pytest.raises(ValueError, match="^a pattern mask must be square, got shape"):
            ZeroPattern(mask)
    with pytest.raises(ValueError, match="^size must be at least 1, got 0$"):
        load_pattern_text('{"size": 0, "mask": []}')


def test_objective_vanishes_on_solutions():
    assert gybe_objective(rowell_solution().matrix, rowell_pattern(), SIG) <= 1e-26


def test_objective_zero_on_identity():
    pattern = ZeroPattern(np.eye(8, dtype=bool))
    assert gybe_objective(linalg.identity(8), pattern, SIG) == 0.0


def test_objective_grows_when_an_entry_is_removed():
    m = rowell_solution().matrix.copy()
    m[0, 0] = 0.0
    assert gybe_objective(m, rowell_pattern(), SIG) > 1e-3


def test_objective_rejects_pattern_violations():
    with pytest.raises(ValueError):
        gybe_objective(np.ones((8, 8)), rowell_pattern(), SIG)
    with pytest.raises(ValueError):
        gybe_objective(linalg.identity(4), ZeroPattern(np.eye(4, dtype=bool)), SIG)


def test_objective_rejects_non_finite_entries_inside_the_pattern():
    m = rowell_solution().matrix.copy()
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        gybe_objective(m, rowell_pattern(), SIG)


def test_config_validation():
    with pytest.raises(ValueError, match="^tolerance must be positive, got 0.0$"):
        SearchConfig(tolerance=0.0)
    # An infinite tolerance would certify random matrices; NaN would
    # certify nothing.
    for tolerance in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)


@pytest.mark.parametrize("tolerance", [1e200, 1.35e154, 1e-170, 1.5e-162])
def test_config_refuses_a_tolerance_whose_square_overflows_or_underflows(tolerance):
    # 1e200 squared used to raise a bare OverflowError in solve_pattern, and
    # 1e-170 squared is 0.0, so the search converged only on an exact zero.
    with pytest.raises(ValueError) as raised:
        SearchConfig(tolerance=tolerance)
    assert str(raised.value) == f"tolerance**2 must be a positive finite float, got {tolerance}"


def test_config_takes_a_tolerance_whose_square_is_a_positive_float():
    for tolerance in (1.3e154, 1.6e-162, 1.0, 1e-11):
        assert 0 < SearchConfig(tolerance=tolerance).tolerance ** 2 < np.inf


def test_search_recovers_certified_solutions():
    config = SearchConfig(tolerance=1e-11, restarts=8, seed=7, max_iterations=250)
    result = solve_pattern(rowell_pattern(), SIG, config)
    assert len(result.solutions) >= 1
    for found in result.solutions:
        assert found.residual <= 1e-11
        assert check_gybe(found.solution, 1e-10).passed
        assert linalg.unitarity_residual(found.solution.matrix) <= 1e-10
        assert rowell_pattern().accepts(found.solution.matrix, tol=0.0)
    # At least one recovered class carries the eigenvalue fingerprint of
    # one of the three one-parameter families, up to a global phase.
    assert any(
        matches_family_list_up_to_phase(split_blocks(f.solution.matrix)[0])
        for f in result.solutions
    )


def test_search_is_deterministic():
    config = SearchConfig(tolerance=1e-11, restarts=4, seed=5, max_iterations=120)
    a = solve_pattern(rowell_pattern(), SIG, config)
    b = solve_pattern(rowell_pattern(), SIG, config)
    assert a.best_objective == b.best_objective
    assert a.traces == b.traces
    assert [f.residual for f in a.solutions] == [f.residual for f in b.solutions]
    assert [f.dedup_key for f in a.solutions] == [f.dedup_key for f in b.solutions]


def test_search_traces_are_non_increasing():
    config = SearchConfig(tolerance=1e-11, restarts=4, seed=5, max_iterations=120)
    result = solve_pattern(rowell_pattern(), SIG, config)
    for trace in result.traces:
        assert all(b <= a for a, b in zip(trace, trace[1:]))


def _params(problem: _PatternResidual, m: np.ndarray) -> np.ndarray:
    """The parameters of ``m``'s free entries, a (real, imaginary) pair each."""
    return np.ascontiguousarray(m[problem.rows, problem.cols]).view(np.float64)


def _solve_from(problem: _PatternResidual, start: np.ndarray):
    """The search's solve, at its default settings, from one given start."""
    config = SearchConfig()
    return solve_stack(
        problem.residual,
        start[None],
        normal_fn=problem.normal,
        objective_tol=config.tolerance**2,
        max_iterations=config.max_iterations,
    )


def test_search_seeded_at_exact_solution_converges_immediately():
    mask = np.zeros((8, 8), dtype=bool)
    mask[:4, :4] = True
    mask[4:, 4:] = True
    pattern = ZeroPattern(mask)
    problem = _PatternResidual(pattern, SIG)
    (fit,) = _solve_from(problem, _params(problem, base_solution(2).r_matrix()))
    assert fit.reason == "converged" and fit.objective <= 1e-22
    assert fit.trace[0] <= 1e-22  # already below tolerance at the start
    assert _certify(fit, problem, 1e-11, 0) is not None


SIGNATURES = (GybeSignature(2, 2, 1), GybeSignature(2, 3, 1), GybeSignature(3, 2, 1), GybeSignature(2, 3, 2))


def _reference_normal(problem: _PatternResidual, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """JᵀJ and Jᵀr of the full interleaved residual at one point, J by the
    five-point difference, exact up to rounding for this cubic residual."""
    full = lambda y: _combined_residual_vector(problem.build(y), problem.signature)  # noqa: E731
    jac = five_point_differences(full, x)
    return jac.T @ jac, jac.T @ full(x)


def _assert_normal_close(normal, reference):
    for exact, numeric in zip(normal, reference, strict=True):
        assert exact.shape == numeric.shape
        assert linalg.max_abs(exact - numeric) <= 1e-12 * linalg.max_abs(numeric)


@settings(max_examples=40, deadline=None)
@given(signature=st.sampled_from(SIGNATURES), named_pattern=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_exact_jacobian_matches_central_differences(signature, named_pattern, seed):
    # The closed-form normal equations against those of a differenced Jacobian.
    rng = np.random.default_rng(seed)
    n = signature.matrix_size
    if named_pattern and signature == SIG:
        pattern = rowell_pattern()
    else:
        mask = rng.random((n, n)) < 0.5
        mask[rng.integers(n), rng.integers(n)] = True
        pattern = ZeroPattern(mask)
    problem = _PatternResidual(pattern, signature)
    x = problem.initial(rng)
    jtj, jtr = problem.normal(x[None], problem.residual(x[None]))
    assert jtj.shape == (1, problem.n_params, problem.n_params) and jtr.shape == (1, problem.n_params)
    _assert_normal_close((jtj[0], jtr[0]), _reference_normal(problem, x))


@settings(max_examples=30, deadline=None)
@given(signature=st.sampled_from(SIGNATURES), stack=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_normal_equations_of_a_stack_are_those_of_each_point(signature, stack, seed):
    # On a random mask, each row of a stack's normal equations is the
    # point's own call bit for bit, and the differenced reference to rounding.
    rng = np.random.default_rng(seed)
    n = signature.matrix_size
    mask = rng.random((n, n)) < rng.uniform(0.1, 0.9)
    mask[rng.integers(n), rng.integers(n)] = True
    problem = _PatternResidual(ZeroPattern(mask), signature)
    xs = np.stack([problem.initial(rng) for _ in range(stack)])
    for x, jtj, jtr in zip(xs, *problem.normal(xs, problem.residual(xs)), strict=True):
        solo = problem.normal(x[None], problem.residual(x[None]))
        np.testing.assert_array_equal(jtj, solo[0][0])
        np.testing.assert_array_equal(jtr, solo[1][0])
        _assert_normal_close((jtj, jtr), _reference_normal(problem, x))


def test_stacked_normal_equations_match_per_restart_ones():
    rng = np.random.default_rng(41)
    problem = _PatternResidual(rowell_pattern(), SIG)
    xs = np.stack([problem.initial(rng) for _ in range(5)])
    residuals = problem.residual(xs)
    stacked = problem.normal(xs, residuals)
    np.testing.assert_array_equal(problem.residual(xs[:4].reshape(2, 2, -1)), residuals[:4].reshape(2, 2, -1))
    for x, jtj, jtr, residual in zip(xs, *stacked, residuals):
        solo = problem.normal(x[None], residual[None])
        np.testing.assert_array_equal(jtj, solo[0][0])
        np.testing.assert_array_equal(jtr, solo[1][0])
        np.testing.assert_array_equal(residual, problem.residual(x))


SEARCH_PROBLEMS = ((rowell_pattern(), SIG), (ZeroPattern(np.ones((4, 4), dtype=bool)), GybeSignature(2, 2, 1)))


@settings(max_examples=12, deadline=None)
@given(
    problem=st.sampled_from(SEARCH_PROBLEMS),
    seed=st.integers(0, 2**32 - 1),
    restarts=st.integers(1, 6),
)
def test_stacked_search_rows_match_their_solo_solves_bit_for_bit(problem, seed, restarts):
    # Rows of 32 parameters that retry in different rounds and leave the
    # stack at different iterations, on one problem and its work arrays.
    problem = _PatternResidual(*problem)
    starts = np.stack([problem.initial(np.random.default_rng([seed, k])) for k in range(restarts)])
    options = dict(normal_fn=problem.normal, objective_tol=1e-22, max_iterations=60)
    for start, fit in zip(starts, solve_stack(problem.residual, starts, **options), strict=True):
        (solo,) = solve_stack(problem.residual, start[None], **options)
        np.testing.assert_array_equal(fit.x, solo.x)
        np.testing.assert_array_equal(np.array(fit.trace), np.array(solo.trace))
        assert (fit.reason, fit.iterations, fit.residual_evals) == (solo.reason, solo.iterations, solo.residual_evals)


def test_search_reports_every_restart():
    config = SearchConfig(tolerance=1e-11, restarts=8, seed=3, max_iterations=250)
    result = solve_pattern(rowell_pattern(), SIG, config)
    assert len(result.restarts) == config.restarts
    for report, trace in zip(result.restarts, result.traces):
        assert report.reason in REASONS
        assert report.iterations <= config.max_iterations
        assert report.residual_evals >= len(trace)
        assert report.certified <= (report.reason == "converged")
    assert sum(r.certified for r in result.restarts) == sum(result.dedup_counts.values())
    assert {f.restart_index for f in result.solutions} <= {
        k for k, r in enumerate(result.restarts) if r.certified
    }


def test_plateau_keeps_criterion_twelve_hits():
    # The restarts certified before the plateau stop existed; the stuck
    # ones now stop early instead of running out the budget.  Dropping the
    # residual rows that are exactly zero changed no restart's stop.
    config = SearchConfig(tolerance=1e-11, restarts=64, seed=20260808, max_iterations=250)
    result = solve_pattern(rowell_pattern(), SIG, config)
    missed = [k for k, r in enumerate(result.restarts) if not r.certified]
    assert missed == [22, 34, 37, 45, 62, 63]
    assert sum(result.dedup_counts.values()) == 58
    assert all(r.iterations < config.max_iterations for r in result.restarts)
    assert _restart_codes(result) == " ".join(CRITERION_TWELVE_RESTARTS).split()
    assert len(result.solutions) == 40


def test_non_finite_start_is_not_certified():
    problem = _PatternResidual(rowell_pattern(), SIG)
    (fit,) = _solve_from(problem, np.full(problem.n_params, np.nan))
    assert np.isnan(fit.trace[0]) and len(fit.trace) == 1
    assert fit.reason == "non_finite"
    assert _certify(fit, problem, 1e-11, 0) is None


def _claimed_fit(problem: _PatternResidual, m: np.ndarray) -> LeastSquaresResult:
    """A fit at ``m`` whose objective claims convergence, whatever ``m`` is."""
    return LeastSquaresResult(_params(problem, m.astype(complex)), (0.0,), 0, "converged", 1)


def test_a_singular_candidate_is_not_certified():
    problem = _PatternResidual(rowell_pattern(), SIG)
    assert _certify(_claimed_fit(problem, np.zeros((8, 8))), problem, 1e-11, 0) is None


def test_a_candidate_off_the_exact_checks_is_not_certified():
    # 2·I solves the equation but is no unitary: its exact residual is 3.
    problem = _PatternResidual(rowell_pattern(), SIG)
    assert _certify(_claimed_fit(problem, 2.0 * np.eye(8)), problem, 1e-11, 0) is None
    assert _certify(_claimed_fit(problem, np.eye(8)), problem, 1e-11, 0) is not None


def test_search_refuses_a_pattern_larger_than_sixteen():
    pattern = ZeroPattern(np.ones((32, 32), dtype=bool))
    with pytest.raises(ValueError, match="sizes up to 16"):
        solve_pattern(pattern, GybeSignature(2, 5, 1), SearchConfig())


def test_a_pattern_accepts_no_matrix_of_another_shape():
    pattern = rowell_pattern()
    assert pattern.accepts(np.eye(8))
    with pytest.raises(ValueError, match="^candidate side 4 does not match pattern size 8$"):
        pattern.accepts(np.eye(4))
    with pytest.raises(ValueError, match="^candidate side 16 does not match pattern size 8$"):
        pattern.accepts(np.eye(16))
    with pytest.raises(ValueError, match=r"^candidate must be a non-empty square matrix, got shape \(8, 4\)$"):
        pattern.accepts(np.ones((8, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["free", "masked"])
def test_a_pattern_refuses_a_non_finite_candidate_at_a_free_or_masked_entry(entry, bad):
    # NaN at the free entry (0, 0) used to be accepted, and at the masked
    # entry (0, 1) rejected as a pattern violation.
    m = rowell_solution().matrix.copy()
    m[entry] = bad
    with pytest.raises(ValueError, match="^candidate must have finite entries$"):
        rowell_pattern().accepts(m)


def test_dedup_key_ignores_global_phase():
    rng = np.random.default_rng(30)
    m = rowell_solution().matrix
    for _ in range(3):
        phase = np.exp(2j * np.pi * rng.random())
        assert dedup_key(m) == dedup_key(phase * m)


def test_dedup_key_separates_distinct_classes():
    assert dedup_key(base_solution(1).r_matrix()) != dedup_key(base_solution(2).r_matrix())
    assert dedup_key(base_solution(2).r_matrix()) != dedup_key(base_solution(3).r_matrix())


def test_search_result_json_round_trip():
    config = SearchConfig(tolerance=1e-11, restarts=1, seed=0)
    result = solve_pattern(rowell_pattern(), SIG, config)
    payload = [found.to_json_dict() for found in result.solutions]
    assert len(payload) == len(result.solutions) == 1
    entry = payload[0]
    assert set(entry) >= {"matrix", "residual", "dedup_key"}
    back = linalg.matrix_from_json_dict(entry["matrix"])
    np.testing.assert_array_equal(back, result.solutions[0].solution.matrix)


def test_pattern_size_must_match_signature():
    with pytest.raises(ValueError):
        solve_pattern(ZeroPattern(np.ones((4, 4), dtype=bool)), SIG, SearchConfig())


def test_bench_search_calls_keep_their_trajectories():
    # Dropping the residual rows that are exactly zero changes only the
    # order of the sums in the objective and the normal equations; on these
    # calls no restart stops for another reason or after other iterations.
    for seed, codes in enumerate(BENCH_RESTARTS):
        config = SearchConfig(tolerance=1e-11, restarts=4, seed=seed, max_iterations=250)
        result = solve_pattern(rowell_pattern(), SIG, config)
        assert _restart_codes(result) == codes.split(), seed
    certified = sum(code.count("c") for code in BENCH_RESTARTS)
    assert certified == 53


def test_empty_pattern_is_rejected():
    pattern = ZeroPattern(np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="pattern is empty"):
        solve_pattern(pattern, GybeSignature(2, 2, 1), SearchConfig())


def test_search_reports_its_residual_rows():
    config = SearchConfig(tolerance=1e-11, restarts=1, seed=0, max_iterations=5)
    result = solve_pattern(rowell_pattern(), SIG, config)
    assert (result.live_residual_rows, result.total_residual_rows) == (160, 640)


def _all_entries(pattern, signature):
    side = pattern.size * signature.d**signature.l
    return np.arange(side * side), np.arange(pattern.size**2)


@settings(max_examples=40, deadline=None)
@given(
    signature=st.sampled_from([GybeSignature(2, 2, 1), GybeSignature(2, 3, 1)]),
    shape=st.sampled_from(["random", "rowell", "diagonal", "full"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dropped_rows_are_zero_and_kept_rows_are_the_full_ones(signature, shape, seed):
    rng = np.random.default_rng(seed)
    n = signature.matrix_size
    if shape == "rowell" and n == 8:
        pattern = rowell_pattern()
    elif shape == "diagonal":
        pattern = ZeroPattern(np.eye(n, dtype=bool))
    elif shape == "full":
        pattern = ZeroPattern(np.ones((n, n), dtype=bool))
    else:
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.6)
        mask[rng.integers(n), rng.integers(n)] = True
        pattern = ZeroPattern(mask)
    problem = _PatternResidual(pattern, signature)
    with mock.patch.object(pattern_residual, "_live_entries", _all_entries):
        full_problem = _PatternResidual(pattern, signature)
    assert full_problem.live_rows.size == problem.total_rows
    dropped = np.setdiff1d(np.arange(problem.total_rows), problem.live_rows)
    xs = np.stack([problem.initial(rng) for _ in range(3)])

    full = _combined_residual_vector(problem.build(xs), signature)
    np.testing.assert_array_equal(full, full_problem.residual(xs))
    assert np.all(full[:, dropped] == 0.0)
    np.testing.assert_array_equal(problem.residual(xs), full[:, problem.live_rows])

    # The dropped rows add only zeros to the normal equations; how BLAS
    # rounds the sums may depend on the row count.
    for kept, every in zip(problem.normal(xs, problem.residual(xs)), full_problem.normal(xs, full), strict=True):
        np.testing.assert_allclose(kept, every, rtol=0, atol=1e-15 * linalg.max_abs(every))
    # Each dropped row stays 0.0 under any move of the parameters.
    numeric = central_differences(lambda x: _combined_residual_vector(problem.build(x), signature), xs[0])
    assert np.all(numeric[dropped] == 0.0)

    for x, residual in zip(xs, problem.residual(xs)):
        objective = gybe_objective(problem.build(x), pattern, signature)
        assert abs(np.dot(residual, residual) - objective) <= 1e-12 * objective


def test_dense_cap_is_checked_before_any_table_is_built():
    # At l = 8 the lifted side 2^11 is past the cap; the live-entry table
    # would be sized by it, so it must not be reached.
    pattern = ZeroPattern(np.ones((8, 8), dtype=bool))
    with mock.patch.object(pattern_residual, "_live_entries", side_effect=AssertionError("built")):
        with pytest.raises(ValueError, match="exceeds the dense cap"):
            _PatternResidual(pattern, GybeSignature(2, 3, 8))
        with pytest.raises(ValueError, match="does not match signature"):
            _PatternResidual(pattern, GybeSignature(2, 2, 1))


def test_normal_equations_allocate_little_beyond_their_result():
    # Temporaries allocated afresh on every iteration cost page faults:
    # the work arrays of the first call are reused, so after it the traced
    # peak of a call is about the normal equations it returns.
    problem = _PatternResidual(rowell_pattern(), SIG)
    rng = np.random.default_rng(8)
    xs = np.stack([problem.initial(rng) for _ in range(4)])
    residuals = problem.residual(xs)
    problem.normal(xs, residuals)
    tracemalloc.start()
    try:
        jtj, jtr = problem.normal(xs, residuals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert jtj.shape == (4, 32, 32) and jtr.shape == (4, 32)
    assert peak <= 2 * (jtj.nbytes + jtr.nbytes)


@pytest.mark.parametrize("problem", SEARCH_PROBLEMS, ids=["rowell", "full-4x4"])
def test_the_shared_workspace_leaks_no_state(problem):
    # The residual and the normal equations fill one pool per point.  Interleaved at
    # stack sizes 1-6, growing and shrinking, each call on one problem
    # equals the same call on a fresh problem, and no residual it returned
    # earlier changes.
    pattern, signature = problem
    shared, rng, kept = _PatternResidual(pattern, signature), np.random.default_rng(43), []
    for step, size in enumerate([3, 1, 6, 2, 5, 4, 6, 1, 2]):
        xs = np.stack([shared.initial(rng) for _ in range(size)])
        calls = [("residual", (xs,)), ("normal", (xs, shared.residual(xs))), ("residual", (xs[0],))]
        for name, args in calls[::-1] if step % 2 else calls:
            out = getattr(shared, name)(*args)
            np.testing.assert_equal(out, getattr(_PatternResidual(pattern, signature), name)(*args))
            if name == "residual":
                kept.append((out, out.copy()))
    for out, copy in kept:
        np.testing.assert_array_equal(out, copy)
