"""Tests for the zero-pattern solution search."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from central_differences import central_differences
from hypothesis import given, settings
from hypothesis import strategies as st

from gybe import linalg, pattern_residual
from gybe.core import GybeSignature, check_gybe
from gybe.search import (
    SearchConfig,
    ZeroPattern,
    _combined_residual_vector,
    _PatternResidual,
    dedup_key,
    gybe_objective,
    load_pattern_text,
    rowell_pattern,
    solve_pattern,
)
from gybe.solutions import base_solution, rowell_solution, split_blocks

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
            if linalg.eigenvalue_multisets_close(phase * eigs, target, 1e-6):
                return True
    return False


def test_pattern_from_matrix_matches_named_pattern():
    derived = ZeroPattern.from_matrix(rowell_solution().matrix)
    named = rowell_pattern()
    np.testing.assert_array_equal(derived.mask, named.mask)
    assert named.free_count == 16
    assert named.accepts(rowell_solution().matrix)
    assert not named.accepts(np.ones((8, 8)))


def test_pattern_from_matrix_rejects_non_finite_entries():
    # NaN > threshold is False, so a NaN entry would read as a zero.
    m = rowell_solution().matrix.copy()
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ZeroPattern.from_matrix(m)


def test_pattern_text_round_trip():
    p = rowell_pattern()
    again = ZeroPattern.from_text(p.to_text())
    np.testing.assert_array_equal(again.mask, p.mask)
    with pytest.raises(ValueError):
        ZeroPattern.from_text("01\n0")
    with pytest.raises(ValueError):
        ZeroPattern.from_text("0x\n00")
    with pytest.raises(ValueError):
        ZeroPattern.from_text("")


def test_pattern_json_round_trip():
    p = rowell_pattern()
    again = ZeroPattern.from_json_dict(p.to_json_dict())
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
        with pytest.raises(ValueError, match="malformed pattern JSON"):
            load_pattern_text(text)
    with pytest.raises(ValueError):
        load_pattern_text('{"size": 2, "mask": [[true, false], [true]]}')


def test_objective_vanishes_on_solutions():
    assert gybe_objective(rowell_solution().matrix, rowell_pattern(), SIG) <= 1e-26


def test_objective_zero_on_identity():
    pattern = ZeroPattern(8, np.eye(8, dtype=bool))
    assert gybe_objective(linalg.identity(8), pattern, SIG) == 0.0


def test_objective_grows_when_an_entry_is_removed():
    m = rowell_solution().matrix.copy()
    m[0, 0] = 0.0
    assert gybe_objective(m, rowell_pattern(), SIG) > 1e-3


def test_objective_rejects_pattern_violations():
    with pytest.raises(ValueError):
        gybe_objective(np.ones((8, 8)), rowell_pattern(), SIG)
    with pytest.raises(ValueError):
        gybe_objective(linalg.identity(4), ZeroPattern(4, np.eye(4, dtype=bool)), SIG)


def test_objective_rejects_non_finite_entries_inside_the_pattern():
    m = rowell_solution().matrix.copy()
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        gybe_objective(m, rowell_pattern(), SIG)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(tolerance=0.0)
    # An infinite tolerance would certify random matrices; NaN would
    # certify nothing.
    for tolerance in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)


def test_search_recovers_certified_solutions():
    config = SearchConfig(tolerance=1e-11, restarts=8, seed=7, max_iterations=250)
    result = solve_pattern(rowell_pattern(), SIG, config)
    assert len(result.solutions) >= 1
    for found in result.solutions:
        assert found.residual <= 1e-11
        assert check_gybe(found.solution, 1e-10).passed
        assert linalg.is_unitary(found.solution.matrix, 1e-10).passed
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


def test_search_seeded_at_exact_solution_converges_immediately():
    mask = np.zeros((8, 8), dtype=bool)
    mask[:4, :4] = True
    mask[4:, 4:] = True
    pattern = ZeroPattern(8, mask)
    config = SearchConfig(tolerance=1e-11, restarts=1, seed=0, max_iterations=50)
    result = solve_pattern(pattern, SIG, config, initial=base_solution(2).r_matrix())
    assert len(result.solutions) == 1
    assert result.solutions[0].objective <= 1e-22
    assert result.traces[0][0] <= 1e-22  # already below tolerance at the start


@settings(max_examples=40, deadline=None)
@given(
    signature=st.sampled_from(
        [GybeSignature(2, 2, 1), GybeSignature(2, 3, 1), GybeSignature(3, 2, 1), GybeSignature(2, 3, 2)]
    ),
    named_pattern=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_jacobian_matches_central_differences(signature, named_pattern, seed):
    rng = np.random.default_rng(seed)
    n = signature.matrix_size
    if named_pattern and signature == SIG:
        pattern = rowell_pattern()
    else:
        mask = rng.random((n, n)) < 0.5
        mask[rng.integers(n), rng.integers(n)] = True
        pattern = ZeroPattern(n, mask)
    problem = _PatternResidual(pattern, signature)
    x = problem.initial(rng)
    exact = problem.jacobian(x[None])[0]
    numeric = central_differences(problem.residual, x)
    assert exact.shape == numeric.shape == (numeric.shape[0], problem.n_params)
    assert linalg.max_abs(exact - numeric) <= 1e-6 * linalg.max_abs(exact)


def test_stacked_jacobian_matches_per_restart_jacobians():
    rng = np.random.default_rng(41)
    problem = _PatternResidual(rowell_pattern(), SIG)
    xs = np.stack([problem.initial(rng) for _ in range(5)])
    stacked = problem.jacobian(xs)
    residuals = problem.residual(xs)
    for x, jac, residual in zip(xs, stacked, residuals):
        np.testing.assert_array_equal(jac, problem.jacobian(x[None])[0])
        np.testing.assert_array_equal(residual, problem.residual(x))


@settings(max_examples=40, deadline=None)
@given(
    signature=st.sampled_from([GybeSignature(2, 2, 1), GybeSignature(2, 3, 1), GybeSignature(3, 2, 1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_inverts_params_from_matrix_on_the_mask(signature, seed):
    rng = np.random.default_rng(seed)
    n = signature.matrix_size
    mask = rng.random((n, n)) < rng.uniform(0.1, 0.9)
    mask[rng.integers(n), rng.integers(n)] = True
    problem = _PatternResidual(ZeroPattern(n, mask), signature)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x = problem.params_from_matrix(m)
    assert x.shape == (problem.n_params,) == (2 * np.count_nonzero(mask),)
    built = problem.build(x)
    np.testing.assert_array_equal(built[mask], m[mask])
    assert np.all(built[~mask] == 0.0)


def test_search_reports_every_restart():
    config = SearchConfig(tolerance=1e-11, restarts=8, seed=3, max_iterations=250)
    result = solve_pattern(rowell_pattern(), SIG, config)
    assert len(result.restarts) == config.restarts
    for report, trace in zip(result.restarts, result.traces):
        assert report.reason in REASONS
        assert report.jacobian_evals == report.iterations <= config.max_iterations
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
    config = SearchConfig(tolerance=1e-11, restarts=2, seed=0, max_iterations=20)
    result = solve_pattern(rowell_pattern(), SIG, config, initial=np.full((8, 8), np.nan))
    assert np.isnan(result.traces[0][0]) and len(result.traces[0]) == 1
    assert result.restarts[0].reason == "non_finite" and not result.restarts[0].certified
    assert all(f.restart_index != 0 for f in result.solutions)


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
    config = SearchConfig(tolerance=1e-11, restarts=1, seed=0, max_iterations=50)
    result = solve_pattern(
        rowell_pattern(), SIG, config, initial=rowell_solution().matrix
    )
    payload = result.to_json_list()
    assert len(payload) == 1
    entry = payload[0]
    assert set(entry) >= {"matrix", "residual", "dedup_key"}
    back = linalg.matrix_from_json_dict(entry["matrix"])
    assert linalg.max_abs_diff(back, rowell_solution().matrix) <= 1e-9


def test_pattern_size_must_match_signature():
    with pytest.raises(ValueError):
        solve_pattern(ZeroPattern(4, np.ones((4, 4), dtype=bool)), SIG, SearchConfig())


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
    pattern = ZeroPattern(4, np.zeros((4, 4), dtype=bool))
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
        pattern = ZeroPattern(n, np.eye(n, dtype=bool))
    elif shape == "full":
        pattern = ZeroPattern(n, np.ones((n, n), dtype=bool))
    else:
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.6)
        mask[rng.integers(n), rng.integers(n)] = True
        pattern = ZeroPattern(n, mask)
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

    full_jac = full_problem.jacobian(xs)
    assert np.all(full_jac[:, dropped] == 0.0)
    # A unitarity entry of a column sums two products, and how BLAS rounds
    # that sum may depend on the row count.
    np.testing.assert_allclose(
        problem.jacobian(xs), full_jac[:, problem.live_rows], rtol=0, atol=1e-15 * linalg.max_abs(full_jac)
    )
    # Independently of the exact Jacobian: each dropped row stays 0.0 under
    # any move of the parameters.
    numeric = central_differences(lambda x: _combined_residual_vector(problem.build(x), signature), xs[0])
    assert np.all(numeric[dropped] == 0.0)

    for x, residual in zip(xs, problem.residual(xs)):
        objective = gybe_objective(problem.build(x), pattern, signature)
        assert abs(np.dot(residual, residual) - objective) <= 1e-12 * objective


def test_dense_cap_is_checked_before_any_table_is_built():
    # At l = 8 the lifted side 2^11 is past the cap; the live-entry table
    # would be sized by it, so it must not be reached.
    pattern = ZeroPattern(8, np.ones((8, 8), dtype=bool))
    with mock.patch.object(pattern_residual, "_live_entries", side_effect=AssertionError("built")):
        with pytest.raises(ValueError, match="exceeds the dense cap"):
            _PatternResidual(pattern, GybeSignature(2, 3, 8))
        with pytest.raises(ValueError, match="does not match signature"):
            _PatternResidual(pattern, GybeSignature(2, 2, 1))


def test_jacobian_allocates_little_beyond_its_result():
    # Temporaries allocated afresh on every iteration cost page faults:
    # the work arrays of the first call are reused, so after it the traced
    # peak of a call is about the Jacobian it returns.
    problem = _PatternResidual(rowell_pattern(), SIG)
    rng = np.random.default_rng(8)
    xs = np.stack([problem.initial(rng) for _ in range(4)])
    problem.jacobian(xs)
    tracemalloc.start()
    try:
        jac = problem.jacobian(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert jac.shape == (4, 160, 32)
    assert peak <= 2 * jac.nbytes
