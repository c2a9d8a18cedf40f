"""Tests for the zero-pattern solution search."""

import numpy as np
import pytest
from central_differences import central_differences
from hypothesis import given, settings
from hypothesis import strategies as st

from gybe import linalg
from gybe.core import GybeSignature, check_gybe
from gybe.search import (
    PARAMETERIZATIONS,
    SearchConfig,
    ZeroPattern,
    _Parameterization,
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

FAMILY_EIG_LISTS = (
    [np.exp(-1j * np.pi / 12)] * 2 + [np.exp(7j * np.pi / 12)] * 2,
    [np.exp(-1j * np.pi / 4), -np.exp(-1j * np.pi / 4)] + [np.exp(1j * np.pi / 4)] * 2,
    [np.exp(-1j * np.pi / 4)] * 2 + [np.exp(1j * np.pi / 4)] * 2,
)


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
    with pytest.raises(ValueError):
        SearchConfig(parameterization="polar")


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


def test_search_diagonal_pattern_unit_modulus():
    pattern = ZeroPattern(8, np.eye(8, dtype=bool))
    config = SearchConfig(
        tolerance=1e-11,
        restarts=3,
        seed=2,
        max_iterations=80,
        parameterization="unit-modulus",
    )
    result = solve_pattern(pattern, SIG, config)
    assert len(result.solutions) >= 1
    for found in result.solutions:
        assert check_gybe(found.solution, 1e-10).passed
        # Diagonal and unitary: every surviving entry has unit modulus.
        diag = np.diag(found.solution.matrix)
        assert np.all(np.abs(np.abs(diag) - 1.0) <= 1e-9)


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
    kind=st.sampled_from(PARAMETERIZATIONS),
    named_pattern=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_jacobian_matches_central_differences(signature, kind, named_pattern, seed):
    rng = np.random.default_rng(seed)
    n = signature.matrix_size
    if named_pattern and signature == SIG:
        pattern = rowell_pattern()
    else:
        mask = rng.random((n, n)) < 0.5
        mask[rng.integers(n), rng.integers(n)] = True
        pattern = ZeroPattern(n, mask)
    param = _Parameterization(pattern, kind)
    problem = _PatternResidual(param, signature)
    x = param.initial(rng)
    exact = problem.jacobian(x)
    numeric = central_differences(problem.residual, x)
    assert exact.shape == numeric.shape == (numeric.shape[0], param.n_params)
    assert linalg.max_abs(exact - numeric) <= 1e-6 * linalg.max_abs(exact)


@pytest.mark.parametrize("kind", PARAMETERIZATIONS)
def test_stacked_jacobian_matches_per_restart_jacobians(kind):
    rng = np.random.default_rng(41)
    param = _Parameterization(rowell_pattern(), kind)
    problem = _PatternResidual(param, SIG)
    xs = np.stack([param.initial(rng) for _ in range(5)])
    stacked = problem.jacobian(xs)
    residuals = problem.residual(xs)
    for x, jac, residual in zip(xs, stacked, residuals):
        np.testing.assert_array_equal(jac, problem.jacobian(x))
        np.testing.assert_array_equal(residual, problem.residual(x))


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
    # ones now stop early instead of running out the budget.
    config = SearchConfig(tolerance=1e-11, restarts=64, seed=20260808, max_iterations=250)
    result = solve_pattern(rowell_pattern(), SIG, config)
    missed = [k for k, r in enumerate(result.restarts) if not r.certified]
    assert missed == [22, 34, 37, 45, 62, 63]
    assert sum(result.dedup_counts.values()) == 58
    assert all(r.iterations < config.max_iterations for r in result.restarts)


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
