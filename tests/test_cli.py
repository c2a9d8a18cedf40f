"""Tests for the command-line interface."""

import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gybe import linalg
from gybe.braiding import StateVector, apply_to_state, build_rep, evaluate_word, parse_braid_word
from gybe.cli import build_parser, main
from gybe.equivalence import WITNESS_TOL
from gybe.search import SearchConfig
from gybe.solutions import (
    CLASSIFY_TOL,
    base_solution,
    family_solution,
    resolve_solution,
    rowell_solution,
    xshape_solution,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_registry_lists_named_solutions(capsys):
    code, out, _ = run_cli(capsys, "registry")
    assert code == 0
    assert "rowell" in out and "xshape" in out
    code, out, _ = run_cli(capsys, "registry", "--json")
    entries = json.loads(out)
    assert {e["id"] for e in entries} >= {"rowell", "xshape", "base1"}


def test_verify_registry_solution_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--solution", "rowell", "--tol", "1e-12")
    assert code == 0
    assert "passed" in out


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--solution", "xshape", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["residual"] <= 1e-13


def test_verify_failing_matrix(tmp_path, capsys):
    rng = np.random.default_rng(31)
    path = tmp_path / "haar.json"
    path.write_text(linalg.matrix_to_json(linalg.random_unitary(8, rng)))
    code, out, _ = run_cli(capsys, "verify", "--matrix", str(path), "--json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_with_explicit_signature(tmp_path, capsys):
    path = tmp_path / "xshape.json"
    path.write_text(linalg.matrix_to_json(xshape_solution().matrix))
    code, _, _ = run_cli(capsys, "verify", "--matrix", str(path), "--signature", "2,3,2")
    assert code == 0


def test_verify_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--matrix", str(path))
    assert code == 2
    assert err.strip().startswith("error:")


def test_non_finite_input_is_input_error(tmp_path, capsys):
    m = linalg.identity(8)
    m[0, 0] = np.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(linalg.matrix_to_json_dict(m)))
    code, out, err = run_cli(capsys, "verify", "--matrix", str(path), "--json")
    assert code == 2 and out == ""
    assert "finite" in err
    # A NaN reaching the JSON writer is an error, never a non-standard token.
    code, out, err = run_cli(capsys, "verify", "--solution", "rowell", "--tol", "nan", "--json")
    assert code == 2 and out == ""
    assert err.strip().startswith("error:")


def test_unknown_solution_id(capsys):
    code, _, err = run_cli(capsys, "verify", "--solution", "mystery")
    assert code == 2
    assert "mystery" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["transmogrify"]) == 2


def test_family_theta_pi_blocks_agree(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--family", "3", "--theta", "3.14159265358979", "--json"
    )
    assert code == 0
    m = linalg.matrix_from_json(out)
    assert linalg.max_abs_diff(m[:4, :4], m[4:, 4:]) <= 1e-12


def test_family_alpha_beta_form(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--family", "2", "--alpha", "1,0", "--beta", "0,1", "--json"
    )
    assert code == 0
    m = linalg.matrix_from_json(out)
    assert m.shape == (8, 8)


def test_family_requires_parameters(capsys):
    code, _, err = run_cli(capsys, "family", "--family", "1")
    assert code == 2
    assert "theta" in err


def test_family_rejects_non_finite_parameter(capsys):
    code, out, err = run_cli(capsys, "family", "--family", "1", "--alpha", "nan,0", "--beta", "1,0")
    assert code == 2 and out == ""
    assert "alpha must be finite" in err


def test_tolerance_must_be_finite_and_non_negative(capsys):
    commands = (
        ["verify", "--solution", "rowell"],
        ["classify", "--solution", "rowell"],
        ["equiv", "--solution", "rowell", "--solution", "base1"],
        ["braid", "--solution", "rowell", "--word", "n=3: 1,2,1", "--compare", "n=3: 2,1,2"],
        ["search", "--pattern", "-", "--signature", "2,3,1"],
    )
    for argv in commands:
        for tol in ("nan", "inf", "-1"):
            code, out, err = run_cli(capsys, *argv, "--tol", tol)
            assert code == 2 and out == "", (argv, tol)
            assert "--tol must be a finite non-negative number" in err


def test_defaults_come_from_the_library():
    parser = build_parser()
    tolerances = {
        "verify": linalg.DEFAULT_TOL,
        "braid": linalg.DEFAULT_TOL,
        "equiv": WITNESS_TOL,
        "classify": CLASSIFY_TOL,
    }
    for command, tol in tolerances.items():
        assert parser.parse_args([command]).tol == tol, command
    args, config = parser.parse_args(["search"]), SearchConfig()
    assert (args.tol, args.restarts, args.seed) == (config.tolerance, config.restarts, config.seed)


def test_family_verify_round_trip(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "family", "--family", "1", "--theta", "0.5", "--json")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run_cli(capsys, "verify", "--matrix", "-", "--json")
    assert code == 0
    assert json.loads(out2)["passed"] is True


def test_classify_registry_solutions(capsys):
    for name, expected in (
        ("base1", "A"),
        ("base2", "B"),
        ("base3", "C"),
        ("rowell", "A"),
    ):
        code, out, _ = run_cli(capsys, "classify", "--solution", name)
        assert code == 0
        assert out.strip() == expected


def test_classify_json_includes_parameters(capsys):
    code, out, _ = run_cli(capsys, "classify", "--solution", "base2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["category"] == "B"
    assert data["omega"] == pytest.approx([0.0, 1.0], abs=1e-12)


def test_classify_honours_tolerance(tmp_path, capsys):
    m = base_solution(1).r_matrix()
    m[np.diag_indices(8)] += 1e-6
    path = tmp_path / "perturbed.json"
    path.write_text(linalg.matrix_to_json(m))
    code, out, _ = run_cli(capsys, "classify", "--matrix", str(path))
    assert code == 0 and out.strip() == "none"
    code, out, _ = run_cli(capsys, "classify", "--matrix", str(path), "--tol", "1e-5")
    assert code == 0 and out.strip() == "A"


def test_classify_requires_block_form(tmp_path, capsys):
    code, out, err = run_cli(capsys, "classify", "--solution", "xshape")
    assert code == 2 and out == ""
    assert "off-diagonal 4x4 quadrants" in err
    m = rowell_solution().matrix.copy()
    m[0, 1] = 1e-3
    path = tmp_path / "leaky.json"
    path.write_text(linalg.matrix_to_json(m))
    code, out, err = run_cli(capsys, "classify", "--matrix", str(path))
    assert code == 2 and out == ""
    assert "2x2 sub-blocks of X are not diagonal" in err
    code, out, _ = run_cli(capsys, "classify", "--matrix", str(path), "--tol", "1e-2")
    assert code == 0 and out.strip() == "A"


def test_equiv_matrix_target(tmp_path, capsys):
    theta = repr(float(np.pi / 2))
    path = tmp_path / "rowell.json"
    path.write_text(linalg.matrix_to_json(rowell_solution().matrix))
    for extra in ([], ["--signature", "2,3,1"]):
        code, out, _ = run_cli(
            capsys, "equiv", "--solution", f"family1:theta={theta}",
            "--matrix", str(path), *extra, "--json",
        )
        assert code == 0
        assert json.loads(out)["target"] == f"file:{path}"
    code, out, err = run_cli(
        capsys, "equiv", "--solution", "rowell", "--matrix", str(path), "--signature", "2,2,1"
    )
    assert code == 2 and "does not match signature" in err


def test_equiv_finds_witness_for_zeta_solution(capsys):
    theta = repr(float(np.pi / 2))
    code, out, _ = run_cli(
        capsys,
        "equiv",
        "--solution",
        f"family1:theta={theta}",
        "--solution",
        "rowell",
        "--json",
    )
    assert code == 0
    witness = json.loads(out)
    assert witness["residual"] <= 1e-9
    assert {op["kind"] for op in witness["ops"]} == {"inverse", "local_conj", "scalar"}


def test_equiv_reports_none_for_distinct_classes(capsys):
    code, out, _ = run_cli(
        capsys,
        "equiv",
        "--solution",
        "family1:theta=0.3",
        "--solution",
        "family1:theta=1.1",
    )
    assert code == 1
    assert out.strip() == "none"


@pytest.mark.parametrize("scale", [1e-12, 1e-10, 1e-9])
def test_equiv_does_not_accept_any_conjugator_for_a_tiny_target(scale, tmp_path, capsys):
    # An absolute tolerance passed every candidate once the target's entries
    # were this small, though the two angles are inequivalent at any scale.
    path = tmp_path / "tiny.json"
    path.write_text(linalg.matrix_to_json(scale * family_solution(1, 1.1).matrix))
    code, out, _ = run_cli(
        capsys, "equiv", "--solution", "family1:theta=0.3",
        "--matrix", str(path), "--signature", "2,3,1",
    )
    assert code == 1
    assert out.strip() == "none"


def test_equiv_stats_report_the_decision(capsys):
    zeta = ("--solution", f"family1:theta={float(np.pi / 2)!r}", "--solution", "rowell")
    apart = ("--solution", "family1:theta=0.3", "--solution", "family1:theta=1.1")
    for pair, code_wanted, verdict in ((zeta, 0, "witness"), (apart, 1, "none")):
        code, plain, _ = run_cli(capsys, "equiv", *pair)
        code_stats, out, _ = run_cli(capsys, "equiv", *pair, "--stats")
        # The plain output comes first, unchanged; the stats follow it.
        assert code == code_stats == code_wanted
        assert out.startswith(plain)
        lines = out[len(plain):].splitlines()
        assert lines[0].startswith(f"verdict: {verdict}, ")
        assert [line.split(":")[0] for line in lines[1:]] == ["direct", "inverse"]
        code, out, _ = run_cli(capsys, "equiv", *pair, "--stats", "--json")
        data = json.loads(out)
        assert code == code_wanted and data["verdict"] == verdict
        assert (data["witness"] is None) == (verdict == "none")
        # Both pairs need the inverse prefix; the direct one is decided by a
        # covariant with distinct eigenvalues.
        direct, inverse = data["prefixes"]
        assert direct["verdict"] == "none" and inverse["verdict"] == verdict
        assert direct["covariant"]["kind"] == "distinct"
        assert data["candidates"] == direct["candidates"] + inverse["candidates"]
    # The optimizer's settings are gone from equiv, not ignored.
    for flag in ("--restarts", "--seed"):
        code, out, _ = run_cli(capsys, "equiv", *apart, flag, "4")
        assert code == 2 and out == ""


def test_equiv_requires_two_inputs(capsys):
    code, _, err = run_cli(capsys, "equiv", "--solution", "rowell")
    assert code == 2
    assert "solution" in err


def _write_rowell(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(linalg.matrix_to_json(rowell_solution().matrix))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--solution", "rowell", "--solution", "xshape"],
        ["classify", "--solution", "rowell", "--solution", "xshape"],
        ["braid", "--solution", "rowell", "--solution", "xshape", "--word", "n=3: 1"],
        ["verify", "--solution", "rowell", "--matrix", "MATRIX"],
        ["classify", "--solution", "rowell", "--matrix", "MATRIX"],
        ["braid", "--solution", "rowell", "--matrix", "MATRIX", "--word", "n=3: 1"],
        ["equiv", "--solution", "rowell", "--solution", "xshape", "--solution", "base1"],
        ["equiv", "--solution", "rowell", "--solution", "xshape", "--matrix", "MATRIX"],
        ["family", "--family", "1", "--theta", "0.3", "--alpha", "1,0", "--beta", "0,1"],
        ["family", "--family", "1", "--theta", "0.3", "--beta", "0,1"],
        ["braid", "--solution", "rowell", "--word", "n=3: 1", "--compare", "n=3: 1", "--state", "MATRIX"],
    ],
)
def test_surplus_or_conflicting_inputs_are_usage_errors(argv, tmp_path, capsys):
    # Each of these used to exit 0 and silently drop part of its input.
    matrix = _write_rowell(tmp_path)
    code, out, err = run_cli(capsys, *(matrix if arg == "MATRIX" else arg for arg in argv))
    assert code == 2 and out == ""
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--matrix", "MATRIX", "--matrix", "MATRIX"],
        ["family", "--family", "1", "--theta", "0.3", "--theta", "0.4"],
        ["classify", "--solution", "rowell", "--tol", "1e-9", "--tol", "1e-6"],
        ["equiv", "--solution", "rowell", "--solution", "rowell", "--signature", "2,3,1", "--signature", "2,3,1"],
        ["braid", "--solution", "rowell", "--word", "n=3: 1", "--word", "n=4: 1,2", "--compare", "n=4: 1,2"],
        ["search", "--pattern", "PATTERN", "--signature", "2,3,1", "--seed", "0", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_repeated_single_valued_options_are_usage_errors(argv, tmp_path, capsys):
    # A second value used to replace the first without a word.
    from gybe.search import rowell_pattern

    files = {"MATRIX": _write_rowell(tmp_path), "PATTERN": str(tmp_path / "pattern.txt")}
    Path(files["PATTERN"]).write_text(rowell_pattern().to_text())
    code, out, err = run_cli(capsys, *(files.get(arg, arg) for arg in argv))
    assert code == 2 and out == ""
    assert "given more than once" in err


def test_equiv_still_takes_two_solutions(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--solution", "rowell", "--solution", "rowell")
    assert code == 0 and out.startswith("witness")


def test_braid_compare_words(capsys):
    code, out, _ = run_cli(
        capsys,
        "braid",
        "--solution",
        "base1",
        "--word",
        "n=3: 1,2,1",
        "--compare",
        "n=3: 2,1,2",
    )
    assert code == 0
    assert "difference" in out


def test_braid_word_matrix_output(capsys):
    code, out, _ = run_cli(
        capsys, "braid", "--solution", "rowell", "--word", "n=3: 1,-1", "--json"
    )
    assert code == 0
    m = linalg.matrix_from_json(out)
    assert linalg.max_abs_diff(m, linalg.identity(16)) <= 1e-12


def test_braid_state_application(tmp_path, capsys):
    state = np.zeros((16, 1))
    state[0, 0] = 1.0
    path = tmp_path / "state.json"
    path.write_text(linalg.matrix_to_json(state))
    code, out, _ = run_cli(
        capsys,
        "braid",
        "--solution",
        "base1",
        "--word",
        "n=3: 1",
        "--state",
        str(path),
    )
    assert code == 0
    amps = linalg.matrix_from_json(out).reshape(-1)
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-9
    assert amps[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amps[4] == pytest.approx(-1j / np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("solution", ["rowell", "family2:theta=0.7"])
def test_matrix_outputs_keep_the_dict_and_per_entry_bytes(solution, tmp_path, capsys):
    """Each bare-matrix output matches json.dumps of matrix_to_json_dict, or
    the per-entry text format, byte for byte."""

    def dumps(m):
        return json.dumps(linalg.matrix_to_json_dict(m), allow_nan=False) + "\n"

    def text(m):
        return "".join(
            "  ".join(f"{v.real:+.6f}{v.imag:+.6f}i" for v in row) + "\n" for row in m
        )

    r = resolve_solution(solution)
    word = "n=6: 1,2,-3,4,5,-1,3"
    rep = build_rep(r, 6)
    matrix = evaluate_word(rep, parse_braid_word(word))
    amps = np.zeros(matrix.shape[0], dtype=np.complex128)
    amps[[0, 5, 77]] = [0.6, -0.0, 0.8j]
    state = tmp_path / "state.json"
    state.write_text(linalg.matrix_to_json(amps.reshape(-1, 1)))
    moved = apply_to_state(rep, parse_braid_word(word), StateVector(amps)).amplitudes

    argv = ["braid", "--solution", solution, "--word", word]
    assert run_cli(capsys, *argv, "--json") == (0, dumps(matrix), "")
    assert run_cli(capsys, *argv, "--state", str(state)) == (0, dumps(moved.reshape(-1, 1)), "")
    assert run_cli(capsys, *argv) == (0, text(matrix), "")

    family = family_solution(2, 0.7)
    argv = ["family", "--family", "2", "--theta", "0.7"]
    assert run_cli(capsys, *argv, "--json") == (0, dumps(family.matrix), "")
    assert run_cli(capsys, *argv) == (0, family.label + "\n" + text(family.matrix), "")


def test_braid_requires_word(capsys):
    code, _, err = run_cli(capsys, "braid", "--solution", "rowell")
    assert code == 2
    assert "word" in err


def test_braid_malformed_word(capsys):
    code, _, err = run_cli(capsys, "braid", "--solution", "rowell", "--word", "oops")
    assert code == 2
    assert "braid word" in err


def test_sizes_too_large_to_print_are_input_errors(tmp_path, capsys):
    from gybe.search import rowell_pattern

    # d^k with k in the millions has more digits than Python will print.
    code, _, err = run_cli(capsys, "braid", "--solution", "rowell", "--word", "n=1000000: 1")
    assert code == 2
    assert "dense cap" in err and "2^1000001" in err
    path = tmp_path / "rowell.json"
    path.write_text(linalg.matrix_to_json(rowell_solution().matrix))
    code, _, err = run_cli(
        capsys, "verify", "--matrix", str(path), "--signature", "2,100000,1"
    )
    assert code == 2
    assert "(2,100000,1)" in err and "2^100000" in err
    # Building 3^30000000 takes about 20 s; the side test must not need it.
    pattern = tmp_path / "rowell.txt"
    pattern.write_text(rowell_pattern().to_text())
    code, _, err = run_cli(
        capsys, "search", "--pattern", str(pattern), "--signature", "3,30000000,1"
    )
    assert code == 2
    assert "(3,30000000,1)" in err


def test_search_cli_round_trip(tmp_path, capsys):
    from gybe.search import rowell_pattern

    path = tmp_path / "pattern.txt"
    path.write_text(rowell_pattern().to_text())
    code, out, _ = run_cli(
        capsys,
        "search",
        "--pattern",
        str(path),
        "--signature",
        "2,3,1",
        "--restarts",
        "4",
        "--seed",
        "7",
        "--json",
    )
    assert code == 0
    results = json.loads(out)
    assert isinstance(results, list)
    for entry in results:
        assert entry["residual"] <= 1e-10


def test_search_text_tallies_restarts_by_reason(tmp_path, capsys):
    from gybe.search import rowell_pattern

    path = tmp_path / "pattern.txt"
    path.write_text(rowell_pattern().to_text())
    argv = ("search", "--pattern", str(path), "--signature", "2,3,1")
    argv += ("--restarts", "8", "--seed", "3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    tally = [line for line in out.splitlines() if line.startswith("restarts: ")]
    assert len(tally) == 1
    counts = [part.split() for part in tally[0][len("restarts: "):].split(", ")]
    assert sum(int(n) for n, _ in counts) == 8
    assert {reason for _, reason in counts} <= {
        "converged", "plateau", "step_tol", "damping_stall", "budget", "non_finite"
    }
    # The JSON output stays the list of solutions.
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0 and isinstance(json.loads(out), list)


def test_search_stats_report_every_restart(tmp_path, capsys):
    from gybe.search import rowell_pattern

    path = tmp_path / "pattern.txt"
    path.write_text(rowell_pattern().to_text())
    argv = ("search", "--pattern", str(path), "--signature", "2,3,1")
    argv += ("--restarts", "4", "--seed", "3")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--stats")
    assert code == 0
    # The plain output comes first, unchanged; the stats follow it.
    assert out.startswith(plain)
    lines = out[len(plain):].splitlines()
    restart_lines = [line for line in lines if line.startswith("restart ")]
    assert [line.split(":")[0] for line in restart_lines] == [f"restart {i}" for i in range(4)]
    for line in restart_lines:
        assert "iteration(s)" in line and "Jacobian evaluation(s)" in line
        assert line.endswith("certified")
    class_lines = [line for line in lines if line.startswith("class of restart ")]
    hits = [line for line in plain.splitlines() if line.startswith("  restart ")]
    assert len(class_lines) == len(hits)
    # 160 of the 640 real residual rows of the rowell pattern can be nonzero.
    assert lines[0] == "residual rows: 160 live of 640"

    code, out, _ = run_cli(capsys, *argv, "--stats", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"solutions", "restarts", "dedup_counts", "residual_rows"}
    assert data["residual_rows"] == {"live": 160, "total": 640}
    assert len(data["restarts"]) == 4
    assert set(data["restarts"][0]) == {
        "reason", "iterations", "residual_evals", "jacobian_evals", "certified"
    }
    certified = sum(report["certified"] for report in data["restarts"])
    assert sum(data["dedup_counts"].values()) == certified
    assert {entry["dedup_key"] for entry in data["solutions"]} == set(data["dedup_counts"])
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert json.loads(out) == data["solutions"]


def test_search_json_dedup_keys_are_plain_literals(tmp_path, capsys):
    from gybe.search import rowell_pattern

    path = tmp_path / "pattern.txt"
    path.write_text(rowell_pattern().to_text())
    argv = ("search", "--pattern", str(path), "--signature", "2,3,1", "--restarts", "4")
    code, out, _ = run_cli(capsys, *argv, "--json", "--stats")
    assert code == 0
    data = json.loads(out)
    assert data["solutions"]
    for key in data["dedup_counts"]:
        # No numpy scalar reprs: the key reads back as plain Python values.
        assert "np." not in key
        parts = ast.literal_eval(key)
        assert parts[0][0] == "spectrum" and all(type(v) is float for pair in parts[0][1] for v in pair)


def test_search_checks_the_dense_cap_before_building_tables(tmp_path, capsys, monkeypatch):
    from gybe import pattern_residual
    from gybe.search import rowell_pattern

    def too_late(*_):
        raise AssertionError("the live entries were sized before the dense cap was checked")

    monkeypatch.setattr(pattern_residual, "_live_entries", too_late)
    path = tmp_path / "pattern.txt"
    path.write_text(rowell_pattern().to_text())
    argv = ("search", "--pattern", str(path), "--signature", "2,3,9", "--restarts", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "2^12 exceeds the dense cap" in err


def test_search_rejects_an_empty_pattern(tmp_path, capsys):
    path = tmp_path / "zero4.txt"
    path.write_text("0000\n0000\n0000\n0000\n")
    code, out, err = run_cli(capsys, "search", "--pattern", str(path), "--signature", "2,2,1")
    assert code == 2 and out == ""
    assert "pattern is empty" in err


def test_matrix_input_reports_the_assumed_signature(tmp_path, capsys):
    path = tmp_path / "rowell.json"
    path.write_text(linalg.matrix_to_json(rowell_solution().matrix))
    code, out, err = run_cli(capsys, "verify", "--matrix", str(path))
    assert code == 0 and out.startswith("passed")
    assert "signature (2,3,1) assumed for the 8x8 matrix" in err
    code, out, _ = run_cli(capsys, "verify", "--matrix", str(path), "--json")
    report = json.loads(out)
    assert report["signature"] == "(2,3,1)"
    assert {"passed", "residual", "tolerance", "detail"} <= set(report)
    # An explicit signature is not reported, and the keys stay as before.
    code, out, err = run_cli(
        capsys, "verify", "--matrix", str(path), "--signature", "2,3,1", "--json"
    )
    assert "signature" not in json.loads(out) and err == ""
    code, out, _ = run_cli(capsys, "classify", "--matrix", str(path), "--json")
    assert code == 0 and json.loads(out)["signature"] == "(2,3,1)"


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["equiv", "--solution", "family1:theta=1.5707963267948966", "--solution", "rowell"]
    done = subprocess.run(
        [sys.executable, "-m", "gybe", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0 and done.stdout.startswith("witness [inverse, local_conj, scalar]")


def test_search_requires_pattern_and_signature(capsys):
    code, _, err = run_cli(capsys, "search", "--signature", "2,3,1")
    assert code == 2
    code, _, err = run_cli(capsys, "search", "--pattern", "x.json")
    assert code == 2


def test_search_rejects_pattern_json_with_string_cells(tmp_path, capsys):
    # Read as booleans, every "0" would allow its entry and the full
    # pattern would be searched instead.
    from gybe.search import rowell_pattern

    mask = [["1" if v else "0" for v in row] for row in rowell_pattern().mask]
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps({"size": 8, "mask": mask}))
    code, out, err = run_cli(capsys, "search", "--pattern", str(path), "--signature", "2,3,1")
    assert code == 2 and out == ""
    assert "malformed pattern JSON" in err


def test_restarts_below_one_is_input_error(tmp_path, capsys):
    # A zero or negative count used to fall back to the default, or to
    # search nothing and report no solution.
    from gybe.search import rowell_pattern

    path = tmp_path / "pattern.txt"
    path.write_text(rowell_pattern().to_text())
    argv = ("search", "--pattern", str(path), "--signature", "2,3,1", "--restarts", "0")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "restarts must be at least 1" in err


def test_cli_never_raises_on_bad_flags(capsys):
    assert main(["verify", "--tol", "not-a-float"]) == 2
    assert main([]) == 2
    assert main(["family", "--family", "7", "--theta", "0"]) == 2
