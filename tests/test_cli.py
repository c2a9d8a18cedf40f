"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gybe import linalg
from gybe.cli import main
from gybe.solutions import base_solution, rowell_solution, xshape_solution


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


def test_equiv_requires_two_inputs(capsys):
    code, _, err = run_cli(capsys, "equiv", "--solution", "rowell")
    assert code == 2
    assert "solution" in err


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

    code, out, _ = run_cli(capsys, *argv, "--stats", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"solutions", "restarts", "dedup_counts"}
    assert len(data["restarts"]) == 4
    assert set(data["restarts"][0]) == {
        "reason", "iterations", "residual_evals", "jacobian_evals", "certified"
    }
    certified = sum(report["certified"] for report in data["restarts"])
    assert sum(data["dedup_counts"].values()) == certified
    assert {entry["dedup_key"] for entry in data["solutions"]} == set(data["dedup_counts"])
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert json.loads(out) == data["solutions"]


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
    # search nothing and print "none" as if no witness existed.
    from gybe.search import rowell_pattern

    path = tmp_path / "pattern.txt"
    path.write_text(rowell_pattern().to_text())
    equiv = ("equiv", "--solution", "rowell", "--solution", "base1")
    for argv in (
        equiv + ("--restarts", "0"),
        equiv + ("--restarts", "-1"),
        ("search", "--pattern", str(path), "--signature", "2,3,1", "--restarts", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "restarts must be at least 1" in err


def test_cli_never_raises_on_bad_flags(capsys):
    assert main(["verify", "--tol", "not-a-float"]) == 2
    assert main([]) == 2
    assert main(["family", "--family", "7", "--theta", "0"]) == 2
