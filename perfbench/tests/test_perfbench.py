"""Tests of the benchmark itself: inputs, checker, tracer and contract.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

gybe = run.import_program()


@pytest.fixture
def runner(tmp_path):
    return workloads.Runner(gybe, tmp_path)


def _run(runner, inputs, op):
    for name, text in inputs.files.items():
        (runner.workdir / name).write_text(text, encoding="utf-8")
    return runner.run(op, runner.prepare(op))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_other_seed_other_inputs(workload):
    first, again, other = (workloads.generate(workload, s) for s in (5, 5, 6))
    assert (first.ops, first.files) == (again.ops, again.files)
    assert first.ops != other.ops
    assert len(first.ops) % first.cycle_len == 0


def test_reference_solutions_solve_their_equations():
    for sid in ("rowell", "xshape", "base1", "family2:theta=0.7", "family3:alpha=0.6,0.8:beta=0.8,-0.6"):
        m, (d, _, l) = checker.reference_matrix(sid)
        assert checker.equation_residual(m, d, l) < 1e-14
        assert checker.unitarity_residual(m) < 1e-14
        assert np.max(np.abs(m - gybe.resolve_solution(sid).matrix)) < 1e-15


def _search_record(matrix):
    return {
        "solutions": [{"matrix": matrix, "residual": 1e-16, "restart": 0}],
        "dedup_counts": {"key": 1},
        "traces": [(1.0, 0.0)] * workloads.SEARCH_RESTARTS,
        "best_objective": 0.0,
    }


def test_checker_flags_perturbed_search_solution():
    good = checker.rowell_matrix()
    check = lambda m: checker.check_search(_search_record(m), 1e-11, workloads.SEARCH_RESTARTS)  # noqa: E731
    assert check(good) == []
    perturbed = good.copy()
    perturbed[0, 0] += 1e-6
    assert check(perturbed)
    outside = good.copy()
    outside[0, 1] = 1e-3
    assert check(outside)


def test_checker_accepts_real_search_output(runner):
    result = runner.search_call(3)
    assert sum(result.dedup_counts.values()) >= 1
    assert checker.check_search(workloads.search_record(result), 1e-11, workloads.SEARCH_RESTARTS) == []


def test_checker_flags_wrong_witness(runner):
    inputs = workloads.generate("equiv", 1)
    op = next(o for o in inputs.ops if o["hit"] and o["target"] != "rowell")
    outcome = _run(runner, inputs, op)
    assert workloads.check(op, outcome, inputs) == []
    witness = json.loads(outcome.out)
    for gauge in witness["ops"]:
        if gauge["kind"] == "scalar":
            gauge["lambda"] = [gauge["lambda"][0] * 1.001, gauge["lambda"][1]]
    wrong = workloads.Outcome(code=0, out=json.dumps(witness))
    assert workloads.check(op, wrong, inputs)
    miss = next(o for o in inputs.ops if not o["hit"])
    assert workloads.check(miss, outcome, inputs)  # a witness where none may exist


def test_checker_flags_wrong_braid_output(runner):
    inputs = workloads.generate("braid", 2)
    for kind in ("json", "state"):
        op = next(o for o in inputs.ops if o["kind"] == kind and o["n"] == 5)
        outcome = _run(runner, inputs, op)
        assert workloads.check(op, outcome, inputs) == []
        data = json.loads(outcome.out)
        data["entries"][3][1] += 1e-6
        assert workloads.check(op, workloads.Outcome(code=0, out=json.dumps(data)), inputs)
    for op in (o for o in inputs.ops[: inputs.cycle_len * 5] if o["kind"] == "compare" and o["n"] <= 6):
        outcome = _run(runner, inputs, op)
        assert workloads.check(op, outcome, inputs) == []
        assert workloads.check(op, workloads.Outcome(code=1 - outcome.code), inputs)


def test_checker_flags_wrong_exit_code(runner):
    inputs = workloads.generate("verify", 3)
    for op in inputs.ops[: inputs.cycle_len]:
        outcome = _run(runner, inputs, op)
        assert workloads.check(op, outcome, inputs) == [], op
        wrong = copy.copy(outcome)
        wrong.code = 1 if outcome.code == 0 else 0
        assert workloads.check(op, wrong, inputs), op


def _layer_counts(runner, workload):
    pool = workloads.generate(workload, 11)
    inputs = workloads.Inputs(1, pool.ops[:1], pool.files)
    records, metrics, tr = run.traced(runner, inputs, 1.0, workload)
    assert tr.absent == {}
    assert not any(r.problems for r in records)
    return {k: v for k, v in metrics.items() if not (k.endswith("_s") or k.endswith(".s") or k.endswith("per_s"))}


def test_traced_counts_repeat_exactly(runner):
    first = _layer_counts(runner, "search")
    assert first == _layer_counts(runner, "search")
    assert first["optimize.residual_evals"] > 0 and first["search.restarts"] == workloads.SEARCH_RESTARTS
    assert first["optimize.residual_evals_per_iter"] >= 2 * 32 + 1


def test_tracer_reports_absent_targets_and_restores_originals(runner):
    original = gybe.linalg.kron
    targets = tracer.TARGETS + (
        ("linalg.renamed", "gybe.linalg", "no_such_function"),
        ("gone.module", "gybe.no_such_module", "anything"),
    )
    with tracer.Tracer(targets) as tr:
        assert gybe.linalg.kron is not original
        outcome = runner.run({"kind": "verify"}, ["verify", "--solution", "rowell", "--json"])
    assert outcome.code == 0
    assert gybe.linalg.kron is original
    assert set(tr.absent) == {"linalg.renamed", "gone.module"}
    metrics = tr.layer_metrics()
    assert metrics["cli.main.calls"] == 1 and metrics["core.gybe_residual.calls"] == 1


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.TRACE_UNITS | tracer.metric_units()
    # verify runs by hand only; PROFILE.md says why it is not gated.
    assert [w["name"] for w in spec["workloads"]] == [w for w in workloads.WORKLOADS if w != "verify"]


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
