"""Tests for the summary statistics of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "peak_rss_mb": "lower"}
BOUNDS = {"ops_per_s": 0.25, "peak_rss_mb": 0.1}


def _run(pair, side, ops, rss, failed=0, attempted=10, workload="equiv", seed=804):
    metrics = {"ops_per_s": {"value": ops}, "peak_rss_mb": {"value": rss}}
    result = {"metrics": metrics, "failed": failed, "attempted": attempted}
    return {"workload": workload, "seed": seed, "pair": pair, "side": side, "result": result}


def _runs():
    parent = [(10.0, 100.0, 0), (12.0, 100.0, 1), (14.0, 100.0, 0), (16.0, 100.0, 2)]
    change = [(11.0, 99.0, 0), (11.0, 101.0, 0), (15.0, 100.0, 1), (17.0, 98.0, 0)]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs.append(_run(pair, "parent", *p))
        runs.append(_run(pair, "change", *c))
    # One pair of another workload and of another seed, which the equiv summary leaves out.
    for side in ("parent", "change"):
        runs.append(_run(0, side, 1e3, 1.0, failed=5, workload="braid"))
        runs.append(_run(0, side, 1e3, 1.0, failed=5, seed=805))
    return runs


def test_change_wins_counts_pairs_in_the_metric_direction():
    summary = bench_pairs.summarize(_runs(), "equiv", 804, BETTER, BOUNDS)
    assert summary["pairs"] == 4
    # Higher is better: 11 > 10, 15 > 14, 17 > 16; 11 < 12 loses.
    assert summary["ops_per_s"]["change_wins"] == 3
    # Lower is better: 99 and 98 win, 101 loses, the tie at 100 counts for neither.
    assert summary["peak_rss_mb"]["change_wins"] == 2


def test_quartiles_are_inclusive():
    summary = bench_pairs.summarize(_runs(), "equiv", 804, BETTER, BOUNDS)
    # Inclusive quartiles of 10, 12, 14, 16 sit at 11.5 and 14.5 (exclusive: 10.5, 15.5).
    assert summary["ops_per_s"]["parent"] == {"median": 13.0, "q1": 11.5, "q3": 14.5}
    assert summary["ops_per_s"]["change"] == {"median": 13.0, "q1": 11.0, "q3": 15.5}


def test_a_single_pair_has_no_spread():
    assert bench_pairs._spread([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    summary = bench_pairs.summarize(_runs(), "braid", 804, {"ops_per_s": "higher"}, BOUNDS)
    assert summary["pairs"] == 1
    assert summary["ops_per_s"]["parent"] == {"median": 1e3, "q1": 1e3, "q3": 1e3}


def test_failed_and_attempted_ops_are_summed_per_side():
    summary = bench_pairs.summarize(_runs(), "equiv", 804, BETTER, BOUNDS)
    assert summary["ops_failed"] == {"parent": 3, "change": 1}
    assert summary["ops_attempted"] == {"parent": 40, "change": 40}


def _ten_pairs(parent_ops, change_ops, parent_rss, change_rss):
    runs = []
    for pair, values in enumerate(zip(parent_ops, change_ops, parent_rss, change_rss)):
        runs.append(_run(pair, "parent", values[0], values[2]))
        runs.append(_run(pair, "change", values[1], values[3]))
    return bench_pairs.summarize(runs, "equiv", 804, BETTER, BOUNDS)


PARENT_OPS = [10.0 + i for i in range(10)]  # median 14.5, q3 - q1 = 16.75 - 12.25 = 4.5


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_spread():
    # Pair 0 ties and counts for neither; the other nine win by 6, and the
    # medians differ by 20.5 - 14.5 = 6 > 4.5.
    change = [10.0] + [p + 6.0 for p in PARENT_OPS[1:]]
    summary = _ten_pairs(PARENT_OPS, change, [100.0] * 10, [100.0] * 10)
    assert summary["ops_per_s"]["change_wins"] == 9 and summary["ops_per_s"]["gain"] is True
    # Two ties leave eight wins of ten.
    change = [10.0, 11.0] + [p + 6.0 for p in PARENT_OPS[2:]]
    assert _ten_pairs(PARENT_OPS, change, [100.0] * 10, [100.0] * 10)["ops_per_s"]["gain"] is False
    # Ten wins by 4 move the median by no more than the parent's spread.
    change = [p + 4.0 for p in PARENT_OPS]
    summary = _ten_pairs(PARENT_OPS, change, [100.0] * 10, [100.0] * 10)
    assert summary["ops_per_s"]["change_wins"] == 10 and summary["ops_per_s"]["gain"] is False
    # Equal runs tie in every pair: no gain, and within any bound.
    summary = _ten_pairs(PARENT_OPS, PARENT_OPS, [100.0] * 10, [100.0] * 10)
    assert summary["ops_per_s"]["gain"] is False and summary["ops_per_s"]["within_bound"] is True
    assert summary["peak_rss_mb"]["gain"] is False and summary["peak_rss_mb"]["within_bound"] is True


def test_a_lower_is_better_metric_gains_downwards():
    # Nine of ten pairs lower, one tie; the parent's runs do not spread.
    summary = _ten_pairs(PARENT_OPS, PARENT_OPS, [100.0] * 10, [100.0] + [99.0] * 9)
    assert summary["peak_rss_mb"]["change_wins"] == 9 and summary["peak_rss_mb"]["gain"] is True
    # Higher memory is no gain, however many pairs it "wins" upwards.
    summary = _ten_pairs(PARENT_OPS, PARENT_OPS, [100.0] * 10, [101.0] * 10)
    assert summary["peak_rss_mb"]["change_wins"] == 0 and summary["peak_rss_mb"]["gain"] is False


@pytest.mark.parametrize(
    "ops_factor, rss, ops_within, rss_within",
    [(0.76, 109.0, True, True), (0.74, 111.0, False, False), (2.0, 50.0, True, True)],
)
def test_within_bound_compares_the_medians_in_the_metric_direction(ops_factor, rss, ops_within, rss_within):
    # Bounds are fractions of the parent's median: 25 % for ops_per_s
    # (median 14.5) and 10 % for peak_rss_mb (median 100).
    change = [p * ops_factor for p in PARENT_OPS]
    summary = _ten_pairs(PARENT_OPS, change, [100.0] * 10, [rss] * 10)
    assert summary["ops_per_s"]["within_bound"] is ops_within
    assert summary["peak_rss_mb"]["within_bound"] is rss_within


def test_a_repeated_workload_and_seed_is_rejected(capsys):
    # Both specs would number their pairs from 0, and the summary would mix them.
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(["--out", "x.json", "--change", "c", "--runs", "equiv:804:3", "--runs", "equiv:804:2"])
    assert exc.value.code == 2
    assert "equiv:804" in capsys.readouterr().err
    args = bench_pairs.parse_args(["--out", "x.json", "--change", "c", "--runs", "equiv:804:3", "--runs", "equiv:805:2"])
    assert args.runs == [("equiv", 804, 3), ("equiv", 805, 2)]


def test_each_spec_warms_up_both_sides_before_its_pairs(tmp_path, monkeypatch):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        metrics = {name: {"value": float(len(calls))} for name in ("ops_per_s", "peak_rss_mb", "setup_s")}
        return {"environment": {"seed": seed, "python": "x"}}, {"metrics": metrics, "failed": 0, "attempted": 1}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "extract_commit", lambda rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: dest.mkdir(parents=True))
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--change", "c", "--runs", "braid:804:2", "--runs", "equiv:805:1"]
    assert bench_pairs.main(argv) == 0
    assert calls == [
        ("parent", "braid", 804), ("change", "braid", 804),  # warm-up
        ("parent", "braid", 804), ("change", "braid", 804),  # pair 0
        ("change", "braid", 804), ("parent", "braid", 804),  # pair 1
        ("parent", "equiv", 805), ("change", "equiv", 805),  # warm-up
        ("parent", "equiv", 805), ("change", "equiv", 805),  # pair 0
    ]
    written = json.loads(out.read_text())
    # Warm-ups are not recorded: the runs hold calls 3-6 and 9-10 only.
    assert [r["result"]["metrics"]["ops_per_s"]["value"] for r in written["runs"]] == [3, 4, 5, 6, 9, 10]
    assert [(r["pair"], r["side"]) for r in written["runs"][:4]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")
    ]
    assert "warm-up" in written["method"] and written["environment"] == {"python": "x"}
