"""Tests for the summary statistics of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "peak_rss_mb": "lower"}


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
    summary = bench_pairs.summarize(_runs(), "equiv", 804, BETTER)
    assert summary["pairs"] == 4
    # Higher is better: 11 > 10, 15 > 14, 17 > 16; 11 < 12 loses.
    assert summary["ops_per_s"]["change_wins"] == 3
    # Lower is better: 99 and 98 win, 101 loses, the tie at 100 counts for neither.
    assert summary["peak_rss_mb"]["change_wins"] == 2


def test_quartiles_are_inclusive():
    summary = bench_pairs.summarize(_runs(), "equiv", 804, BETTER)
    # Inclusive quartiles of 10, 12, 14, 16 sit at 11.5 and 14.5 (exclusive: 10.5, 15.5).
    assert summary["ops_per_s"]["parent"] == {"median": 13.0, "q1": 11.5, "q3": 14.5}
    assert summary["ops_per_s"]["change"] == {"median": 13.0, "q1": 11.0, "q3": 15.5}


def test_a_single_pair_has_no_spread():
    assert bench_pairs._spread([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    summary = bench_pairs.summarize(_runs(), "braid", 804, {"ops_per_s": "higher"})
    assert summary["pairs"] == 1
    assert summary["ops_per_s"]["parent"] == {"median": 1e3, "q1": 1e3, "q3": 1e3}


def test_failed_and_attempted_ops_are_summed_per_side():
    summary = bench_pairs.summarize(_runs(), "equiv", 804, BETTER)
    assert summary["ops_failed"] == {"parent": 3, "change": 1}
    assert summary["ops_attempted"] == {"parent": 40, "change": 40}


def test_a_repeated_workload_and_seed_is_rejected(capsys):
    # Both specs would number their pairs from 0, and the summary would mix them.
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(["--out", "x.json", "--change", "c", "--runs", "equiv:804:3", "--runs", "equiv:804:2"])
    assert exc.value.code == 2
    assert "equiv:804" in capsys.readouterr().err
    args = bench_pairs.parse_args(["--out", "x.json", "--change", "c", "--runs", "equiv:804:3", "--runs", "equiv:805:2"])
    assert args.runs == [("equiv", 804, 3), ("equiv", 805, 2)]
