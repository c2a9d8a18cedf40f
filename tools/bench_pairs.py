"""Paired runs of the benchmark on a parent commit and on a change, as one BENCH file.

    python3 tools/bench_pairs.py --out BENCH_11.json --change "what the change does" \\
        --runs equiv:804:10 --runs equiv:805:3

Each ``--runs WORKLOAD:SEED:PAIRS`` runs PAIRS alternating pairs of
``perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0``,
with S the ``run_seconds`` of ``BENCHMARK.json``; pair i runs the parent
first when i is even.  Before a spec's pairs each side runs once more, a
warm-up that is not recorded: the first run after the host was idle is
slow, and pair 0 would always charge it to the parent.  The parent is the
commit at HEAD: its side runs in a ``git archive`` extraction of it, the
change side in a copy of the working tree's tracked and untracked, not
ignored, files; each sits in its own directory under a temporary one, so
every run imports only its own ``src``, and the repository gains no
worktree or branch.

The output has the shape of the repository's BENCH files: ``change``,
``command``, ``method``, ``environment`` (of the first run, without its
seed), a ``summary`` per workload and seed (median and quartiles of each
end-to-end metric per side, the pairs the change won by the metric's
direction in ``BENCHMARK.json``, and failed and attempted ops), and the raw
``runs``.  Quartiles are ``statistics.quantiles(..., n=4,
method="inclusive")``.

Each metric's summary also applies the two rules a change is judged by.
``gain``: the change won at least nine tenths of the pairs (ties count for
neither), and its median is better than the parent's by more than the
parent's q3 - q1.  ``within_bound``: the change's median is worse than the
parent's by no more than the metric's ``bound`` in ``BENCHMARK.json``, a
fraction of the parent's median.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARENT = "HEAD"
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
METHOD = (
    "alternating pairs of parent and change, each run in its own checkout on the same host; "
    "pair i runs the parent first when i is even; before each workload and seed's pairs, "
    "one unrecorded warm-up run of each side"
)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def extract_commit(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, written under ``dest``."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked and untracked, not ignored, files, copied under ``dest``."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        source = ROOT / name.decode()
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / name.decode()
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(report, result) of one benchmark run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def _spread(values: list[float]) -> dict:
    q1, median, q3 = _quartiles(values)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def summarize(
    runs: list[dict], workload: str, seed: int, better: dict[str, str], bounds: dict[str, float]
) -> dict:
    """Median, quartiles, pair wins, ``gain`` and ``within_bound`` of each
    end-to-end metric, per side."""
    mine = [r for r in runs if r["workload"] == workload and r["seed"] == seed]
    pairs = sorted({r["pair"] for r in mine})
    side = {(r["pair"], r["side"]): r["result"] for r in mine}
    summary: dict = {"workload": workload, "seed": seed, "pairs": len(pairs)}
    for metric, direction in better.items():
        values = {s: [side[p, s]["metrics"][metric]["value"] for p in pairs] for s in ("parent", "change")}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        q1, parent, q3 = _quartiles(values["parent"])
        better_by = sign * (statistics.median(values["change"]) - parent)
        summary[metric] = {s: _spread(v) for s, v in values.items()} | {
            "change_wins": wins,
            "gain": 10 * wins >= 9 * len(pairs) and better_by > q3 - q1,
            "within_bound": -better_by <= bounds[metric] * abs(parent),
        }
    for key, field in (("ops_failed", "failed"), ("ops_attempted", "attempted")):
        summary[key] = {s: sum(side[p, s][field] for p in pairs) for s in ("parent", "change")}
    return summary


def _runs_spec(text: str) -> tuple[str, int, int]:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument("--change", required=True, help="one line saying what the change does")
    parser.add_argument("--runs", action="append", type=_runs_spec, required=True, help="WORKLOAD:SEED:PAIRS")
    args = parser.parse_args(argv)
    # Runs are keyed by (workload, seed, pair, side): a second spec of the
    # same workload and seed would overwrite the first one's pairs.
    specs = [(workload, seed) for workload, seed, _ in args.runs]
    repeated = sorted({f"{w}:{s}" for w, s in specs if specs.count((w, s)) > 1})
    if repeated:
        parser.error(f"--runs repeats {', '.join(repeated)}; give each WORKLOAD:SEED once")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    runs, environment = [], None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract_commit(PARENT, checkouts["parent"])
        copy_working_tree(checkouts["change"])
        for workload, seed, pairs in args.runs:
            for side in ("parent", "change"):
                run_once(checkouts[side], workload, seed, seconds)  # warm-up, not recorded
            for pair in range(pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    report, result = run_once(checkouts[side], workload, seed, seconds)
                    if environment is None:
                        environment = {k: v for k, v in report["environment"].items() if k != "seed"}
                    runs.append(
                        {
                            "workload": workload,
                            "seed": seed,
                            "seconds": seconds,
                            "pair": pair,
                            "side": side,
                            "first": order[0],
                            "result": result,
                        }
                    )
                    ops = result["metrics"]["ops_per_s"]["value"]
                    print(f"{workload} seed {seed} pair {pair} {side}: {ops:.2f} ops/s", file=sys.stderr)
    out = {
        "change": args.change,
        "command": COMMAND.format(seconds=seconds),
        "method": METHOD,
        "environment": environment,
        "summary": [summarize(runs, w, s, better, bounds) for w, s, _ in args.runs],
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
