"""Stdout and exit code of the CLI on fixed inputs, at HEAD and in the working tree, compared.

    python3 tools/same_output.py

The ops are every op of the benchmark's equiv pools at seeds 801, 804 and
806, each run as generated (``--json``) and again with ``--stats``, then
each again in plain text, alone and with ``--stats``; the near miss
``equiv --solution rowell --matrix <rowell with entry (0, 0) raised by
3e-7> --signature 2,3,1``, an undecided pair, in plain text, with
``--stats`` and with ``--json --stats``; every op of the
braid pools at 801 and 804, each ``--json`` op of the 804 pool again
without ``--json`` (the plain-text matrix) and each ``--compare`` op of
that pool again with ``--json``, and every op of the verify
pools at 801 and 802, each followed by the pool's ``classify`` ops again
with ``--json`` and by ``classify --matrix perturbed-N.json --json`` for
each perturbed family member of the pool, at the default tolerance (not
in block form: exit 2) and at ``--tol 1e-2`` (omega, gamma and delta);
``gybe family --family k --theta 0.7`` in plain text for k = 1, 2, 3, and
``gybe family --family 1 --theta 0.12345678901234568`` in plain text, whose
label line guards the round trip of a label (each number its ``repr``, so
that ``resolve_solution`` of the label rebuilds the member bit for bit);
``gybe family --family k --alpha 0.6,0.8 --beta 0.28,-0.96`` for k = 1, 2,
3, each in plain text and with ``--json``, so that the matrices of
``general_solution`` are compared byte for byte, and ``gybe family
--family 1 --alpha "1, 0" --beta 0,1``, a pair with a space after its comma;
``gybe braid --solution xshape``, whose generators sit two qudits apart,
on 3 and 4 strands: a word with ``--json`` and in plain text, and a braid
relation compared; ``gybe braid --matrix <rowell·(1 + 4e-11)> --signature
2,3,1 --word W --compare`` the empty word on W's strands, for W = ``n=3:
1,-1`` and ``n=4: 3,1,-3,-1``, each plain and with ``--json``;
``gybe search --pattern <rowell> --signature 2,3,1 --json --stats`` at
seeds 0-3, then ``--stats`` in plain text at the same seeds, with the
pattern as the 0/1 grid and again as JSON; ``gybe search --signature
2,3,2 --json --stats`` on xshape's own pattern, ``--signature 2,2,1`` on
the full 4x4 pattern, ``--signature 2,3,1`` on the full 8x8 pattern and
``--signature 3,2,1`` on the full 9x9 pattern, at seeds 0-1; the
benchmark's own search calls,
``gybe search --pattern <rowell> --signature 2,3,1 --restarts 4 --json
--stats`` at seeds 0-15 (the CLI's tolerance and iteration budget are the
benchmark's); and last the ``USAGE_ERRORS``,
argvs that exit 2 with nothing on stdout: a missing or surplus input, a 4x4 ``--state``,
a ``--state`` for 2·rowell, a solution that is not unitary, empty values,
a ``--compare`` word on other strands, ``classify`` of a solution not in
block form, a family member with a non-unit alpha, the ``REFUSED_INPUTS``
(``classify`` of rowell with Y[0, 1] = 0.5, plain and with ``--json``, a
``braid --tol`` without ``--compare``, ``--matrix -`` with ``--state -``,
and ten letters on a state under rowell·(1 + 4e-11), whose output drifts
off the unit sphere), a ``search`` on a
pattern JSON whose mask is ragged and on one whose rows do not match its size, ``--tol nan``, ``--tol -1`` and ``--tol inf`` on each of ``verify``,
``classify``, ``equiv``, ``braid ... --compare`` and ``search`` (the
tolerance gate), the ``CONFIG_ERRORS`` (``search`` with ``--seed -1``, or
with a ``--tol`` whose square overflows or underflows, ``family`` with a
non-ASCII digit, and ``family --theta 0_1`` and ``verify --solution
family1:theta=0_1``, a real with a digit-group underscore), and ``verify``
and ``classify`` of a 2x3 ``--matrix``.  The pools and their
input files come from ``perfbench/workloads.py``, which is only read; each
pool's files sit in a directory of their own, because pools of one
workload reuse file names.

Each side runs every op in order, in-process through ``gybe.cli.main``, in
a subprocess of its own that imports ``gybe`` from that side's ``src`` and
runs in the directory that holds the inputs, so both sides see the same
argv.  A side reports each op as its exit code and the SHA-256 of its
stdout, so neither it nor the comparing process holds any op's output.
As in ``tools/bench_pairs.py``, HEAD is a ``git archive`` extraction and
the working tree a copy of its tracked and untracked, not ignored, files,
each under a temporary directory.

Prints the number of ops compared, then each op whose exit code or stdout
differs: its index, its exit code at HEAD and in the working tree, and its
argv; exits 1 on any difference.  Stderr is not compared, so an error
message may change wording.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]

import checker  # noqa: E402
import workloads  # noqa: E402
from bench_pairs import PARENT, copy_working_tree, extract_commit  # noqa: E402

POOLS = (
    ("equiv", 801), ("equiv", 804), ("equiv", 806),
    ("braid", 801), ("braid", 804),
    ("verify", 801), ("verify", 802),
)
# The pool whose --json ops run again as plain text, and its --compare ops with --json.
TEXT_POOL = ("braid", 804)
FAMILY_TEXT = [["family", "--family", str(k), "--theta", "0.7"] for k in (1, 2, 3)] + [
    ["family", "--family", "1", "--theta", "0.12345678901234568"]
]
FAMILY_GENERAL = [
    ["family", "--family", str(k), "--alpha", "0.6,0.8", "--beta", "0.28,-0.96", *json]
    for k in (1, 2, 3)
    for json in ([], ["--json"])
] + [["family", "--family", "1", "--alpha", "1, 0", "--beta", "0,1"]]
# xshape, the (2,3,2) solution: a word as JSON and as text, and a braid
# relation compared, on 3 and 4 strands.
XSHAPE_BRAIDS = [
    ["braid", "--solution", "xshape", "--word", word, *output]
    for word in ("n=3: 1,-2,1,2", "n=4: 3,-1,2,-3,1")
    for output in (["--json"], [])
] + [
    ["braid", "--solution", "xshape", "--word", f"n={n}: {i},{i + 1},{i}", "--compare", f"n={n}: {i + 1},{i},{i + 1}"]
    for n, i in ((3, 1), (4, 2))
]
SEARCH_SEEDS = range(4)
PATTERN = "rowell.txt"
PATTERN_JSON = "rowell.json"
# Searches off the bench pattern, as 0/1 grids: xshape's own pattern, the
# full 4x4 pattern, the full 8x8 pattern at (2,3,1), where every residual row
# is live, and the full 9x9 pattern, the one d = 3 search.
OTHER_SEARCHES = {
    "xshape.txt": ("2,3,2", np.abs(checker.xshape_matrix()) > 1e-9),
    "full-4x4.txt": ("2,2,1", np.ones((4, 4), dtype=bool)),
    "full-8x8.txt": ("2,3,1", np.ones((8, 8), dtype=bool)),
    "full-9x9.txt": ("3,2,1", np.ones((9, 9), dtype=bool)),
}
OTHER_SEARCH_SEEDS = range(2)
# The benchmark's search calls, restart count and seeds, through the CLI.
BENCH_SEARCHES = [
    ["search", "--pattern", PATTERN, "--signature", "2,3,1", "--restarts", str(workloads.SEARCH_RESTARTS),
     "--json", "--stats", "--seed", str(seed)]
    for seed in range(workloads.SEARCH_CALLS)
]
# A ragged mask, and rows that do not match the size.
MALFORMED_PATTERNS = {
    "ragged.json": '{"size": 2, "mask": [[true, false], [false]]}',
    "rows-not-size.json": '{"size": 3, "mask": [[true, false], [false, true]]}',
}
STATE_4X4 = "state-4x4.json"
# 2·rowell solves the equation but is not unitary, so a state is refused.
ROWELL_X2, STATE_E0 = "rowell-x2.json", "state-e0.json"
# Rowell with Y[0, 1] = 0.5, not in block form, and rowell·(1 + 4e-11), unitary
# within 1e-10, whose ten letters drift a state's norm by 4e-10.
ROWELL_LEAKY_Y, ROWELL_NEAR = "rowell-leaky-y.json", "rowell-near-unitary.json"
# Words with inverse letters under rowell·(1 + 4e-11), compared with the empty
# word on their strands: each inverse letter cancels its letter.
NEAR_COMPARES = [
    ["braid", "--matrix", ROWELL_NEAR, "--signature", "2,3,1", "--word", word, "--compare", word[:5], *output]
    for word in ("n=3: 1,-1", "n=4: 3,1,-3,-1")
    for output in ([], ["--json"])
]
# Inputs the commands refuse: classify of the leaky Y, plain and as JSON, a braid
# --tol without --compare, --matrix and --state both on stdin, and the drifted state.
REFUSED_INPUTS = (
    ["classify", "--matrix", ROWELL_LEAKY_Y],
    ["classify", "--matrix", ROWELL_LEAKY_Y, "--json"],
    ["braid", "--solution", "rowell", "--word", "n=3: 1", "--tol", "1e-3", "--json"],
    ["braid", "--matrix", "-", "--state", "-", "--word", "n=3: 1"],
    ["braid", "--matrix", ROWELL_NEAR, "--signature", "2,3,1", "--word", "n=3: " + ",".join("1" * 10),
     "--state", STATE_E0],
)
# Rowell with entry (0, 0) raised by 3e-7: its best candidate misses within
# NEAR_MISS, so the pair is undecided.
ROWELL_NEAR_MISS = "rowell-near-miss.json"
NEAR_MISS_EQUIV = [
    ["equiv", "--solution", "rowell", "--matrix", ROWELL_NEAR_MISS, "--signature", "2,3,1", *output]
    for output in ([], ["--stats"], ["--json", "--stats"])
]
MATRIX_2X3 = "matrix-2x3.json"
# Each command that takes --tol, for the tolerance gate's nan, -1 and inf.
TOL_COMMANDS = (
    ["verify", "--solution", "rowell"],
    ["classify", "--solution", "rowell"],
    ["equiv", "--solution", "rowell", "--solution", "base1"],
    ["braid", "--solution", "rowell", "--word", "n=3: 1,2,1", "--compare", "n=3: 2,1,2"],
    ["search", "--pattern", PATTERN, "--signature", "2,3,1"],
)
# A negative seed, a tolerance whose square overflows or underflows to 0,
# a family index in Arabic-Indic digits, and a theta with a digit-group
# underscore, typed and in a solution id.
CONFIG_ERRORS = (
    ["search", "--pattern", PATTERN, "--signature", "2,3,1", "--seed", "-1"],
    ["search", "--pattern", PATTERN, "--signature", "2,3,1", "--tol", "1e200"],
    ["search", "--pattern", PATTERN, "--signature", "2,3,1", "--tol", "1e-170"],
    ["family", "--family", "\u0662", "--theta", "0.7"],
    ["family", "--family", "1", "--theta", "0_1"],
    ["verify", "--solution", "family1:theta=0_1"],
)
USAGE_ERRORS = (
    ["verify"],
    ["classify"],
    ["braid", "--word", "n=3: 1"],
    ["braid", "--solution", "rowell"],
    ["search", "--signature", "2,3,1"],
    ["search", "--pattern", PATTERN],
    ["verify", "--solution", "rowell", "--solution", "xshape"],
    ["classify", "--solution", "rowell", "--solution", "xshape"],
    ["braid", "--solution", "rowell", "--solution", "xshape", "--word", "n=3: 1"],
    ["braid", "--solution", "rowell", "--word", "n=3: 1", "--state", STATE_4X4],
    ["braid", "--matrix", ROWELL_X2, "--signature", "2,3,1", "--word", "n=3: 1", "--state", STATE_E0],
    ["braid", "--solution", "rowell", "--word", ""],
    ["verify", "--solution", ""],
    ["verify", "--matrix", ""],
    ["braid", "--solution", "rowell", "--word", "n=4: 1,2", "--compare", "n=5: 1"],
    ["classify", "--solution", "xshape"],
    ["family", "--family", "1", "--alpha", "2,0", "--beta", "0,1"],
    *REFUSED_INPUTS,
    *(["search", "--pattern", name, "--signature", "2,3,1"] for name in MALFORMED_PATTERNS),
    *([*argv, "--tol", tol] for argv in TOL_COMMANDS for tol in ("nan", "-1", "inf")),
    *CONFIG_ERRORS,
    ["verify", "--matrix", MATRIX_2X3],
    ["classify", "--matrix", MATRIX_2X3],
)


def ops(workdir: Path) -> list[list[str]]:
    """The argv of every op, in order, with the files they read written under ``workdir``."""
    argvs = []
    for workload, seed in POOLS:
        inputs = workloads.generate(workload, seed)
        pool = Path(f"{workload}-{seed}")
        (workdir / pool).mkdir()
        for name, text in inputs.files.items():
            (workdir / pool / name).write_text(text, encoding="utf-8")
        runner = workloads.Runner(None, pool)
        pool_argvs = [runner.prepare(op) for op in inputs.ops]
        if workload == "equiv":
            plain = [[a for a in argv if a != "--json"] for argv in pool_argvs]
            argvs += [a for argv in pool_argvs + plain for a in (argv, argv + ["--stats"])]
        else:
            argvs += pool_argvs
        if (workload, seed) == TEXT_POOL:
            argvs += [[a for a in argv if a != "--json"] for argv in pool_argvs if "--json" in argv]
            argvs += [argv + ["--json"] for argv in pool_argvs if "--compare" in argv]
        if workload == "verify":
            argvs += [argv + ["--json"] for argv in pool_argvs if argv[0] == "classify"]
            for argv in pool_argvs:
                if "--matrix" in argv:
                    classify = ["classify", "--matrix", argv[argv.index("--matrix") + 1], "--json"]
                    argvs += [classify, classify + ["--tol", "1e-2"]]
    near_miss = checker.rowell_matrix()
    near_miss[0, 0] += 3e-7
    (workdir / ROWELL_NEAR_MISS).write_text(checker.matrix_to_json(near_miss), encoding="utf-8")
    argvs += [list(argv) for argv in NEAR_MISS_EQUIV + FAMILY_TEXT + FAMILY_GENERAL + XSHAPE_BRAIDS + NEAR_COMPARES]
    mask = checker.rowell_mask()
    (workdir / PATTERN).write_text(_grid(mask), encoding="utf-8")
    pattern_json = {"size": len(mask), "mask": [[bool(v) for v in row] for row in mask]}
    (workdir / PATTERN_JSON).write_text(json.dumps(pattern_json), encoding="utf-8")
    for name, text in MALFORMED_PATTERNS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    for pattern, output in ((PATTERN, ["--json"]), (PATTERN, []), (PATTERN_JSON, [])):
        search = ["search", "--pattern", pattern, "--signature", "2,3,1", *output, "--stats"]
        argvs += [search + ["--seed", str(seed)] for seed in SEARCH_SEEDS]
    for pattern, (signature, other) in OTHER_SEARCHES.items():
        (workdir / pattern).write_text(_grid(other), encoding="utf-8")
        search = ["search", "--pattern", pattern, "--signature", signature, "--json", "--stats"]
        argvs += [search + ["--seed", str(seed)] for seed in OTHER_SEARCH_SEEDS]
    argvs += [list(argv) for argv in BENCH_SEARCHES]
    # Unit norm as 16 amplitudes, but a matrix, not a column.
    (workdir / STATE_4X4).write_text(checker.matrix_to_json(np.eye(4) / 2), encoding="utf-8")
    (workdir / ROWELL_X2).write_text(checker.matrix_to_json(2 * checker.rowell_matrix()), encoding="utf-8")
    (workdir / STATE_E0).write_text(checker.matrix_to_json(np.eye(16)[:, :1]), encoding="utf-8")
    leaky = checker.rowell_matrix()
    leaky[4, 5] = 0.5
    (workdir / ROWELL_LEAKY_Y).write_text(checker.matrix_to_json(leaky), encoding="utf-8")
    near = checker.rowell_matrix() * (1 + 4e-11)
    (workdir / ROWELL_NEAR).write_text(checker.matrix_to_json(near), encoding="utf-8")
    # A matrix that is not square, for the input gate of verify and classify.
    (workdir / MATRIX_2X3).write_text(checker.matrix_to_json(np.eye(2, 3)), encoding="utf-8")
    return argvs + [list(argv) for argv in USAGE_ERRORS]


def _grid(mask: np.ndarray) -> str:
    """A pattern as the 0/1 grid ``gybe search --pattern`` reads."""
    return "".join("".join("1" if v else "0" for v in row) + "\n" for row in mask)


def run_side(checkout: Path, workdir: Path, argvs: list[list[str]]) -> list[list]:
    """[exit code, SHA-256 hex of stdout] of each op, run by the ``gybe`` in ``checkout``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--side", str(checkout / "src")],
        cwd=workdir,
        input=json.dumps(argvs),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def _side(src: Path) -> None:
    """Run the argv list read from stdin and write [code, stdout digest] per op to stdout."""
    sys.path.insert(0, str(src))
    from gybe import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"gybe was imported from {cli.__file__}, not from {src}")
    results = []
    for argv in json.load(sys.stdin):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        results.append([code, stdout_digest(out.getvalue())])
    json.dump(results, sys.stdout)


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def differences(parent: list[list], change: list[list]) -> list[int]:
    """Index of every op whose exit code or stdout differs, in op order."""
    return [i for i, (p, c) in enumerate(zip(parent, change, strict=True)) if p != c]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side is not None:
        _side(args.side)
        return 0
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        tmp = Path(tmp)
        workdir = tmp / "inputs"
        workdir.mkdir()
        argvs = ops(workdir)
        extract_commit(PARENT, tmp / "parent")
        copy_working_tree(tmp / "change")
        parent, change = (run_side(tmp / side, workdir, argvs) for side in ("parent", "change"))
    print(f"{len(argvs)} ops compared")
    diff = differences(parent, change)
    if not diff:
        print("no op differs")
        return 0
    print(f"{len(diff)} op(s) differ:")
    for i in diff:
        print(f"op {i}: exit {parent[i][0]} -> {change[i][0]}: gybe {shlex.join(argvs[i])}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
