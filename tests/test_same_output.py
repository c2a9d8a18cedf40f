"""Tests for tools/same_output.py, with the checkouts and the side runner stubbed."""

import importlib.util
from pathlib import Path

from gybe import cli

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("same_output", _ROOT / "tools" / "same_output.py")
same_output = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_output)


def _stub(monkeypatch, argvs, outputs):
    """Run ``main`` on ``argvs`` with each side's outputs taken from ``outputs``."""
    sides = []

    def run_side(checkout, workdir, ops):
        sides.append(checkout.name)
        assert ops == argvs
        return outputs[checkout.name]

    monkeypatch.setattr(same_output, "ops", lambda workdir: argvs)
    monkeypatch.setattr(same_output, "extract_commit", lambda rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(same_output, "copy_working_tree", lambda dest: dest.mkdir(parents=True))
    monkeypatch.setattr(same_output, "run_side", run_side)
    return sides


ARGVS = [["equiv", "--solution", "a", "--solution", "b"], ["braid", "--word", "n=3: 1"], ["registry"]]


def test_equal_outputs_pass(monkeypatch, capsys):
    outputs = [[0, "x\n"], [1, "none\n"], [0, ""]]
    sides = _stub(monkeypatch, ARGVS, {"parent": outputs, "change": [list(o) for o in outputs]})
    assert same_output.main([]) == 0
    assert sides == ["parent", "change"]
    assert capsys.readouterr().out == "3 ops compared\nno op differs\n"


def test_the_first_differing_op_is_named(monkeypatch, capsys):
    # Op 1 differs in its exit code and op 2 in its stdout: op 1 comes first.
    parent = [[0, "x\n"], [1, "none\n"], [0, "a"]]
    change = [[0, "x\n"], [2, "none\n"], [0, "b"]]
    _stub(monkeypatch, ARGVS, {"parent": parent, "change": change})
    assert same_output.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "3 ops compared",
        "2 op(s) differ:",
        "op 1: exit 1 -> 2: gybe braid --word 'n=3: 1'",
        "op 2: exit 0 -> 0: gybe registry",
    ]
    assert same_output.differences(parent[:1] + parent[2:], change[:1] + change[2:]) == [1]


def test_every_differing_op_is_listed(monkeypatch, capsys):
    # Ops 0 and 2 differ, one in its stdout and one in its exit code; op 1
    # between them matches and is not listed.
    parent = [[0, "x\n"], [1, "none\n"], [0, ""]]
    change = [[0, "y\n"], [1, "none\n"], [2, ""]]
    _stub(monkeypatch, ARGVS, {"parent": parent, "change": change})
    assert same_output.main([]) == 1
    assert capsys.readouterr().out == (
        "3 ops compared\n"
        "2 op(s) differ:\n"
        "op 0: exit 0 -> 0: gybe equiv --solution a --solution b\n"
        "op 2: exit 0 -> 2: gybe registry\n"
    )
    assert same_output.differences(parent, change) == [0, 2]
    assert same_output.differences(parent, parent) == []


def test_the_ops_cover_every_pool_and_search_seed(tmp_path):
    argvs = same_output.ops(tmp_path)
    usage = len(same_output.USAGE_ERRORS)
    assert argvs[-usage:] == list(map(list, same_output.USAGE_ERRORS))
    for name in (same_output.STATE_4X4, same_output.ROWELL_X2, same_output.STATE_E0):
        assert (tmp_path / name).is_file()
    for name in (same_output.ROWELL_LEAKY_Y, same_output.ROWELL_NEAR, same_output.ROWELL_NEAR_MISS):
        assert (tmp_path / name).is_file()
    for name in (same_output.ROWELL_OVERFLOW, *same_output.GAUGE_IMAGES):
        assert (tmp_path / name).is_file()
    refused = list(map(list, same_output.REFUSED_INPUTS))
    assert len(refused) == 8 and all(a in argvs[-usage:] for a in refused)
    assert [a[0] for a in refused[-3:]] == ["verify", "verify", "braid"]
    assert all(a[2] == same_output.ROWELL_OVERFLOW for a in refused[-3:])
    assert (tmp_path / same_output.MATRIX_2X3).is_file()
    assert argvs[-2:] == [[cmd, "--matrix", same_output.MATRIX_2X3] for cmd in ("verify", "classify")]
    tol = [a for a in argvs[-usage:] if "--tol" in a and a not in [*same_output.CONFIG_ERRORS, *refused]]
    assert tol == [[*a, "--tol", t] for a in same_output.TOL_COMMANDS for t in ("nan", "-1", "inf")]
    assert argvs[-8:-2] == list(map(list, same_output.CONFIG_ERRORS))
    # Three equiv pools of 112 ops, twice with --json and twice in plain
    # text; two braid pools of 120, the 40
    # --json ops of the second again in text and its 40 --compare ops again
    # with --json; two verify pools of 192, each with its 32 classify ops
    # again in JSON and its 32 perturbed matrices classified twice; the
    # near-miss equiv three times, and each of two gauge images three times;
    # four family members by theta in text (three
    # at 0.7, one at a 17-digit theta), three by alpha and beta, in text and
    # JSON, and one alpha with a space after its comma; six xshape braids
    # and four compares under rowell·(1 + 4e-11);
    # four searches in JSON, four in text and four in text on the JSON
    # pattern, then two on each of four other patterns, one on the full
    # 16x16 pattern, then the benchmark's 16 search calls; and the 21 usage
    # errors of other gates, the 8 refused inputs, the tolerance gate's 15
    # and the 6 config errors.
    assert len(argvs) == (
        3 * 112 * 4 + 2 * 120 + 2 * 40 + 2 * (192 + 32 + 2 * 32) + 3 + 6 + 4 + 6 + 1 + 6 + 4 + 12 + 8 + 1 + 16
        + 21 + 8 + 15 + 6
    ) == 2357
    argvs, bench = argvs[: -usage - 16], argvs[-usage - 16 : -usage]
    assert bench == same_output.BENCH_SEARCHES == [
        ["search", "--pattern", "rowell.txt", "--signature", "2,3,1", "--restarts", "4", "--json", "--stats",
         "--seed", str(seed)]
        for seed in range(16)
    ]
    equiv = [a for a in argvs if a[0] == "equiv"]
    for k in range(3):
        as_json, plain = equiv[448 * k : 448 * k + 224], equiv[448 * k + 224 : 448 * (k + 1)]
        assert all(a[-1] == "--json" for a in as_json[0::2])
        assert as_json[1::2] == [a + ["--stats"] for a in as_json[0::2]]
        assert plain == [[v for v in a if v != "--json"] for a in as_json]
    assert equiv[3 * 448 : 3 * 448 + 3] == argvs[-51:-48] == same_output.NEAR_MISS_EQUIV
    assert equiv[3 * 448 + 3 :] == argvs[-48:-42] == same_output.GAUGE_IMAGE_EQUIV
    assert [a[7:] for a in equiv[3 * 448 :]] == [[], ["--stats"], ["--json", "--stats"]] * 3
    assert [a[2] for a in equiv[3 * 448 + 3 :]] == ["xshape"] * 3 + ["base3"] * 3
    braid = [a for a in argvs if a[0] == "braid"]
    assert braid[240:280] == [[v for v in a if v != "--json"] for a in braid[120:240] if "--json" in a]
    assert not any("--json" in a for a in braid[240:280])
    assert braid[280:320] == [a + ["--json"] for a in braid[120:240] if "--compare" in a]
    assert braid[320:326] == argvs[-31:-25] == same_output.XSHAPE_BRAIDS
    assert [a[a.index("--word") + 1][:4] for a in braid[320:326]] == ["n=3:", "n=3:", "n=4:", "n=4:", "n=3:", "n=4:"]
    assert braid[326:] == argvs[-25:-21] == same_output.NEAR_COMPARES
    assert [a[a.index("--compare") + 1 :] for a in braid[326:]] == [["n=3: "], ["n=3: ", "--json"]] + [
        ["n=4: "], ["n=4: ", "--json"]
    ]
    assert all(a[2] == same_output.ROWELL_NEAR for a in braid[326:])
    assert argvs[-42:-38] == [["family", "--family", k, "--theta", "0.7"] for k in "123"] + [
        ["family", "--family", "1", "--theta", "0.12345678901234568"]
    ]
    general = [["family", "--family", k, "--alpha", "0.6,0.8", "--beta", "0.28,-0.96"] for k in "123"]
    assert argvs[-38:-32] == [a + json for a in general for json in ([], ["--json"])]
    assert argvs[-32] == ["family", "--family", "1", "--alpha", "1, 0", "--beta", "0,1"]
    searches = [(same_output.PATTERN, ["--json"]), (same_output.PATTERN, []), (same_output.PATTERN_JSON, [])]
    assert argvs[-21:-9] == [
        ["search", "--pattern", pattern, "--signature", "2,3,1", *output, "--stats", "--seed", seed]
        for pattern, output in searches
        for seed in "0123"
    ]
    others = (("xshape.txt", "2,3,2"), ("full-4x4.txt", "2,2,1"), ("full-8x8.txt", "2,3,1"), ("full-9x9.txt", "3,2,1"))
    assert argvs[-9:-1] == [
        ["search", "--pattern", pattern, "--signature", signature, "--json", "--stats", "--seed", seed]
        for pattern, signature in others
        for seed in "01"
    ]
    assert argvs[-1] == same_output.SEARCH_16 == [
        "search", "--pattern", "full-16x16.txt", "--signature", "2,4,1", "--restarts", "2", "--json", "--stats",
        "--seed", "0",
    ]
    assert (tmp_path / "xshape.txt").read_text().splitlines()[::7] == ["10000001", "10000001"]
    for side in (4, 8, 9, 16):
        assert (tmp_path / f"full-{side}x{side}.txt").read_text() == ("1" * side + "\n") * side
    verify = argvs[3 * 112 * 4 + 2 * 120 + 2 * 40 : -51]
    for pool in (verify[:288], verify[288:]):
        ops, again, perturbed = pool[:192], pool[192:224], pool[224:]
        assert again == [a + ["--json"] for a in ops if a[0] == "classify"]
        matrices = [a[a.index("--matrix") + 1] for a in ops if "--matrix" in a]
        assert len(matrices) == 32 and all("perturbed-" in m for m in matrices)
        assert perturbed[0::2] == [["classify", "--matrix", m, "--json"] for m in matrices]
        assert perturbed[1::2] == [a + ["--tol", "1e-2"] for a in perturbed[0::2]]
    # Every input file an op names exists, in its own pool's directory.
    for argv in argvs:
        for flag in ("--state", "--matrix", "--pattern"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).is_file(), argv
    assert [a[-1] for a in argvs if a[0] == "search"] == list("0123") * 3 + list("01") * 4 + ["0"]


def test_a_side_runs_the_argv_in_the_given_checkout(tmp_path, capsys):
    argvs = [["registry", "--json"], ["verify", "--solution", "no-such-solution"]]
    (code, out), (bad, nothing) = same_output.run_side(_ROOT, tmp_path, argvs)
    assert cli.main(argvs[0]) == 0
    registry = capsys.readouterr().out
    assert '"rowell"' in registry
    assert code == 0 and out == same_output.stdout_digest(registry)
    assert bad == 2 and nothing == same_output.stdout_digest("")


def test_every_usage_error_exits_2_with_nothing_on_stdout(tmp_path):
    argvs = same_output.ops(tmp_path)[-len(same_output.USAGE_ERRORS):]
    empty = same_output.stdout_digest("")
    assert same_output.run_side(_ROOT, tmp_path, argvs) == [[2, empty]] * len(argvs)
