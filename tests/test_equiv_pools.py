"""Every op of the benchmark's equiv pools at seeds 801-806, decided in
process: each miss is ruled out by a gauge invariant at both prefixes before
any candidate is scored, and each hit still finds its witness.  The pools
come from ``perfbench/workloads.py``, which is only imported."""

import sys
from pathlib import Path

import pytest

from gybe.equivalence import decide_equivalence
from gybe.solutions import resolve_solution

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", range(801, 807))
def test_every_miss_is_refuted_and_every_hit_finds_its_witness(seed):
    ops = workloads.generate("equiv", seed).ops
    assert sum(op["hit"] for op in ops) == 64 and len(ops) == 112
    for op in ops:
        decision = decide_equivalence(resolve_solution(op["source"]), resolve_solution(op["target"]))
        prefixes = [(p.prefix, p.verdict, p.candidates) for p in decision.prefixes]
        if not op["hit"]:
            assert prefixes == [("direct", "none", 0), ("inverse", "none", 0)], op["argv"]
            assert all(p.invariant is not None for p in decision.prefixes), op["argv"]
        elif op["target"] == "rowell":
            # The zeta solution is reached only through the inverse.
            assert [p[:2] for p in prefixes] == [("direct", "none"), ("inverse", "witness")]
            assert decision.witness.ops[0].kind == "inverse"
        else:
            assert [p[:2] for p in prefixes] == [("direct", "witness")], op["argv"]
