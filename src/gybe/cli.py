"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``verify`` (equation
check), ``family`` (construct family members), ``classify`` (parameter
category of a block solution), ``equiv`` (gauge-equivalence witness
search), ``braid`` (braid-word evaluation), ``search`` (zero-pattern
solution search), and ``registry`` (named solutions).

Exit codes: 0 success or check passed, 1 check failed or no witness found,
2 usage or input error.  ``--json`` switches from the human-readable
default to machine-readable JSON on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import Counter

import numpy as np

from . import linalg
from .core import CheckReport, GybeSignature, RMatrix, check_gybe
from .braiding import StateVector, apply_to_state, build_rep, evaluate_word, parse_braid_word
from .equivalence import WITNESS_TOL, decide_equivalence, search_equivalence
from .search import SearchConfig, load_pattern_text, solve_pattern
from .solutions import (
    CLASSIFY_TOL,
    SQRT2,
    classify_unitary_params,
    family_solution,
    general_solution,
    registry_ids,
    resolve_solution,
    split_blocks,
)


def _json(data) -> str:
    """Strict JSON: a non-finite number raises instead of printing NaN."""
    return json.dumps(data, allow_nan=False)


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_signature(text: str) -> GybeSignature:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'd,m,l', got {text!r}")
    return GybeSignature(int(parts[0]), int(parts[1]), int(parts[2]))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _infer_signature(size: int) -> GybeSignature:
    m = int(round(math.log2(size)))
    if 2**m != size:
        raise ValueError(
            f"cannot infer a signature for side {size}; pass --signature d,m,l"
        )
    return GybeSignature(2, m, 1)


def _load_matrix_file(args) -> RMatrix:
    """The --matrix input, under --signature or else the (2, m, 1) its side implies.

    An assumed signature is noted on stderr and kept in
    ``args.assumed_signature`` for :func:`_report_json`.
    """
    mat = linalg.matrix_from_json(_read_text(args.matrix))
    if args.signature:
        sig = _parse_signature(args.signature)
    else:
        sig = _infer_signature(mat.shape[0])
        args.assumed_signature = sig
        print(
            f"signature {sig} assumed for the {mat.shape[0]}x{mat.shape[0]} matrix; "
            "pass --signature d,m,l to choose another",
            file=sys.stderr,
        )
    return RMatrix(sig, mat, f"file:{args.matrix}")


def _report_json(args, data: dict) -> str:
    """A JSON report, with the signature assumed for --matrix input as ``signature``."""
    assumed = getattr(args, "assumed_signature", None)
    return _json(data if assumed is None else {**data, "signature": str(assumed)})


def _load_rmatrix(args) -> RMatrix:
    if args.solution:
        if len(args.solution) > 1:
            raise ValueError(f"pass one --solution, got {len(args.solution)}")
        return resolve_solution(args.solution[0])
    if args.matrix:
        return _load_matrix_file(args)
    raise ValueError("pass --solution <id> or --matrix <path|->")


def _text_entry(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}i"


def _print_matrix(m: np.ndarray) -> None:
    for row in linalg.format_entries(m, _text_entry).tolist():
        print("  ".join(row))


def _emit_report(report: CheckReport, args) -> int:
    if args.json:
        print(_report_json(args, report.to_json_dict()))
    else:
        verdict = "passed" if report.passed else "FAILED"
        extra = " (vacuous)" if report.vacuous else ""
        print(
            f"{verdict}{extra}: residual {report.residual:.3e} "
            f"at tolerance {report.tolerance:g}"
        )
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    r = _load_rmatrix(args)
    return _emit_report(check_gybe(r, args.tol), args)


def cmd_family(args) -> int:
    if args.theta is not None and (args.alpha is not None or args.beta is not None):
        raise ValueError("pass --theta or --alpha and --beta, not both")
    if args.theta is not None:
        r = family_solution(args.family, args.theta)
    elif args.alpha is not None and args.beta is not None:
        r = general_solution(
            args.family, _parse_complex_pair(args.alpha), _parse_complex_pair(args.beta)
        )
    else:
        raise ValueError("pass --theta <radians> or both --alpha and --beta")
    if args.json:
        print(linalg.matrix_to_json(r.matrix))
    else:
        print(r.label)
        _print_matrix(r.matrix)
    return 0


def cmd_classify(args) -> int:
    r = _load_rmatrix(args)
    if r.size != 8:
        raise ValueError("classification applies to 8x8 block solutions")
    m = r.matrix
    off_quadrants = max(linalg.max_abs(m[:4, 4:]), linalg.max_abs(m[4:, :4]))
    if off_quadrants > args.tol:
        raise ValueError(
            f"not in block-solution form: the off-diagonal 4x4 quadrants reach "
            f"{off_quadrants:.3e}, above tolerance {args.tol:g}"
        )
    x, _ = split_blocks(m)
    # Entry (i, j) of X lies off the diagonal of its 2x2 sub-block iff i + j is odd.
    off_sub_blocks = linalg.max_abs(x[np.add.outer(np.arange(4), np.arange(4)) % 2 == 1])
    if off_sub_blocks > args.tol:
        raise ValueError(
            f"not in block-solution form: the 2x2 sub-blocks of X are not diagonal "
            f"(off-diagonal entries reach {off_sub_blocks:.3e}, above tolerance {args.tol:g})"
        )
    corner = SQRT2 * x[0, 0]
    if abs(corner) < 1e-9:
        raise ValueError("top-left entry is zero; not in block-solution form")
    scale = 1.0 / corner
    omega = SQRT2 * scale * x[1, 1]
    gamma = SQRT2 * scale * x[2, 2]
    delta = SQRT2 * scale * x[3, 3]
    category = classify_unitary_params(omega, gamma, delta, args.tol)
    if args.json:
        print(
            _report_json(
                args,
                {
                    "category": category,
                    "omega": [omega.real, omega.imag],
                    "gamma": [gamma.real, gamma.imag],
                    "delta": [delta.real, delta.imag],
                },
            )
        )
    else:
        print(category)
    return 0


def cmd_equiv(args) -> int:
    ids = args.solution or []
    if len(ids) == 2 and not args.matrix:
        source, target = resolve_solution(ids[0]), resolve_solution(ids[1])
    elif len(ids) == 1 and args.matrix:
        source = resolve_solution(ids[0])
        target = _load_matrix_file(args)
    else:
        raise ValueError(
            "pass two --solution ids, or one --solution and a --matrix target"
        )
    if args.stats:
        decision = decide_equivalence(source, target, tol=args.tol)
        witness = decision.witness
    else:
        witness = search_equivalence(source, target, tol=args.tol)
    if args.json:
        if args.stats:
            print(_report_json(args, decision.to_json_dict()))
        else:
            print(_json(None) if witness is None else _report_json(args, witness.to_json_dict()))
    else:
        if witness is None:
            print("none")
        else:
            steps = ", ".join(op.kind for op in witness.ops)
            print(f"witness [{steps}] residual {witness.residual:.3e}")
        if args.stats:
            _print_equiv_stats(decision)
    return 1 if witness is None else 0


def _print_equiv_stats(decision) -> None:
    """The verdict, then one line per prefix tried: its verdict, the covariant
    that decided its general shape, and the candidates it scored."""
    print(f"verdict: {decision.verdict}, {decision.candidates} candidate(s) scored")
    for prefix in decision.prefixes:
        covariant = prefix.covariant
        how = (
            "no covariant"
            if covariant is None
            else f"covariant {covariant.word} at site {covariant.site} ({covariant.kind})"
        )
        print(f"{prefix.prefix}: {prefix.verdict}, {how}, {prefix.candidates} candidate(s)")


def cmd_braid(args) -> int:
    if not args.word:
        raise ValueError("pass --word 'n=<strands>: i1,i2,...'")
    r = _load_rmatrix(args)
    word = parse_braid_word(args.word)
    rep = build_rep(r, word.n)
    if args.compare is not None:
        other = parse_braid_word(args.compare)
        diff = linalg.max_abs_diff(evaluate_word(rep, word), evaluate_word(rep, other))
        if args.json:
            report = {"max_difference": diff, "tolerance": args.tol, "equal": diff <= args.tol}
            print(_report_json(args, report))
        else:
            print(f"max entry difference {diff:.3e}")
        return 0 if diff <= args.tol else 1
    if args.state is not None:
        amps = linalg.matrix_from_json(_read_text(args.state)).reshape(-1)
        out = apply_to_state(rep, word, StateVector(amps))
        print(linalg.matrix_to_json(out.amplitudes.reshape(-1, 1)))
        return 0
    matrix = evaluate_word(rep, word)
    if args.json:
        print(linalg.matrix_to_json(matrix))
    else:
        _print_matrix(matrix)
    return 0


def cmd_search(args) -> int:
    if not args.pattern:
        raise ValueError("pass --pattern <path|->")
    if not args.signature:
        raise ValueError("pass --signature d,m,l")
    pattern = load_pattern_text(_read_text(args.pattern))
    signature = _parse_signature(args.signature)
    config = SearchConfig(tolerance=args.tol, restarts=args.restarts, seed=args.seed)
    result = solve_pattern(pattern, signature, config)
    if args.json:
        data = result.to_json_list()
        if args.stats:
            data = {
                "solutions": data,
                "restarts": [dataclasses.asdict(report) for report in result.restarts],
                "dedup_counts": result.dedup_counts,
                "residual_rows": {
                    "live": result.live_residual_rows,
                    "total": result.total_residual_rows,
                },
            }
        print(_json(data))
    else:
        print(
            f"{len(result.solutions)} solution class(es); "
            f"best objective {result.best_objective:.3e}"
        )
        reasons = Counter(report.reason for report in result.restarts)
        print("restarts: " + ", ".join(f"{n} {reason}" for reason, n in reasons.items()))
        for found in result.solutions:
            print(f"  restart {found.restart_index}: residual {found.residual:.3e}")
        if args.stats:
            _print_search_stats(result)
    return 0


def _print_search_stats(result) -> None:
    """The residual rows solved on, one line per restart, then the certified
    hits in each solution class."""
    print(
        f"residual rows: {result.live_residual_rows} live of {result.total_residual_rows}"
    )
    for index, report in enumerate(result.restarts):
        verdict = "certified" if report.certified else "not certified"
        print(
            f"restart {index}: {report.reason} after {report.iterations} iteration(s), "
            f"{report.residual_evals} residual and {report.jacobian_evals} Jacobian "
            f"evaluation(s), {verdict}"
        )
    for found in result.solutions:
        print(
            f"class of restart {found.restart_index}: "
            f"{result.dedup_counts[found.dedup_key]} certified hit(s)"
        )


def cmd_registry(args) -> int:
    entries = []
    for name in registry_ids():
        r = resolve_solution(name)
        entries.append({"id": name, "signature": str(r.signature), "size": r.size})
    if args.json:
        print(_json(entries))
    else:
        for e in entries:
            print(f"{e['id']:8s} {e['signature']} {e['size']}x{e['size']}")
        print("parametric: family<k>:theta=<rad>, family<k>:alpha=<re>,<im>:beta=<re>,<im>")
    return 0


class _Once(argparse.Action):
    """``store``, except that giving the option a second time is a usage error
    instead of a silent overwrite of the first value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = namespace.__dict__.setdefault("_given_once", set())
        if self.dest in given:
            parser.error(f"argument {option_string}: given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gybe",
        description="Construct, verify, classify, and search unitary solutions "
        "of generalized Yang-Baxter equations, and evaluate the braiding "
        "circuits they afford.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol: float, one_input: bool = True):
        # One input: a registry id or a matrix file, never both.
        inputs = p.add_mutually_exclusive_group() if one_input else p
        inputs.add_argument("--solution", action="append", help="registry solution id")
        inputs.add_argument("--matrix", action=_Once, help="matrix JSON file, or - for stdin")
        p.add_argument("--signature", action=_Once, help="equation signature d,m,l")
        p.add_argument("--tol", action=_Once, type=float, default=tol, help="tolerance")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="check a solution against its equation")
    add_common(p, linalg.DEFAULT_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="construct a family member")
    p.add_argument("--family", action=_Once, type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--theta", action=_Once, type=float, default=None, help="angle in radians")
    p.add_argument("--alpha", action=_Once, default=None, help="re,im on the unit circle")
    p.add_argument("--beta", action=_Once, default=None, help="re,im on the unit circle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("classify", help="parameter category of a block solution")
    add_common(p, CLASSIFY_TOL)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("equiv", help="search for a gauge-equivalence witness")
    add_common(p, WITNESS_TOL, one_input=False)
    p.add_argument(
        "--stats",
        action="store_true",
        help="also report the verdict (witness, none or undecided), the covariant that "
        "decided each prefix and the candidates scored; with --json the output becomes "
        "an object with verdict, witness, candidates and prefixes",
    )
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("braid", help="evaluate braid words in a representation")
    add_common(p, linalg.DEFAULT_TOL)
    p.add_argument("--word", action=_Once, help="braid word, e.g. 'n=4: 1,2,-1,3'")
    outputs = p.add_mutually_exclusive_group()
    outputs.add_argument("--compare", action=_Once, help="second braid word to compare against")
    outputs.add_argument("--state", action=_Once, help="state vector JSON file, or - for stdin")
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("search", help="solve a zero pattern numerically")
    p.add_argument("--pattern", action=_Once, help="pattern file (0/1 grid or JSON), or -")
    p.add_argument("--signature", action=_Once, help="equation signature d,m,l")
    p.add_argument("--restarts", action=_Once, type=int, default=SearchConfig.restarts)
    p.add_argument("--seed", action=_Once, type=int, default=SearchConfig.seed)
    p.add_argument("--tol", action=_Once, type=float, default=SearchConfig.tolerance)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--stats",
        action="store_true",
        help="also report each restart's solver stats and the hits per class; "
        "with --json the output becomes an object with solutions, restarts and dedup_counts",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("registry", help="list named solutions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_registry)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        tol = getattr(args, "tol", 0.0)
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"--tol must be a finite non-negative number, got {tol}")
        return args.func(args)
    except Exception as exc:  # malformed input must not crash the process
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
