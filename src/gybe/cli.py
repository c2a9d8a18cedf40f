"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``verify`` (equation
check), ``family`` (construct family members), ``classify`` (parameter
category of a block solution), ``equiv`` (gauge-equivalence witness
search), ``braid`` (braid-word evaluation), ``search`` (zero-pattern
solution search), and ``registry`` (named solutions).  Each makes one
library call and prints; argparse checks required and once-only inputs.

Exit codes: 0 success or check passed, 1 check failed or no witness found,
2 usage or input error, 141 (128 + SIGPIPE) when the reader closed stdout
early, as ``| head`` does.  ``--json`` switches from the human-readable
default to machine-readable JSON on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from . import linalg
from .core import CheckReport, GybeSignature, RMatrix, check_gybe
from .braiding import (
    StateVector,
    apply_to_state,
    build_rep,
    evaluate_word,
    parse_braid_word,
    word_difference,
)
from .equivalence import WITNESS_TOL, decide_equivalence
from .search import SearchConfig, load_pattern_text, solve_pattern
from .solutions import (
    CLASSIFY_TOL,
    block_parameters,
    classify_unitary_params,
    family_solution,
    general_solution,
    registry_ids,
    resolve_solution,
)

# The exit code a shell reports for a writer its reader left: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


def _json(data) -> str:
    """Strict JSON: a non-finite number raises instead of printing NaN."""
    return json.dumps(data, allow_nan=False)


def _comma_list(read, form: str, build):
    """An argparse ``type`` for a comma list in ``form``: each part, stripped
    as in a braid word, is read by ``read`` and the parts go to ``build``.
    A bad list is a usage error that names its option."""

    def parse(text: str):
        parts = [part.strip() for part in text.split(",")]
        try:
            if len(parts) != form.count(",") + 1:
                raise ValueError(f"expected '{form}', got {text!r}")
            return build(*map(read, parts))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_complex_pair = _comma_list(linalg.real, "re,im", complex)
_signature = _comma_list(linalg.integer, "d,m,l", GybeSignature)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _infer_signature(size: int) -> GybeSignature:
    m = int(round(math.log2(size)))
    if size < 2 or 2**m != size:
        raise ValueError(
            f"cannot infer a signature for side {size}; pass --signature d,m,l"
        )
    return GybeSignature(2, m, 1)


def _load_matrix_file(args) -> RMatrix:
    """The --matrix input, under --signature or else the (2, m, 1) its side implies.

    An assumed signature is noted on stderr and kept in
    ``args.assumed_signature`` for :func:`_report_json`.
    """
    mat = linalg.square_matrix(linalg.matrix_from_json(_read_text(args.matrix)), "R-matrix")
    sig = args.signature
    if sig is None:
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
    return resolve_solution(args.solution) if args.matrix is None else _load_matrix_file(args)


def _print_matrix(m: np.ndarray) -> None:
    print(linalg.matrix_to_text(m))


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
        r = general_solution(args.family, args.alpha, args.beta)
    else:
        raise ValueError("pass --theta <radians> or both --alpha and --beta")
    if args.json:
        print(linalg.matrix_to_json(r.matrix))
    else:
        print(r.label)
        _print_matrix(r.matrix)
    return 0


def cmd_classify(args) -> int:
    omega, gamma, delta = block_parameters(_load_rmatrix(args).matrix, args.tol)
    category = classify_unitary_params(omega, gamma, delta, args.tol)
    if args.json:
        params = {"omega": omega, "gamma": gamma, "delta": delta}
        print(_report_json(args, {"category": category, **{k: [v.real, v.imag] for k, v in params.items()}}))
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
    decision = decide_equivalence(source, target, tol=args.tol)
    witness = decision.witness
    if args.json:
        if args.stats:
            print(_report_json(args, decision.to_json_dict()))
        else:
            print(_json(None) if witness is None else _report_json(args, witness.to_json_dict()))
    else:
        if witness is None:
            print(decision.verdict)
        else:
            steps = ", ".join(op.kind for op in witness.ops)
            print(f"witness [{steps}] residual {witness.residual:.3e}")
        if args.stats:
            _print_equiv_stats(decision)
    return 1 if witness is None else 0


def _print_equiv_stats(decision) -> None:
    """The verdict, then one line per prefix tried: its verdict, the invariant
    that ruled it out or else the covariant that decided its general shape,
    and the candidates it scored."""
    print(f"verdict: {decision.verdict}, {decision.candidates} candidate(s) scored")
    for prefix in decision.prefixes:
        covariant, invariant = prefix.covariant, prefix.invariant
        if invariant is not None:
            how = (
                f"invariant {invariant.name} (degree {invariant.degree}) differs: "
                f"{invariant.source:.6g} against {invariant.target:.6g}"
            )
        elif covariant is not None:
            how = f"covariant {covariant.word} at site {covariant.site} ({covariant.kind})"
        else:
            how = "no covariant"
        print(f"{prefix.prefix}: {prefix.verdict}, {how}, {prefix.candidates} candidate(s)")


def cmd_braid(args) -> int:
    if args.compare is None and "tol" in getattr(args, "_given_once", ()):
        raise ValueError("--tol applies to --compare only")
    if args.matrix == "-" and args.state == "-":
        raise ValueError("--matrix and --state cannot both read stdin")
    r = _load_rmatrix(args)
    word = parse_braid_word(args.word)
    rep = build_rep(r, word.n)
    # An overflowing word fails its output's finiteness check; numpy need not warn too.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.compare is not None:
            diff = word_difference(rep, word, parse_braid_word(args.compare))
            if args.json:
                report = {"max_difference": diff, "tolerance": args.tol, "equal": diff <= args.tol}
                print(_report_json(args, report))
            else:
                print(f"max entry difference {diff:.3e}")
            return 0 if diff <= args.tol else 1
        if args.state is not None:
            state = StateVector(linalg.matrix_from_json(_read_text(args.state)))
            out = apply_to_state(rep, word, state)
            print(linalg.matrix_to_json(out.amplitudes.reshape(-1, 1)))
            return 0
        matrix = evaluate_word(rep, word)
        if args.json:
            print(linalg.matrix_to_json(matrix))
        else:
            _print_matrix(matrix)
        return 0


def cmd_search(args) -> int:
    pattern = load_pattern_text(_read_text(args.pattern))
    config = SearchConfig(tolerance=args.tol, restarts=args.restarts, seed=args.seed)
    result = solve_pattern(pattern, args.signature, config)
    if args.json:
        data = [found.to_json_dict() for found in result.solutions]
        if args.stats:
            data = {
                "solutions": data,
                "restarts": [report.to_json_dict() for report in result.restarts],
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
            f"{report.residual_evals} residual evaluation(s), {verdict}"
        )
    counts = result.dedup_counts
    for found in result.solutions:
        print(f"class of restart {found.restart_index}: {counts[found.dedup_key]} certified hit(s)")


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
        # One input: a registry id or a matrix file, exactly one of them.
        inputs = p.add_mutually_exclusive_group(required=True) if one_input else p
        inputs.add_argument("--solution", action=_Once if one_input else "append", help="registry solution id")
        inputs.add_argument("--matrix", action=_Once, help="matrix JSON file, or - for stdin")
        p.add_argument("--signature", action=_Once, type=_signature, help="equation signature d,m,l")
        p.add_argument("--tol", action=_Once, type=linalg.real, default=tol, help="tolerance")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="check a solution against its equation")
    add_common(p, linalg.DEFAULT_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="construct a family member")
    p.add_argument("--family", action=_Once, type=linalg.integer, required=True, choices=(1, 2, 3))
    p.add_argument("--theta", action=_Once, type=linalg.real, default=None, help="angle in radians")
    p.add_argument("--alpha", action=_Once, type=_complex_pair, help="re,im on the unit circle")
    p.add_argument("--beta", action=_Once, type=_complex_pair, help="re,im on the unit circle")
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
        help="also report the verdict (witness, none or undecided), the invariant or "
        "covariant that decided each prefix and the candidates scored; with --json the output becomes "
        "an object with verdict, witness, candidates and prefixes",
    )
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("braid", help="evaluate braid words in a representation")
    add_common(p, linalg.DEFAULT_TOL)
    p.add_argument("--word", action=_Once, required=True, help="braid word, e.g. 'n=4: 1,2,-1,3'")
    outputs = p.add_mutually_exclusive_group()
    outputs.add_argument("--compare", action=_Once, help="second braid word to compare against")
    outputs.add_argument("--state", action=_Once, help="state vector JSON file, or - for stdin")
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("search", help="solve a zero pattern numerically")
    p.add_argument("--pattern", action=_Once, required=True, help="pattern file (0/1 grid or JSON), or -")
    p.add_argument("--signature", action=_Once, type=_signature, required=True, help="equation signature d,m,l")
    p.add_argument("--restarts", action=_Once, type=linalg.integer, default=SearchConfig.restarts)
    p.add_argument("--seed", action=_Once, type=linalg.integer, default=SearchConfig.seed)
    p.add_argument("--tol", action=_Once, type=linalg.real, default=SearchConfig.tolerance)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first :func:`main` call; it keeps no per-call state."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        linalg.tolerance(getattr(args, "tol", 0.0), "--tol")
        if "matrix" in vars(args) and args.signature is not None and not args.matrix:
            raise ValueError("--signature applies to --matrix input only")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # Not an input error: the reader has all it wanted.  Whatever is
        # still buffered goes to devnull, so the final flush at exit is silent.
        with contextlib.suppress(OSError, ValueError):  # stdout without a descriptor
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # malformed input must not crash the process
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
