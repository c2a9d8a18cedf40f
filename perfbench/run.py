"""Benchmark of the gybe library and CLI: four seeded workloads, one client.

    python3 perfbench/run.py --workload {search,equiv,braid,verify} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory and nowhere else, so a checkout without it
exits with code 2 and prints no result.

Each run is a closed loop with one client: the next op is issued when the
previous one returns.  A run issues a fixed number of whole cycles of op
kinds, sized so that they take about ``--seconds`` of busy time on a 2-core
Xeon, so at one seed it runs the same ops however fast the host is that
minute.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs
the same ops under the span tracer, so every count it reports repeats
exactly at one seed, and reports the per-layer metrics.  Every output is
checked by
:mod:`checker` right after its op, outside the timed region; the last
stdout line is the result object, the line before it the full report
(environment, extra metrics, problems).
"""

from __future__ import annotations

import os
import sys

# Cap BLAS threads at the cores this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    try:
        _requested = int(os.environ.get(_var, NPROC))
    except ValueError:
        _requested = NPROC
    os.environ[_var] = str(max(1, min(_requested, NPROC)))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
# Set-up probes per run, spread evenly over the run's ops.
SETUP_PROBES = 9
# Busy seconds of one cycle on a 2-core Xeon; sizes every run (see ops_in_run).
NOMINAL_CYCLE_S = {"search": 20.0, "equiv": 6.5, "braid": 4.6, "verify": 0.025}
TAIL_BEYOND = 10
TRACE_UNITS = {"trace.ops": "count", "trace.busy_s": "s", "trace.ops_per_s": "1/s", "trace.spans": "count"}
E2E_UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import ``gybe`` from this checkout's ``src``; never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gybe" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {src / 'gybe'} is missing")
    sys.path.insert(0, str(src))
    gybe = importlib.import_module("gybe")
    if Path(gybe.__file__).resolve().parent != (src / "gybe").resolve():
        raise ProgramMissing(f"gybe was imported from {gybe.__file__}, not from {src}")
    for name in ("cli", "core", "search"):
        importlib.import_module(f"gybe.{name}")
    return gybe


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, generate the inputs and write their files."""
    gybe = import_program()
    inputs = workloads.generate(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return gybe, inputs


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its exit right after
    set-up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        timeout=120,
        check=True,
    )
    return time.perf_counter() - start


@dataclass
class Record:
    """One op as measured and checked; its output is not kept, so memory
    does not grow with the number of ops a run gets through."""

    op: dict
    seconds: float
    problems: list
    restarts: int = 0
    certified: int = 0
    steps: int = 0


def measure(runner, inputs, op) -> Record:
    """Time one op, then check its output outside the timed region."""
    prepared = runner.prepare(op)
    start = time.perf_counter()
    try:
        outcome = runner.run(op, prepared)
    except Exception as exc:  # a raising op is a failed op, not a crash
        outcome = workloads.Outcome(code=-1, error=f"raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    try:
        problems = workloads.check(op, outcome, inputs)
    except Exception as exc:  # unparsable output is a wrong output
        problems = [f"checker could not read the output: {type(exc).__name__}: {exc}"]
    record = Record(op, elapsed, problems)
    if outcome.result is not None:
        record.restarts = len(outcome.result.traces)
        record.certified = sum(outcome.result.dedup_counts.values())
        record.steps = sum(len(t) - 1 for t in outcome.result.traces)
    return record


def ops_in_run(inputs, seconds, workload) -> int:
    """Ops in the whole cycles that take about ``seconds`` of busy time on a
    2-core Xeon.

    The count does not depend on how fast the host runs: a run that stopped
    on a clock would measure fewer and other cycles on a slow minute, and
    cycles differ in cost.
    """
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload])) * inputs.cycle_len


def run_ops(runner, inputs, ops_limit, between_ops=None) -> list[Record]:
    """Closed loop over the op pool for ``ops_limit`` ops.

    ``between_ops(done)``, if given, is called before each op with the
    number of ops done, outside the timed region.
    """
    records = []
    while len(records) < ops_limit:
        if between_ops is not None:
            between_ops(len(records))
        records.append(measure(runner, inputs, inputs.ops[len(records) % len(inputs.ops)]))
    return records


def end_to_end(records, setup_samples, peak_rss_mb):
    """End-to-end metrics, plus the extra figures kept in the report.

    Throughput is every op of the run over their summed time.  The run's ops
    are fixed at one seed, so the plain total weighs the same work every
    time; a mean over a chosen part of the cycles varied more, because
    cycles differ in cost and which ones it kept moved with the host.
    """
    times = [r.seconds for r in records]
    busy = sum(times)
    metrics = {
        "ops_per_s": len(records) / busy,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    }
    extra = {
        "ops": len(records),
        "busy_s": busy,
        "op_p50_s": statistics.median(times),
        "setup_samples_s": setup_samples,
    }
    if len(times) > TAIL_BEYOND:
        ordered = sorted(times)
        extra["op_tail_s"] = {
            "value": ordered[len(ordered) - TAIL_BEYOND - 1],
            "percentile": 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered),
            "samples": len(ordered),
        }
    else:
        extra["op_tail_s"] = {"value": None, "reason": f"{len(times)} ops; a tail needs more than {TAIL_BEYOND}"}
    if any(r.op["kind"] == "search" for r in records):
        extra["restarts_per_s"] = sum(r.restarts for r in records) / busy
        extra["certified_per_s"] = sum(r.certified for r in records) / busy
        extra["steps_per_s"] = sum(r.steps for r in records) / busy
    return metrics, extra


def traced(runner, inputs, seconds, workload):
    with tracing.Tracer() as tr:
        records = run_ops(runner, inputs, ops_in_run(inputs, seconds, workload))
    busy = sum(r.seconds for r in records)
    metrics = tr.layer_metrics()
    metrics.update(
        {
            "trace.ops": len(records),
            "trace.busy_s": busy,
            "trace.ops_per_s": len(records) / busy,
            "trace.spans": len(tr.spans) + tr.dropped,
        }
    )
    return records, metrics, tr


def environment(seed: int) -> dict:
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # the config layout differs across numpy versions
        return {"name": "unknown", "version": "unknown"}


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None where it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, workdir)
            return 0
        gybe, inputs = set_up(args.workload, args.seed, workdir)
        runner = workloads.Runner(gybe, workdir)
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            records, metrics, tr = traced(runner, inputs, args.seconds, args.workload)
            units = TRACE_UNITS | tracing.metric_units()
            report["absent"] = tr.absent
            WORK_DIR.mkdir(exist_ok=True)
            spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tr.dump()), encoding="utf-8")
            report["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            # Probes run between ops, so the set-up median samples the
            # host's speed over the same stretch of time as the ops.
            setup_samples = []
            total = ops_in_run(inputs, args.seconds, args.workload)

            def probe_when_due(done):
                if len(setup_samples) < SETUP_PROBES and done >= len(setup_samples) * total / SETUP_PROBES:
                    setup_samples.append(probe_setup(args.workload, args.seed))

            records = run_ops(runner, inputs, total, between_ops=probe_when_due)
            while len(setup_samples) < SETUP_PROBES:
                setup_samples.append(probe_setup(args.workload, args.seed))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, extra = end_to_end(records, setup_samples, peak_rss_mb)
            units = E2E_UNITS
            report.update(extra)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [{"op": {k: v for k, v in r.op.items() if k != "argv"}, "problems": r.problems} for r in records if r.problems]
    report.update(environment=environment(args.seed), problems=failed[:5])
    print(json.dumps({"report": report}))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
