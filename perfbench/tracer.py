"""Spans around the public functions of each layer, installed from outside.

The tracer never edits the program.  Each target is looked up by module
attribute when tracing starts; the wrapper passes arguments and results
through unchanged and is installed in every ``gybe`` module that holds the
same function object (``from .core import gybe_residual`` makes a second
binding), then removed again.  A target that no longer exists is recorded
as absent with the reason instead of failing the run.

A span is (id, name, start, end, parent id).  Spans stay in memory and are
written out when the run ends; per-name call counts, total time and self
time (total minus the time of wrapped children) are kept exactly even
when the stored span list is capped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  Layers are the package's modules.
TARGETS = (
    ("linalg.kron", "gybe.linalg", "kron"),
    ("linalg.kron_all", "gybe.linalg", "kron_all"),
    ("linalg.kron_power", "gybe.linalg", "kron_power"),
    ("linalg.inverse", "gybe.linalg", "inverse"),
    ("linalg.eigenvalues", "gybe.linalg", "eigenvalues"),
    ("linalg.unitarity_residual", "gybe.linalg", "unitarity_residual"),
    ("linalg.matrix_to_json_dict", "gybe.linalg", "matrix_to_json_dict"),
    ("linalg.matrix_from_json_dict", "gybe.linalg", "matrix_from_json_dict"),
    ("core.gybe_residual", "gybe.core", "gybe_residual"),
    ("core.check_far_commutativity", "gybe.core", "check_far_commutativity"),
    ("core.braid_generator_matrix", "gybe.core", "braid_generator_matrix"),
    ("solutions.resolve_solution", "gybe.solutions", "resolve_solution"),
    ("optimize.damped_least_squares", "gybe.optimize", "damped_least_squares"),
    ("search.solve_pattern", "gybe.search", "solve_pattern"),
    ("search.dedup_key", "gybe.search", "dedup_key"),
    ("equivalence.search_equivalence", "gybe.equivalence", "search_equivalence"),
    ("braiding.build_rep", "gybe.braiding", "build_rep"),
    ("braiding.evaluate_word", "gybe.braiding", "evaluate_word"),
    ("braiding.apply_to_state", "gybe.braiding", "apply_to_state"),
    ("cli.main", "gybe.cli", "main"),
    ("cli.build_parser", "gybe.cli", "build_parser"),
)

RESIDUAL = "optimize.residual"
SOLVER = "optimize.damped_least_squares"
CERTIFY = ("core.gybe_residual", "linalg.unitarity_residual")
# Targets whose spans have wrapped children, so self time differs from time.
SELF_TIME = (
    "linalg.kron_power",
    "core.gybe_residual",
    "core.check_far_commutativity",
    "solutions.resolve_solution",
    "search.solve_pattern",
    "equivalence.search_equivalence",
    "braiding.build_rep",
    "cli.main",
)
SPAN_CAP = 100_000

DERIVED_UNITS = {
    "optimize.solves": "count",
    "optimize.s": "s",
    "optimize.self_s": "s",
    "optimize.iterations": "count",
    "optimize.residual_evals": "count",
    "optimize.residual_evals_per_iter": "evals/iter",
    "optimize.residual_s": "s",
    "optimize.accept_ratio": "ratio",
    "optimize.converged_ratio": "ratio",
    "optimize.budget_exhausted_ratio": "ratio",
    "search.certify_s": "s",
    "search.restarts": "count",
    "search.yield": "ratio",
    "search.classes": "count",
    "equivalence.witness_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit, in order."""
    units = {}
    for name, _, _ in TARGETS:
        if name == SOLVER:
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if name in SELF_TIME:
            units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 0
        self._installed: list[tuple] = []  # (module, attribute, original)

    # --- spans -------------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            st = self.stats[name]
            st[0] += 1
            st[1] += duration
            st[2] += duration - frame[3]
            if parent is not None:
                parent[3] += duration
            if name in CERTIFY and self._within("search.solve_pattern", outside=SOLVER):
                self.counters["search.certify_s"] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[0], name, frame[2], end, parent[0] if parent else None))
            else:
                self.dropped += 1

    def _within(self, name: str, outside: str) -> bool:
        names = [f[1] for f in self._stack]
        return name in names and outside not in names

    def _wrap(self, name, fn):
        special = {
            SOLVER: self._solver_call,
            "search.solve_pattern": self._search_call,
            "equivalence.search_equivalence": self._equivalence_call,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if special is not None:
                return special(name, fn, args, kwargs)
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _solver_call(self, name, fn, args, kwargs):
        """Wrap the residual callback too, then read the solver's own report."""
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        first = next(iter(bound.arguments))
        residual_fn = bound.arguments[first]
        if callable(residual_fn):

            @functools.wraps(residual_fn)
            def traced_residual(*a, **kw):
                return self._call(RESIDUAL, residual_fn, a, kw)

            bound.arguments[first] = traced_residual
        result = self._call(name, fn, bound.args, bound.kwargs)
        iterations = int(getattr(result, "iterations", 0))
        trace = getattr(result, "trace", ())
        converged = bool(getattr(result, "converged", False))
        budget = bound.arguments.get("max_iterations")
        c = self.counters
        c["optimize.iterations"] += iterations
        c["optimize.accepted"] += max(0, len(trace) - 1)
        c["optimize.converged"] += converged
        c["optimize.budget_exhausted"] += (not converged) and budget is not None and iterations >= budget
        return result

    def _search_call(self, name, fn, args, kwargs):
        result = self._call(name, fn, args, kwargs)
        counts = getattr(result, "dedup_counts", {}) or {}
        self.counters["search.restarts"] += len(getattr(result, "traces", ()))
        self.counters["search.certified"] += sum(counts.values())
        self.counters["search.classes"] += len(getattr(result, "solutions", ()))
        return result

    def _equivalence_call(self, name, fn, args, kwargs):
        result = self._call(name, fn, args, kwargs)
        self.counters["equivalence.witnesses"] += result is not None
        return result

    # --- installation --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "gybe" or k.startswith("gybe.")]
        for name, module_name, attr in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.absent[name] = f"module {module_name} not importable: {exc}"
                continue
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.absent[name] = f"{module_name}.{attr} not found"
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in BENCHMARK.json; 0 where nothing ran."""
        out: dict[str, float] = {}
        for name, _, _ in self.targets:
            calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        c = self.counters
        solves, solver_s, solver_self_s = self.stats.get(SOLVER, (0, 0.0, 0.0))
        evals, residual_s, _ = self.stats.get(RESIDUAL, (0, 0.0, 0.0))
        iterations = c["optimize.iterations"]
        restarts = c["search.restarts"]
        searches = self.stats.get("equivalence.search_equivalence", (0, 0.0, 0.0))[0]
        out.update(
            {
                "optimize.solves": solves,
                "optimize.s": solver_s,
                "optimize.self_s": solver_self_s,
                "optimize.iterations": iterations,
                "optimize.residual_evals": evals,
                "optimize.residual_evals_per_iter": _ratio(evals, iterations),
                "optimize.residual_s": residual_s,
                "optimize.accept_ratio": _ratio(c["optimize.accepted"], iterations),
                "optimize.converged_ratio": _ratio(c["optimize.converged"], solves),
                "optimize.budget_exhausted_ratio": _ratio(c["optimize.budget_exhausted"], solves),
                "search.certify_s": c["search.certify_s"],
                "search.restarts": restarts,
                "search.yield": _ratio(c["search.certified"], restarts),
                "search.classes": c["search.classes"],
                "equivalence.witness_ratio": _ratio(c["equivalence.witnesses"], searches),
            }
        )
        return {name: out[name] for name in metric_units() if name in out}

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "spans_dropped": self.dropped,
            "absent": self.absent,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
