"""The benchmark's tracer wraps library functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def test_every_tracer_target_is_a_callable_in_gybe():
    missing = [
        span
        for span, module, attr in tracer.TARGETS
        if not module.startswith("gybe.")
        or not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracer.TARGETS and missing == []
