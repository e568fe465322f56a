"""The benchmark's tracer wraps spl functions by name; keep those names alive."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    # exec the source instead of importing it, so nothing is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_targets_are_spl_callables():
    tracer = load_tracer()
    missing = [
        f"spl.{layer}.{name}"
        for layer, names in tracer.SPL_TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"spl.{layer}"), name, None))
    ]
    assert not missing, f"perfbench/tracer.py wraps missing functions: {missing}"
