"""The benchmark's tracer wraps package functions by name; a refactor that
renames or removes one of them makes every traced run report a missing
lookup.  This test reads ``perfbench/tracing.py`` and checks each name."""

import functools
import importlib
import importlib.util
from pathlib import Path

from lcmteval.pipeline import PipelineState

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def test_module_span_lookups_resolve():
    missing = [
        f"{module_name}.{attr}"
        for lookups in tracing.MODULE_SPANS.values()
        for module_name, attr in lookups
        if not callable(
            getattr(importlib.import_module(f"lcmteval.{module_name}"), attr, None)
        )
    ]
    assert missing == []


def test_stage_span_lookups_resolve():
    missing = [
        attr
        for attr in tracing.STAGE_SPANS.values()
        if not (
            isinstance(PipelineState.__dict__.get(attr), functools.cached_property)
            or callable(PipelineState.__dict__.get(attr))
        )
    ]
    assert missing == []
