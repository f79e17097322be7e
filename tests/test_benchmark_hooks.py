"""The benchmark's tracer wraps fgr module attributes by name."""

import importlib.util
import os
import sys

TRACING = os.path.join(os.path.dirname(__file__), "..", "benchmark", "tracing.py")


def test_layer_targets_resolve(monkeypatch):
    # a refactor that drops or renames a wrapped name would crash the
    # benchmark's traced runs and its determinism check
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    for module, attr, name, _ in tracing.LAYER_TARGETS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)
