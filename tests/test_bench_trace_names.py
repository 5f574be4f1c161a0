"""The benchmark's traced run wraps package names from outside; a renamed
function would only fail there. This checks every wrapped name resolves."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    pipeline = importlib.import_module("pipeline")
    patches = pipeline.trace_patches()
    assert patches
    for module, attr, span, _ in patches:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {span})"
