"""Every trace point of the benchmark's span tracer names a live ottr object.

The tracer reports a layer whose name it cannot find as absent, and its
per-layer metrics turn into null; a rename or a removal in ottr would pass
unseen.  So each ``module.attr[.method]`` of ``bench/spans.py``'s ``LAYERS``
must resolve the way the tracer looks it up: a method in the class's own
namespace.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", LAYERS, ids=[layer.metric for layer in LAYERS])
def test_trace_point_resolves(layer):
    target = getattr(importlib.import_module(layer.module), layer.attr, None)
    assert callable(target), f"{layer.module}.{layer.attr} is gone"
    if layer.method is not None:
        assert callable(vars(target).get(layer.method)), (
            f"{layer.module}.{layer.attr} has no own {layer.method}")
