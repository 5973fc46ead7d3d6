"""The benchmark's trace points name attributes the package still has.

``bench/spans.py`` wraps module attributes by name; a renamed or deleted one
makes every traced benchmark run fail.  This loads the module without
installing a tracer and checks each name.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_point_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.TRACE_POINTS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.TRACE_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
