"""The benchmark's trace points name attributes the package still has.

``bench/spans.py`` wraps module attributes by name; a renamed or deleted one
makes every traced benchmark run fail.  This loads the module, checks each
name, and runs a small traced sweep.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bbp_secrecy import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves(spans):
    assert spans.TRACE_POINTS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.TRACE_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_traced_sweep_records_every_bound_grid_layer(spans, tmp_path, capsys):
    # The bound_grid workload's layer metrics divide by these spans' calls
    # and raise KeyError when one records none.
    out_csv = tmp_path / "g.csv"
    tracer = spans.Tracer()
    tracer.install()
    try:
        argv = ["sweep", "--K", "16", "--L", "2,5", "--B-step", "4", "--out", str(out_csv)]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == f"wrote 8 rows to {out_csv}\n"
    calls = {name: totals["calls"] for name, totals in tracer.summary().items()}
    assert calls["cli.main"] == 1
    # B = 1, 5, 9, 13: 9 and 13 are past K/2 = 8 and share its pass.
    assert calls["bounds.bound_point"] == 3
    assert calls["model.compute_schedule"] >= 1
