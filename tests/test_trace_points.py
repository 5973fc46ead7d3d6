"""The benchmark's trace points name attributes the package still has.

``bench/spans.py`` wraps module attributes by name; a renamed or deleted one
makes every traced benchmark run fail.  This loads the module, checks each
name, and runs a small traced sweep, Monte Carlo run and exact verification.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from bbp_secrecy import cli, estimators, oracle
from bbp_secrecy.channel import block_seeds, simulate_block
from bbp_secrecy.model import ModelConfig, compute_schedule

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


def _check_traced_monte_carlo(spans, K, B, L, blocks):
    # The Monte Carlo workloads' layer metrics divide by these spans' calls
    # and counts; the jcas_step count reads the probe's card.
    config = ModelConfig(K=K, L=L, B=B, seed=7, blocks=blocks)
    tracer = spans.Tracer()
    tracer.install()
    try:
        estimators.estimate_rates(config, workers=1)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["channel.simulate_block"]["calls"] == blocks
    assert summary["channel.jcas_step"]["calls"] == blocks * L

    sched = compute_schedule(K, B, L)
    replay = [simulate_block(sched, random.Random(w)) for w in block_seeds(7, 0, blocks)]
    assert summary["channel.jcas_step"]["count"] == sum(p.card for t in replay for p in t.probes)
    assert summary["estimators.estimate_rates"]["count"] == len({t.pattern for t in replay})


def test_traced_monte_carlo_records_every_block_and_probe(spans):
    _check_traced_monte_carlo(spans, 32, 8, 5, 40)


def test_traced_wide_monte_carlo_records_every_block_and_probe(spans):
    # Pools of 256 beams take the sampler's set branch, which (32, 8, 5) never reaches.
    _check_traced_monte_carlo(spans, 256, 16, 12, 40)


@pytest.mark.parametrize("K,B,L", [(4, 1, 2), (8, 2, 3), (8, 2, 4)])
def test_traced_verify_records_every_exact_verify_layer(spans, K, B, L):
    # The exact_verify workload's layer metrics divide by these spans' calls;
    # verify must reach each layer through oracle's module attributes.
    tracer = spans.Tracer()
    tracer.install()
    try:
        oracle.verify_against_closed_forms(K, B, L)
    finally:
        tracer.uninstall()
    calls = {name: totals["calls"] for name, totals in tracer.summary().items()}
    assert calls["oracle.verify_against_closed_forms"] == 1
    assert calls["oracle.exact_enumeration"] == 1
    # One closed-form table per T3 variant compared: both from L = 4 on.
    assert calls["bounds.prefix_probability_table"] >= (2 if L == 4 else 1)
    assert calls["model.compute_schedule"] >= 1
