"""Each workload's checks pass on the package's output and reject a corrupted one."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from bbp_secrecy import oracle

BENCH = Path(__file__).resolve().parent.parent


class SmallMc(workloads.McAcceptance):
    blocks = 500


class SmallGrid(workloads.BoundGrid):
    KS = (4, 16)
    LS = (2, 5)
    B_SPAN = 4


def test_monte_carlo_checks():
    wl = SmallMc(3)
    wl.prepare()
    wl.round()
    assert wl.problems == []
    main, leak, stats = workloads.estimators.estimate_rates(wl.config, wl.schedule)

    wl._check(dataclasses.replace(main, value=main.value + 0.05), leak, stats)
    assert len(wl.problems) == 2
    assert "but the counts give" in wl.problems[0] and "outside" in wl.problems[1]

    impossible = (0, 0b11)  # the eavesdropper is hit twice before the legitimate beam
    assert impossible not in wl.support
    stats.pattern_counts[impossible] += 1
    wl.problems.clear()
    wl._check(main, leak, stats)
    assert any("cannot produce" in p for p in wl.problems)

    stats.pattern_counts[impossible] -= 1
    stats.cost_violations = 1
    wl.problems.clear()
    wl._check(main, leak, stats)
    assert any("cost_violations=1" in p for p in wl.problems)


def test_exact_verify_checks(monkeypatch):
    wl = workloads.ExactVerify(3)
    wl.cases = [(4, 1, 2), (8, 2, 3), (8, 2, 4)]
    wl.prepare()
    wl.round()
    wl.finish()
    assert wl.problems == []

    report = oracle.verify_against_closed_forms(8, 2, 4)
    report.rows[0] = dataclasses.replace(report.rows[0], oracle=report.rows[0].oracle + 1e-9)
    wl._check((8, 2, 4), report)
    assert len(wl.problems) == 1 and "exact value" in wl.problems[0]

    real = oracle.exact_enumeration

    def shifted(*case):
        enum = real(*case)
        first, second = sorted(enum.law)[:2]
        enum.law[first] += enum.law[second] / 2
        enum.law[second] /= 2
        return enum

    monkeypatch.setattr(oracle, "exact_enumeration", shifted)
    wl.problems.clear()
    wl.finish()
    assert len(wl.problems) == 3 and all("differs from the reference" in p for p in wl.problems)


def test_bound_grid_checks():
    wl = SmallGrid(3)
    wl.prepare()
    try:
        points, _ = wl.round()
        assert points == 2 * (2 * 4 + 2 * 16) and wl.problems == []

        path = next(p for p in wl.first if "K16-B4" in p)
        lines = wl.first[path].decode().splitlines()
        fields = lines[3].split(",")
        fields[3] = repr(float(fields[3]) + 1e-9)
        lines[3] = ",".join(fields)
        wl._check_csv(16, wl.b_start + 4, 8, "\n".join(lines), {})
        assert len(wl.problems) == 2
        assert "reference outer" in wl.problems[0] and "inner is not" in wl.problems[1]

        wl.problems.clear()
        wl._check_outer_shape(16, 2, [(1.0, 0.5), (1.5, 0.4)])
        assert len(wl.problems) == 1 and "falls" in wl.problems[0]

        wl.problems.clear()
        wl.first[path] = b"stale"
        wl.round()
        assert len(wl.problems) == 1 and "differs between rounds" in wl.problems[0]
    finally:
        wl.finish()
    assert not wl.tmp.exists()


def test_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = {m for w in workloads.LAYER_HOMES for m in w.LAYERS} | {"trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for w in workloads.WORKLOADS.values():
        assert set(w.LAYERS) <= layers


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "exact_verify",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_run_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0 and done.stdout == ""
