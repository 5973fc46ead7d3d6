"""Spans around calls into the package, recorded from the benchmark's side.

``Tracer.install`` replaces module attributes of the package (the names
other modules call through) with wrappers that time each call.  Every
call adds to per-name totals: calls, seconds, seconds spent in traced
child calls (self time is the difference) and an optional count taken
from the result.  The first ``SPAN_CAP`` spans are also kept whole as
(id, name, start, end, parent id), with times in seconds from the start
of the trace, and written out by ``dump``.  Nothing is written while the
run measures.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from bbp_secrecy import bounds, channel, cli, estimators, oracle

SPAN_CAP = 20_000

# (module, attribute the callers look up, span name, count taken from the result)
TRACE_POINTS = [
    (estimators, "estimate_rates", "estimators.estimate_rates", lambda r: len(r[2].pattern_counts)),
    (estimators, "collect_stats", "estimators.collect_stats", None),
    (estimators, "simulate_block", "channel.simulate_block", None),
    (channel, "jcas_step", "channel.jcas_step", lambda r: r[0].card),
    (oracle, "verify_against_closed_forms", "oracle.verify_against_closed_forms", None),
    (oracle, "exact_enumeration", "oracle.exact_enumeration", lambda r: len(r.law)),
    (oracle, "prefix_probability_table", "bounds.prefix_probability_table", None),
    (cli, "main", "cli.main", None),
    (cli, "bound_point", "bounds.bound_point", None),
] + [
    (module, "compute_schedule", "model.compute_schedule", None)
    for module in (bounds, estimators, oracle, cli)
]


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0
    count: int = 0


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, Totals] = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.dropped = 0
        self.origin = time.perf_counter()
        self._stack: list[list] = []  # [span id, seconds spent in children]
        self._ids = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name, count in TRACE_POINTS:
            original = getattr(module, attr)  # a missing trace point is an error
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, count):
        totals = self.totals.setdefault(name, Totals())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._ids += 1
            frame = [self._ids, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                totals.calls += 1
                totals.seconds += dt
                totals.child_seconds += frame[1]
                if parent is not None:
                    parent[1] += dt
                if len(spans) < SPAN_CAP:
                    spans.append(
                        (frame[0], name, t0 - self.origin, t1 - self.origin, parent[0] if parent else None)
                    )
                else:
                    self.dropped += 1
            if count is not None:
                totals.count += count(result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": t.calls,
                "seconds": t.seconds,
                "self_seconds": t.seconds - t.child_seconds,
                "count": t.count,
            }
            for name, t in sorted(self.totals.items())
            if t.calls
        }


def dump(path: Path, header: dict, phases: dict[str, Tracer]) -> None:
    """Write the traced phases of one run as JSON."""
    doc = dict(header)
    doc["phases"] = {
        name: {
            "summary": tracer.summary(),
            "spans_dropped": tracer.dropped,
            "spans": tracer.spans,
        }
        for name, tracer in phases.items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
