"""Monte Carlo estimators for the main and eavesdropper entropy rates.

Because the receiver states are uniform and the policy treats beam labels
symmetrically, the per-step conditional output distribution given a feedback
prefix does not depend on the state value; conditioning on the state adds
nothing, and the estimators pool all blocks into per-prefix counts instead
of stratifying by state.

The block transcripts are reduced to a pair of packed L-bit patterns
(y_l, y_e), counted in a dictionary; every prefix statistic is derived from
those pattern counts by ``model.prefix_cells``, the same code the exact
oracle runs on its law.  Standard errors come from batch means: blocks are
split into max(1, min(``GROUPS``, blocks // ``MIN_GROUP_BLOCKS``)) contiguous
groups, the plug-in rate is recomputed per non-empty group, and the standard
error is the standard deviation of those group rates divided by the square
root of their number (nan with one group).  A group of one block has plug-in
rate 0, so every group holds at least ``MIN_GROUP_BLOCKS`` blocks.

Parallelism: blocks are sharded into contiguous ranges; each block seeds
its generator from (seed, block index), so the merged counts are identical
for any worker count.
"""

from __future__ import annotations

import math
import os
import random
import statistics
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from .channel import block_seeds, simulate_block
from .model import ExplorationSchedule, ModelConfig, compute_schedule
from .model import left_sum, prefix_cells, step_entropies

GROUPS = 100
MIN_GROUP_BLOCKS = 10
MAX_SIMULATED_BEAMS = 2**20  # every block lists its K-beam pool


@dataclass
class TranscriptStats:
    """Pattern counts accumulated over simulated blocks.

    ``pattern_counts`` maps (y_l bits, y_e bits) -> occurrences, with step j
    in bit j-1; it merges, in order, ``group_counts``, where each block is
    counted once, in its contiguous batch-means group.
    """

    L: int
    blocks: int
    pattern_counts: Counter = field(default_factory=Counter)
    group_counts: list[Counter] = field(default_factory=list)
    clamped_probes: int = 0
    cost_violations: int = 0

    def merge(self, other: "TranscriptStats") -> None:
        if other.L != self.L or len(other.group_counts) != len(self.group_counts):
            raise ValueError("cannot merge stats with different shapes")
        self.blocks += other.blocks
        self.pattern_counts.update(other.pattern_counts)
        for mine, theirs in zip(self.group_counts, other.group_counts):
            mine.update(theirs)
        self.clamped_probes += other.clamped_probes
        self.cost_violations += other.cost_violations

    def prefix_stats(self, stream: int, j: int) -> dict[int, list[int]]:
        """Per-prefix [count, ones] for step j of stream 0 (y_l) or 1 (y_e).

        Keys are the first j-1 feedback bits packed as an integer.
        """
        if stream not in (0, 1):
            raise ValueError(f"stream must be 0 (y_l) or 1 (y_e), got {stream!r}")
        if not 1 <= j <= self.L:
            raise ValueError(f"step must be in 1..{self.L}, got {j}")
        return prefix_cells(self.pattern_counts, j)[stream][j - 1]


def _plug_in_rates(counts: Counter, L: int) -> list[float]:
    """Plug-in (1/L) sum_j H(Y_j | Y^{j-1}) of y_l and of y_e from pattern counts."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no blocks accumulated")
    return [left_sum(step_entropies(cells, total)) / L for cells in prefix_cells(counts, L)]


@dataclass(frozen=True)
class RateEstimate:
    """Point estimate with a batch-means standard error."""

    value: float
    stderr: float


def _collect_range(
    config: ModelConfig,
    schedule: ExplorationSchedule,
    start: int,
    stop: int,
    dump_path: str | None = None,
) -> TranscriptStats:
    """Simulate blocks [start, stop) and count their feedback patterns."""
    total = config.blocks
    groups = max(1, min(GROUPS, total // MIN_GROUP_BLOCKS))
    stats = TranscriptStats(
        L=config.L, blocks=stop - start, group_counts=[Counter() for _ in range(groups)]
    )
    budget_violations = 0
    clamps = 0
    rng = random.Random()  # reseed(word) leaves Random(word)'s state; no gauss is drawn
    reseed = super(random.Random, rng).seed  # Random.seed minus type checks and gauss reset
    with open(dump_path, "w", encoding="utf-8") if dump_path else nullcontext() as dump:
        for i, word in enumerate(block_seeds(config.seed, start, stop), start):
            reseed(word)
            t = simulate_block(schedule, rng)
            stats.group_counts[i * groups // total][t.pattern] += 1
            if not t.cost_ok:
                budget_violations += 1
            clamps += t.clamp_count
            if dump is not None:
                dump.write(t.format_line() + "\n")
    for counts in stats.group_counts:  # contiguous: first-seen order, every float kept
        stats.pattern_counts.update(counts)
    stats.cost_violations = budget_violations
    stats.clamped_probes = clamps
    return stats


def resolve_workers(requested: int, blocks: int) -> int:
    """Worker processes to start: ``requested`` capped by the CPUs and blocks, at least 1."""
    return max(1, min(requested, os.cpu_count() or 1, blocks))


def collect_stats(
    config: ModelConfig,
    schedule: ExplorationSchedule | None = None,
    workers: int | None = None,
    dump_path: str | None = None,
) -> TranscriptStats:
    """Simulate ``config.blocks`` blocks and accumulate pattern counts.

    ``workers`` defaults to the BBP_THREADS environment variable (else 1)
    and is capped by :func:`resolve_workers`.  The result is independent of
    the worker count.  Transcript dumping forces a single worker so the dump
    order is the block order.  K above ``MAX_SIMULATED_BEAMS`` is refused, and
    so is a ``schedule`` built for another (K, B, L) than ``config``'s.
    """
    if config.blocks <= 0:
        raise ValueError("config.blocks must be positive for simulation")
    if config.K > MAX_SIMULATED_BEAMS:
        raise ValueError(f"simulation limited to K <= 2**20 = {MAX_SIMULATED_BEAMS}")
    instance = (config.K, config.B, config.L)
    schedule = schedule or compute_schedule(*instance)
    if (schedule.K, schedule.B, schedule.L) != instance:
        raise ValueError(f"schedule (K, B, L) differs from the config's {instance}")
    if workers is None:
        workers = int(os.environ.get("BBP_THREADS", "1"))
    workers = resolve_workers(workers, config.blocks)
    if dump_path is not None:
        workers = 1
    if workers == 1:
        return _collect_range(config, schedule, 0, config.blocks, dump_path)

    from concurrent.futures import ProcessPoolExecutor  # 30 ms to import; only pools need it
    edges = [config.blocks * i // workers for i in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_collect_range, config, schedule, a, b)
            for a, b in zip(edges, edges[1:])
        ]
        merged, *rest = [fut.result() for fut in futures]
    for part in rest:
        merged.merge(part)
    return merged


def _rate_estimate(value: float, group_rates: tuple[float, ...]) -> RateEstimate:
    if len(group_rates) >= 2:
        stderr = statistics.stdev(group_rates) / math.sqrt(len(group_rates))
    else:
        stderr = float("nan")
    return RateEstimate(value=value, stderr=stderr)


def estimate_rates(
    config: ModelConfig,
    schedule: ExplorationSchedule | None = None,
    workers: int | None = None,
    dump_path: str | None = None,
) -> tuple[RateEstimate, RateEstimate, TranscriptStats]:
    """One simulation pass giving (main rate, leakage, raw stats)."""
    stats = collect_stats(config, schedule, workers, dump_path)
    values = _plug_in_rates(stats.pattern_counts, stats.L)
    groups = [_plug_in_rates(c, stats.L) for c in stats.group_counts if c]
    main, leak = map(_rate_estimate, values, zip(*groups))  # every block is in a group
    return main, leak, stats


def unseen_table_prefixes(stats: TranscriptStats) -> list[tuple[int, int]]:
    """(j, k) of every closed-form table prefix 0^k 1^(j-1-k) the sample never saw.

    Unseen prefixes contribute zero to the plug-in rates; callers may want
    to log them when comparing against the closed forms.
    """
    seen = prefix_cells(stats.pattern_counts, stats.L)[1]
    return [
        (j, k)
        for j in range(1, stats.L + 1)
        for k in range(j)
        if ((1 << (j - 1 - k)) - 1) << k not in seen[j - 1]
    ]
