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
groups, the plug-in rate is recomputed per group, and the standard error is
the standard deviation of those group rates divided by the square root of
their number (nan with one group).  A group of one block has plug-in rate 0,
so every group holds at least ``MIN_GROUP_BLOCKS`` blocks, or all of them.

Parallelism: the worker count is the caller's ``workers`` argument, 1 by
default; for the command line ``cli.cmd_simulate`` chooses it.  Group g
holds blocks ceil(gN/G) .. ceil((g+1)N/G) - 1 of N blocks in G groups, and
each worker counts a contiguous run of whole groups; each block seeds its
generator from (seed, block index), so the counts are identical for any
worker count.  ``ModelConfig`` checks the run (K, seed, blocks) when it is
built; ``collect_stats`` checks only that a schedule is the config's.
"""

from __future__ import annotations

import math
import os
import random
import statistics
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice

from .channel import block_seeds, simulate_block
from .model import ExplorationSchedule, ModelConfig, compute_schedule
from .model import left_sum, prefix_cells, step_entropies

GROUPS = 100
MIN_GROUP_BLOCKS = 10


@dataclass
class TranscriptStats:
    """Pattern counts accumulated over simulated blocks.

    ``group_counts`` holds, per contiguous batch-means group, the counts of
    (y_l bits, y_e bits) -> occurrences, with step j in bit j-1;
    ``pattern_counts`` merges them in order and ``blocks`` is their total,
    both derived at construction.
    ``model.prefix_cells(pattern_counts, L)`` gives each stream's per-prefix
    [count, ones] cells.
    """

    L: int
    group_counts: list[Counter]
    clamped_probes: int = 0
    cost_violations: int = 0
    pattern_counts: Counter = field(init=False)
    blocks: int = field(init=False)

    def __post_init__(self) -> None:
        self.pattern_counts = Counter()
        for counts in self.group_counts:  # contiguous: first-seen order, every float kept
            self.pattern_counts.update(counts)
        self.blocks = sum(self.pattern_counts.values())


def _plug_in_rates(counts: Counter, L: int) -> list[float]:
    """Plug-in (1/L) sum_j H(Y_j | Y^{j-1}) of y_l and of y_e from pattern counts."""
    total = sum(counts.values())
    return [left_sum(step_entropies(cells, total)) / L for cells in prefix_cells(counts, L)]


@dataclass(frozen=True)
class RateEstimate:
    """Point estimate with a batch-means standard error."""

    value: float
    stderr: float


def _collect_range(
    config: ModelConfig,
    schedule: ExplorationSchedule,
    edges: list[int],
    dump_path: str | None = None,
) -> tuple[list[Counter], int, int]:
    """Simulate the groups [edges[g], edges[g + 1]) and count each one's feedback patterns.

    Returns (one ``Counter`` per group, clamped probes, cost violations).
    """
    group_counts = []
    budget_violations = 0
    clamps = 0
    seeds = block_seeds(config.seed, edges[0], edges[-1])
    rng = random.Random()  # reseed(word) leaves Random(word)'s state; no gauss is drawn
    reseed = super(random.Random, rng).seed  # Random.seed minus type checks and gauss reset
    with open(dump_path, "w", encoding="utf-8") if dump_path is not None else nullcontext() as dump:
        for start, stop in zip(edges, edges[1:]):
            counts = Counter()
            for word in islice(seeds, stop - start):
                reseed(word)
                t = simulate_block(schedule, rng)
                counts[t.pattern] += 1
                if not t.cost_ok:
                    budget_violations += 1
                clamps += t.clamp_count
                if dump is not None:
                    dump.write(t.format_line() + "\n")
            group_counts.append(counts)
    return group_counts, clamps, budget_violations


def resolve_workers(requested: int, groups: int) -> int:
    """Worker processes to start: ``requested`` capped by the CPUs and groups, at least 1."""
    return max(1, min(requested, os.cpu_count() or 1, groups))


def collect_stats(
    config: ModelConfig,
    schedule: ExplorationSchedule | None = None,
    workers: int = 1,
    dump_path: str | None = None,
) -> TranscriptStats:
    """Simulate ``config.blocks`` blocks and accumulate pattern counts.

    ``workers`` is capped by :func:`resolve_workers` at the CPU count and
    the batch-means group count; each worker counts a contiguous run of
    whole groups, so the result is independent of the worker count.
    Transcript dumping forces a single worker so the dump order is the block
    order.  ``ModelConfig`` has already checked the run (K, seed, blocks);
    a ``schedule`` built for another (K, B, L) than ``config``'s is refused.
    """
    instance = (config.K, config.B, config.L)
    schedule = schedule or compute_schedule(*instance)
    if (schedule.K, schedule.B, schedule.L) != instance:
        raise ValueError(f"schedule (K, B, L) differs from the config's {instance}")
    groups = max(1, min(GROUPS, config.blocks // MIN_GROUP_BLOCKS))
    edges = [-(-g * config.blocks // groups) for g in range(groups + 1)]  # ceil(gN/G)
    workers = 1 if dump_path is not None else resolve_workers(workers, groups)
    if workers == 1:
        parts = [_collect_range(config, schedule, edges, dump_path)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # 30 ms to import; only pools need it
        cuts = [groups * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_collect_range, config, schedule, edges[a : b + 1])
                for a, b in zip(cuts, cuts[1:])
            ]
            parts = [fut.result() for fut in futures]
    counts, clamps, violations = zip(*parts)
    return TranscriptStats(config.L, [c for run in counts for c in run], sum(clamps), sum(violations))


def _rate_estimate(value: float, group_rates: tuple[float, ...]) -> RateEstimate:
    if len(group_rates) >= 2:
        stderr = statistics.stdev(group_rates) / math.sqrt(len(group_rates))
    else:
        stderr = float("nan")
    return RateEstimate(value=value, stderr=stderr)


def estimate_rates(
    config: ModelConfig,
    schedule: ExplorationSchedule | None = None,
    workers: int = 1,
    dump_path: str | None = None,
) -> tuple[RateEstimate, RateEstimate, TranscriptStats]:
    """One simulation pass giving (main rate, leakage, raw stats)."""
    stats = collect_stats(config, schedule, workers, dump_path)
    values = _plug_in_rates(stats.pattern_counts, stats.L)
    groups = [_plug_in_rates(c, stats.L) for c in stats.group_counts]
    main, leak = map(_rate_estimate, values, zip(*groups))
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
