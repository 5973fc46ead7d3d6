import _random
import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import random
from collections import Counter

import pytest

from bbp_secrecy import channel, estimators
from bbp_secrecy.bounds import closed_forms, prefix_probability_table
from bbp_secrecy.estimators import (
    GROUPS,
    MIN_GROUP_BLOCKS,
    collect_stats,
    estimate_rates,
    resolve_workers,
    unseen_table_prefixes,
)
from bbp_secrecy.channel import block_seeds, simulate_block
from bbp_secrecy.model import ExplorationSchedule, ModelConfig, binary_entropy, compute_schedule
from bbp_secrecy.model import pack_bits, prefix_cells
from bbp_secrecy.oracle import _lumped_law

H4 = binary_entropy(0.25)


def test_zero_blocks_rejected():
    with pytest.raises(ValueError):
        collect_stats(ModelConfig(K=8, L=2, B=2, seed=0, blocks=0))


def test_worker_count_does_not_change_counts(monkeypatch):
    # Three workers count batch-means groups 0..32, 33..65 and 66..99 of 30
    # blocks each, so their runs differ in length.  Report enough CPUs that
    # the worker cap does not lower the request.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = ModelConfig(K=8, L=3, B=2, seed=17, blocks=3000)
    assert resolve_workers(3, cfg.blocks) == 3
    one = collect_stats(cfg, workers=1)
    three = collect_stats(cfg, workers=3)
    assert one.pattern_counts == three.pattern_counts
    assert one.group_counts == three.group_counts
    assert one.blocks == three.blocks == 3000
    assert one.cost_violations == three.cost_violations
    assert one.clamped_probes == three.clamped_probes


def test_collection_goes_through_the_traced_calls(monkeypatch):
    # The benchmark's tracer wraps these two module attributes and divides
    # by their call counts, so a block must call each through its module.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(estimators, "simulate_block", counting("block", simulate_block))
    monkeypatch.setattr(channel, "jcas_step", counting("step", channel.jcas_step))
    cfg = ModelConfig(K=32, L=5, B=8, seed=11, blocks=40)
    stats = collect_stats(cfg, workers=1)
    assert calls == {"block": 40, "step": 200}

    # Reseeding one generator per block gives a fresh generator's stream.
    sched = compute_schedule(32, 8, 5)
    fresh = Counter()
    for word in block_seeds(cfg.seed, 0, cfg.blocks):
        t = simulate_block(sched, random.Random(word))
        fresh[pack_bits(t.y_l), pack_bits(t.y_e)] += 1
    assert stats.pattern_counts == fresh


@pytest.mark.parametrize("K,B,L", [(64, 8, 5), (32, 16, 5), (32, 8, 3)])
def test_schedule_of_another_instance_is_refused(K, B, L):
    # The simulator reads the instance from the schedule, so a schedule that
    # disagrees with the config would run another instance, flag every block
    # as over budget, or index past its end.
    cfg = ModelConfig(K=32, L=5, B=8, seed=1, blocks=200)
    with pytest.raises(ValueError, match="differs from the config"):
        estimate_rates(cfg, compute_schedule(K, B, L))


def test_worker_request_is_capped_by_cpus_and_blocks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert resolve_workers(10**6, 10**9) == 4
    assert resolve_workers(3, 10**9) == 3
    assert resolve_workers(4, 2) == 2
    assert resolve_workers(0, 100) == 1
    assert resolve_workers(-5, 100) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers(8, 100) == 1


@pytest.mark.parametrize("blocks", [20, 35, 999, 1234, 3000])
def test_each_worker_counts_a_run_of_whole_groups(monkeypatch, blocks):
    # Block i belongs to batch-means group i * groups // blocks; the workers'
    # edges must be exactly those groups' first blocks.  Threads stand in for
    # the processes so that the recording wrapper sees every call.
    runs = []

    def recording(config, schedule, edges, dump_path=None):
        runs.append(list(edges))
        return collect_range(config, schedule, edges, dump_path)

    collect_range = estimators._collect_range
    monkeypatch.setattr(estimators, "_collect_range", recording)
    threads = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = ModelConfig(K=4, L=1, B=1, seed=3, blocks=blocks)
    groups = max(1, min(GROUPS, blocks // MIN_GROUP_BLOCKS))
    first = {}
    for i in range(blocks):
        first.setdefault(i * groups // blocks, i)
    want = [first[g] for g in range(groups)] + [blocks]
    results = []
    for workers in (1, 2, 3):
        runs.clear()
        results.append(collect_stats(cfg, workers=workers))
        runs.sort()
        assert len(runs) == min(workers, groups)
        assert [e for run in runs for e in run[:-1]] + [runs[-1][-1]] == want
        assert all(a[-1] == b[0] for a, b in zip(runs, runs[1:]))
    for stats in results[1:]:
        assert stats.group_counts == results[0].group_counts
        assert stats.pattern_counts == results[0].pattern_counts


# Over-asks on purpose: three beams at step 1 against a budget of two, and
# nine at step 2, more than a pool left after a miss holds.
OVER_ASKING = ExplorationSchedule(8, 2.0, (2.0, 2.0), (3, 9), (2.0, 4.0))


def test_safety_counters_count_an_over_asking_schedule(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = ModelConfig(K=8, L=2, B=2, seed=5, blocks=400)
    violations = clamps = 0
    for word in block_seeds(cfg.seed, 0, cfg.blocks):
        t = simulate_block(OVER_ASKING, random.Random(word))
        violations += not t.cost_ok
        clamps += t.clamp_count
    assert (violations, clamps) == (400, 255)
    for workers in (1, 2):
        stats = collect_stats(cfg, OVER_ASKING, workers=workers)
        assert (stats.cost_violations, stats.clamped_probes) == (violations, clamps)

    # The exact law follows the same clamp: a probe of at most the pool.
    law, denominator = _lumped_law(cfg.K, OVER_ASKING.c_int)
    assert sum(law.values()) == denominator
    assert set(law) == set(stats.pattern_counts)


def test_group_counts_partition_the_pattern_counts():
    cfg = ModelConfig(K=16, L=3, B=4, seed=9, blocks=5000)
    stats = collect_stats(cfg)
    combined = Counter()
    for g in stats.group_counts:
        combined.update(g)
    assert combined == stats.pattern_counts
    assert sum(stats.pattern_counts.values()) == 5000
    assert len(stats.group_counts) == GROUPS


def test_single_step_rate_matches_closed_form():
    cfg = ModelConfig(K=4, L=1, B=1, seed=5, blocks=40_000)
    main, leak, stats = estimate_rates(cfg)
    assert stats.blocks == 40_000
    assert 0 < main.stderr < 0.01
    assert abs(main.value - H4) < 5 * main.stderr
    # single uniform probe: eavesdropper sees the same marginal
    assert abs(leak.value - H4) < 5 * leak.stderr


def test_two_step_rates_match_closed_forms():
    cfg = ModelConfig(K=32, L=2, B=8, seed=5, blocks=40_000)
    main, leak, _ = estimate_rates(cfg)
    assert abs(main.value - 0.875) < 5 * main.stderr
    assert abs(leak.value - closed_forms(compute_schedule(32, 8, 2)).leakage) < 5 * leak.stderr


def test_stderr_needs_at_least_two_groups():
    cfg = ModelConfig(K=4, L=1, B=1, seed=0, blocks=1)
    main, _, _ = estimate_rates(cfg)
    assert math.isnan(main.stderr)
    assert main.value in (0.0, binary_entropy(1.0))  # one block, degenerate rate


@pytest.mark.parametrize("blocks", [1, 9, 10, 19, 20, 150, 999, 1000, 1001, 2500])
def test_batch_means_groups_hold_at_least_min_group_blocks(monkeypatch, blocks):
    # A group of one block has plug-in rate 0, which would make the stderr 0;
    # estimate_rates takes the rate of every group, so none may be empty.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = ModelConfig(K=4, L=1, B=1, seed=3, blocks=blocks)
    for workers in (1, 2):
        sizes = [sum(g.values()) for g in collect_stats(cfg, workers=workers).group_counts]
        assert sum(sizes) == blocks
        assert min(sizes) >= min(blocks, MIN_GROUP_BLOCKS)
        assert (len(sizes) == 1) == (blocks < 2 * MIN_GROUP_BLOCKS)
        assert (len(sizes) == GROUPS) == (blocks >= GROUPS * MIN_GROUP_BLOCKS)


def test_worker_processes_are_gone_when_estimate_rates_returns(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    estimate_rates(ModelConfig(K=8, L=2, B=2, seed=5, blocks=400), workers=2)
    assert multiprocessing.active_children() == []


def test_library_ignores_the_worker_env_var(monkeypatch):
    # Only the CLI reads BBP_THREADS; a Python caller sets workers= itself.
    cfg = ModelConfig(K=8, L=2, B=2, seed=1, blocks=50)
    monkeypatch.delenv("BBP_THREADS", raising=False)
    main, leak, stats = estimate_rates(cfg)
    monkeypatch.setenv("BBP_THREADS", "x")
    main_x, leak_x, stats_x = estimate_rates(cfg)
    assert (main_x, leak_x) == (main, leak)
    assert stats_x.group_counts == stats.group_counts


def test_transcript_dump_agrees_with_counts(tmp_path):
    cfg = ModelConfig(K=8, L=4, B=2, seed=23, blocks=500)
    dump = tmp_path / "blocks.txt"
    _, _, stats = estimate_rates(cfg, dump_path=str(dump))
    recounted = Counter()
    for line in dump.read_text().splitlines():
        s_l, s_e, probes, yl, ye = line.split()
        assert 1 <= int(s_l) <= 8 and 1 <= int(s_e) <= 8
        for h in probes.split(","):
            assert bin(int(h, 16)).count("1") <= 2
        yl_bits = sum(int(ch) << i for i, ch in enumerate(yl))
        ye_bits = sum(int(ch) << i for i, ch in enumerate(ye))
        recounted[(yl_bits, ye_bits)] += 1
    assert recounted == stats.pattern_counts
    assert sum(recounted.values()) == 500


def test_unseen_prefixes_shrink_with_sample_size():
    tiny = collect_stats(ModelConfig(K=32, L=5, B=8, seed=3, blocks=10))
    missing = unseen_table_prefixes(tiny)
    # (j, k) names the prefix 0^k 1^(j-1-k): "11", "111", "011", ...
    assert missing == [(3, 0), (4, 0), (4, 1), (5, 0), (5, 1), (5, 2)]
    larger = collect_stats(ModelConfig(K=32, L=5, B=8, seed=3, blocks=300))
    assert unseen_table_prefixes(larger) == []


@pytest.mark.parametrize(
    "K,B,L,blocks",
    [(4, 1, 1, 5), (2, 0.5, 3, 4), (5, 1.5, 6, 20), (32, 8, 5, 10), (9, 2.5, 8, 50)],
)
def test_unseen_prefixes_are_the_unseen_table_keys(K, B, L, blocks):
    stats = collect_stats(ModelConfig(K=K, L=L, B=B, seed=2, blocks=blocks))
    table = prefix_probability_table(compute_schedule(K, B, L))
    eav_cells = prefix_cells(stats.pattern_counts, L)[1]
    # Pack each key's bits 0^k 1^(j-1-k) with pack_bits, independently of the
    # shift arithmetic that unseen_table_prefixes uses.
    unseen = [
        (j, k)
        for j, k in sorted(table)
        if pack_bits((0,) * k + (1,) * (j - 1 - k)) not in eav_cells[j - 1]
    ]
    assert unseen_table_prefixes(stats) == unseen


@pytest.mark.parametrize("K,B,L", [(2, 1, 2), (5, 3, 4), (7, 2, 5)])
def test_no_clamps_or_budget_violations(K, B, L):
    stats = collect_stats(ModelConfig(K=K, L=L, B=B, seed=1, blocks=1000))
    assert stats.clamped_probes == 0
    assert stats.cost_violations == 0


@pytest.mark.parametrize("word", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_c_level_reseed_leaves_a_fresh_generator(word):
    # _collect_range reseeds its one generator with the C seed that
    # Random.seed ends in, skipping its type checks and gauss reset; for int
    # words that must leave exactly the state of Random(word).
    rng = random.Random()
    for w in [word, *block_seeds(5, 0, 100)]:
        rng.random()
        _random.Random.seed(rng, w)
        assert rng.getstate() == random.Random(w).getstate()
        rng.random()
        super(random.Random, rng).seed(w)
        assert rng.getstate() == random.Random(w).getstate()


PINNED_RATES = [
    (32, 8, 5, 2500, ("0x1.ca163530e00f3p-1", "0x1.a394dba11496bp-9",
                      "0x1.1a02ed96deb69p-1", "0x1.6e56a854f7540p-8")),
    (256, 16, 12, 1000, ("0x1.ec7fbd04cb2e0p-2", "0x1.6f5ee2f2b9ca1p-9",
                         "0x1.d89cd7808a81fp-3", "0x1.0faebbf206e7fp-8")),
]


@pytest.mark.parametrize("K,B,L,blocks,want", PINNED_RATES)
def test_rate_estimates_pinned_bit_for_bit(K, B, L, blocks, want):
    # Values and batch-means errors of the per-pattern prefix_cells loop; the
    # fold that replaced it must not move a single bit.
    main, leak, _ = estimate_rates(ModelConfig(K=K, L=L, B=B, seed=7, blocks=blocks), workers=1)
    assert (main.value.hex(), main.stderr.hex(), leak.value.hex(), leak.stderr.hex()) == want


@pytest.mark.usefixtures("compensated_sum")
@pytest.mark.parametrize("K,B,L,blocks,want", PINNED_RATES)
def test_rate_estimates_do_not_depend_on_a_compensated_sum(K, B, L, blocks, want):
    # From Python 3.12 sum() of floats is compensated; the step entropies are
    # added left to right, so the pinned bits hold there too.
    test_rate_estimates_pinned_bit_for_bit(K, B, L, blocks, want)


# SHA-256 over the pattern counts in order, each batch-means group's counts in
# order, and both estimates and standard errors by float.hex(), at seed 7.
# Count order fixes the order of every float sum, so a change to the block
# loop that reorders counts changes this digest even when the rates agree.
COUNTING_DIGESTS = [
    ((32, 8, 5, 2500), "a90e4a22dc705fde72f64282ad5bcd077dc0aaf53c4ca2116ecb59d5272a8cae"),
    ((256, 16, 12, 1000), "c39f73c8e4cbbe7027a1631024a2d188ad7663bf30c9741e908db7a3c92f6bb2"),
]


@pytest.mark.parametrize("instance,digest", COUNTING_DIGESTS, ids=["acceptance", "wide"])
def test_counting_path_matches_golden_digest(instance, digest):
    K, B, L, blocks = instance
    main, leak, stats = estimate_rates(ModelConfig(K=K, L=L, B=B, seed=7, blocks=blocks), workers=1)
    h = hashlib.sha256(repr(list(stats.pattern_counts.items())).encode())
    for counts in stats.group_counts:
        h.update(repr(list(counts.items())).encode())
    for r in (main, leak):
        h.update(f"{r.value.hex()} {r.stderr.hex()}".encode())
    assert h.hexdigest() == digest
