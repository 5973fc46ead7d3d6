import hashlib
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbp_secrecy import channel
from bbp_secrecy.channel import (
    BeamSet,
    BlockTranscript,
    _sample,
    block_seeds,
    draw_states,
    initial_policy_state,
    jcas_step,
    simulate_block,
)
from bbp_secrecy.model import compute_schedule, pack_bits
from helpers import other_eavesdropper_state


def test_beamset_roundtrip():
    s = BeamSet([1, 5, 8], 3)
    assert s.mask == 0b10010001
    assert s.card == 3
    assert s.hex() == "0x91"
    assert BeamSet([], 0).mask == 0 and BeamSet([], 0).hex() == "0x0"


@given(st.integers(2, 32).flatmap(lambda K: st.tuples(st.just(K), st.sets(st.integers(1, K)))))
def test_beamset_members_roundtrip(K_and_beams):
    # The mask's set bits list the labels back, in ascending order.
    K, beams = K_and_beams
    s = BeamSet(list(beams), len(beams))
    assert [b for b in range(1, K + 1) if s.mask >> (b - 1) & 1] == sorted(beams)
    assert s.mask.bit_count() == s.card


def test_channel_output_is_membership(monkeypatch):
    # A (4, 2, 1) block probes two of the four beams: each receiver's bit is
    # 1 iff the probe holds its beam, for every pair of states.
    sched = compute_schedule(4, 2, 1)
    for s_l in range(1, 5):
        for s_e in range(1, 5):
            monkeypatch.setattr(channel, "draw_states", lambda K, rng: (s_l, s_e))
            tr = simulate_block(sched, random.Random(s_l + 4 * s_e))
            beams = tr.probes[0].beams
            assert tr.pattern == (int(s_l in beams), int(s_e in beams))


def test_draw_states_deterministic_and_uniform():
    rng = random.Random(1234)
    pairs = Counter(draw_states(2, rng) for _ in range(100_000))
    assert set(pairs) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    expected = 100_000 / 4
    chi2 = sum((n - expected) ** 2 / expected for n in pairs.values())
    assert chi2 < 16.27  # chi-square(3) at the 0.1% tail
    marg = sum(n for (sl, _), n in pairs.items() if sl == 1) / 100_000
    assert abs(marg - 0.5) < 0.005

    rng2 = random.Random(1234)
    again = Counter(draw_states(2, rng2) for _ in range(100_000))
    assert again == pairs


SAMPLE_SIZES = [*range(1, 130), 255, 256, 257, 1000, 4096]


@pytest.mark.parametrize("n", SAMPLE_SIZES)
def test_sample_replays_random_sample(n):
    # Both branches of random.sample (pool swap when n <= setsize, redraw
    # into a set otherwise) and the q > 5 setsize edge, on two label sets.
    for q in sorted({0, 1, 2, 5, 6, 7, 8, 16, 17, 31, 64, n // 2, n}):
        if q > n:
            continue
        for seed, pool in ((q, list(range(1, n + 1))), (n + 7, list(range(3, 3 * n + 3, 3)))):
            mine, ref = random.Random(seed), random.Random(seed)
            picked, rest = _sample(mine.getrandbits, pool, q)
            assert picked == ref.sample(pool, q)
            assert sorted(picked + rest) == sorted(pool)
            assert mine.getstate() == ref.getstate()
            assert rest == sorted(set(pool) - set(picked))


def test_draw_states_replays_randrange():
    for K in [*SAMPLE_SIZES, 2**20]:
        mine, ref = random.Random(K), random.Random(K)
        assert draw_states(K, mine) == (ref.randrange(1, K + 1), ref.randrange(1, K + 1))
        assert mine.getstate() == ref.getstate()


def test_first_probe_uses_first_schedule_entry():
    sched = compute_schedule(32, 8, 5)
    probe, state = jcas_step(initial_policy_state(32), 0, sched, random.Random(0))
    assert probe.card == 8
    assert state.step == 2
    assert sorted(state.probed) == sorted(probe.beams)
    assert state.detection_time is None


@pytest.mark.parametrize("K,B,L", [(32, 8, 5), (256, 16, 12), (8, 2, 4)])
def test_jcas_step_is_a_function_of_its_state_and_generator(K, B, L):
    # A step keeps the state it was given: stepping one state twice, with
    # two generators of the same seed, gives equal probes and equal states.
    sched = compute_schedule(K, B, L)
    for word in block_seeds(17, 0, 50):
        rng = random.Random(word)
        s_l, _ = draw_states(K, rng)
        state, y_prev = initial_policy_state(K), 0
        for _ in range(L):
            pool = list(state.pool)
            twin = random.Random()
            twin.setstate(rng.getstate())
            probe, nxt = jcas_step(state, y_prev, sched, rng)
            assert list(state.pool) == pool
            assert jcas_step(state, y_prev, sched, twin) == (probe, nxt)
            y_prev = probe.mask >> (s_l - 1) & 1
            state = nxt


@pytest.mark.parametrize("K,B,L,blocks", [(256, 16, 12, 2000), (1024, 64, 12, 200)])
def test_probe_labels_derive_mask_membership_and_members(K, B, L, blocks):
    # A probe keeps its labels in draw order; the mask and membership are
    # derived from them and must agree with a mask built by hand.
    sched = compute_schedule(K, B, L)
    for word in block_seeds(2500 + K, 0, blocks):
        rng = random.Random(word)
        s_l, s_e = draw_states(K, rng)
        state, y_prev = initial_policy_state(K), 0
        for _ in range(L):
            probe, state = jcas_step(state, y_prev, sched, rng)
            mask = 0
            for b in probe.beams:
                mask |= 1 << (b - 1)
            assert probe.card == len(probe.beams) == len(set(probe.beams))
            assert probe.mask == mask
            for s in (s_l, s_e):
                assert (s in probe.beams) == bool(mask >> (s - 1) & 1)
            y_prev = int(s_l in probe.beams)


def test_no_reachable_step_clamps_its_probe():
    # The clamp in jcas_step is a guard no schedule reaches: exploring leaves
    # K - cum_{j-1} >= 2 c_j beams, and after detection the pool holds at
    # least twice the next probe.  Probe sizes depend only on the pool and
    # probe sizes, the detection step and the step, so one state per such
    # key, followed on each outcome the legitimate beam allows, walks every
    # reachable step of every instance of the grid.
    rng = random.Random(0)
    instances = 0
    for K in range(2, 41):
        for B in [b / 2 for b in range(1, 2 * K + 1)]:
            for L in (1, 3, 6, 10):
                sched = compute_schedule(K, B, L)
                frontier = [(initial_policy_state(K), 0)]
                for _ in range(L):
                    reached = {}
                    for state, y_prev in frontier:
                        probe, nxt = jcas_step(state, y_prev, sched, rng)
                        assert nxt.clamp_count == 0 and probe.card <= int(B), (K, B, L, nxt)
                        # A hit needs a probed beam, a miss an unprobed one.
                        for y, room in ((1, probe.card), (0, len(nxt.pool))):
                            if room:
                                key = len(nxt.pool), probe.card, nxt.detection_time, y
                                reached[key] = nxt, y
                    frontier = list(reached.values())
                instances += 1
    assert instances == 6552


def test_exploration_probes_are_disjoint_until_detection():
    sched = compute_schedule(32, 8, 5)
    seen = 0
    for word in block_seeds(11, 0, 300):
        tr = simulate_block(sched, random.Random(word))
        upto = tr.y_l.index(1) + 1 if 1 in tr.y_l else len(tr.y_l)
        mask = 0
        for j in range(upto):
            assert tr.probes[j].mask & mask == 0
            mask |= tr.probes[j].mask
            assert tr.probes[j].card == sched.c_int[j]
        seen += 1
    assert seen == 300


def test_bisection_resolves_to_the_legitimate_beam():
    # With c = [2, 2, 2, 1], a first-step hit forces singleton probes from
    # step 2 on; once feedback disambiguates, every later probe is s_l.
    sched = compute_schedule(8, 2, 4)
    hits = 0
    for word in block_seeds(3, 0, 400):
        tr = simulate_block(sched, random.Random(word))
        if tr.y_l[0] != 1:
            continue
        hits += 1
        assert tr.probes[1].card == 1
        assert tr.probes[1].mask & tr.probes[0].mask == tr.probes[1].mask
        if tr.y_l[1] == 1:
            resolved = tr.probes[1].beams[0]
        else:
            # the other beam of the two-beam detection set
            probed = tr.probes[1].beams[0]
            resolved = [b for b in tr.probes[0].beams if b != probed][0]
        assert resolved == tr.s_l
        assert tr.probes[2].beams == [tr.s_l]
        assert tr.probes[3].beams == [tr.s_l]
        assert tr.y_l[2] == tr.y_l[3] == 1
    assert hits > 50


def test_post_detection_probe_sizes_halve():
    sched = compute_schedule(32, 8, 5)
    found = 0
    for word in block_seeds(5, 0, 200):
        tr = simulate_block(sched, random.Random(word))
        if tr.y_l[0] == 1:
            assert [p.card for p in tr.probes] == [8, 4, 2, 1, 1]
            found += 1
    assert found > 10


def test_replay_with_other_eavesdropper_state_is_identical():
    sched = compute_schedule(16, 4, 4)
    for word in block_seeds(21, 0, 200):
        tr = simulate_block(sched, random.Random(word))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "draw_states", other_eavesdropper_state)
            rep = simulate_block(sched, random.Random(word))
        assert [p.mask for p in rep.probes] == [p.mask for p in tr.probes]
        assert rep.y_l == tr.y_l
        assert (rep.s_l, rep.s_e) == (tr.s_l, tr.s_e % 16 + 1)


def test_simulation_is_deterministic_per_seed():
    sched = compute_schedule(32, 8, 5)
    words = list(block_seeds(7, 0, 20))
    first = [simulate_block(sched, random.Random(w)).format_line() for w in words]
    second = [simulate_block(sched, random.Random(w)).format_line() for w in words]
    assert first == second


def test_block_seeds_match_numpy_stream():
    for seed in (0, 1, 123, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1):
        words = np.random.SeedSequence(seed).generate_state(10**6 + 20, np.uint64).tolist()
        for start in (0, 1, 17, 10**6):
            assert list(block_seeds(seed, start, start + 20)) == words[start : start + 20]
        assert list(block_seeds(seed, 0, 50)) == words[:50]
        assert list(block_seeds(seed, 49, 49)) == []
        assert len(set(block_seeds(seed, 0, 50))) == 50


def test_block_seeds_start_far_into_the_stream():
    # Only the requested words are computed: 10**15 earlier words are skipped.
    far = 10**15
    assert list(block_seeds(5, far, far + 3)) == list(block_seeds(5, far - 1, far + 3))[1:]
    assert len(list(block_seeds(5, far, far + 3))) == 3


def test_block_seeds_are_streamed():
    # The words come one at a time: a long range holds no list of them.
    tracemalloc.start()
    try:
        for _ in block_seeds(7, 0, 20_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_block_seeds_reject_seed_outside_pool(seed):
    with pytest.raises(ValueError):
        block_seeds(seed, 0, 1)


@settings(max_examples=30, deadline=None)
@given(
    K=st.integers(2, 16),
    B=st.integers(1, 16),
    L=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
def test_cost_constraint_holds(K, B, L, seed):
    B = min(B, K)
    sched = compute_schedule(K, B, L)
    for word in block_seeds(seed, 0, 5):
        tr = simulate_block(sched, random.Random(word))
        assert tr.cost_ok
        assert max(p.card for p in tr.probes) <= B
        assert tr.y_l == [int(tr.s_l in p.beams) for p in tr.probes]
        assert tr.y_e == [int(tr.s_e in p.beams) for p in tr.probes]


def test_fractional_schedule_probes_nothing_on_floored_zero():
    sched = compute_schedule(2, 1, 2)
    assert list(sched.c_int) == [1, 0]
    for word in block_seeds(13, 0, 50):
        tr = simulate_block(sched, random.Random(word))
        if tr.y_l[0] == 1:
            # detected: half of a single beam is floored up to that same beam
            assert tr.probes[1] == tr.probes[0]
            assert tr.y_l[1] == 1
        else:
            assert tr.probes[1].card == 0
            assert tr.y_l[1] == 0


def test_transcript_dump_line_format():
    tr = BlockTranscript(
        s_l=3,
        s_e=7,
        probes=[BeamSet([1, 3], 2), BeamSet([5], 1)],
        pattern=(0b01, 0b00),
        cost_ok=True,
    )
    assert tr.format_line() == "3 7 0x5,0x10 10 00"


# SHA-256 of 2 000 transcripts per instance, recorded from the reference
# simulator.  Block i of instance n runs on ``random.Random(word_i)`` with the
# words of ``SeedSequence(1000 + n)``; a line is ``format_line()`` followed by
# the clamp count and cost flag.  Any change to the policy's random stream,
# probe sets, feedback or counters changes the digest.
GOLDEN_STREAMS = [
    ((32, 8, 5), "a4941b4a8313986fddb2f3e645055698c88283a10b98583d43873e73f3583278"),
    ((256, 16, 12), "8bef4fe629823e9dfac4d458add7eaf40024f5ae8f5f2c5f98776e2f04dd19a0"),
    ((8, 2, 4), "d8d5d4a452fb8110da682c8d2f9938960319f545c73d5007cf460c36284f1a64"),
    ((2, 1, 2), "8fe69dcb246ad61edc883e7ae1203f6660833b7fc5865594ad57c46d1e5c98ac"),
    ((16, 4, 3), "0e2dd4e3cd92a60172be042ecc1a8b6b56bb057707896adf22c9d64ba1cf54b8"),
    ((5, 1.5, 6), "2229da742064aef406bff22909068309bb3389d5d22da0a69fa68c4988c0291d"),
    ((64, 3.7, 9), "20b5b4a2484629e446a90ab759e11256c64380a012f15e70a1f51da597326bbe"),
    ((4, 1, 3), "759cb2dbeb5b4e40deaa9a801b781567f8ffaf46d68e61ff36e395a46093a77e"),
    ((1000, 7.3, 20), "24abae77e24121c7fd08fa23ba3ff0361a8f98a4c1f431a905a12e112a456616"),
    ((3, 1, 5), "7077afc09fe51533f8af0230f0afd5bc42c5a500a0ce1686c44b7c8d198317f7"),
]


@pytest.mark.parametrize("n", range(len(GOLDEN_STREAMS)))
def test_random_stream_matches_golden_digest(n):
    (K, B, L), digest = GOLDEN_STREAMS[n]
    sched = compute_schedule(K, B, L)
    words = np.random.SeedSequence(1000 + n).generate_state(2000, np.uint64).tolist()
    lines = []
    for word in words:
        tr = simulate_block(sched, random.Random(word))
        lines.append(f"{tr.format_line()} {tr.clamp_count} {int(tr.cost_ok)}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(len(GOLDEN_STREAMS)))
def test_transcript_pattern_packs_the_feedback(n):
    (K, B, L), _ = GOLDEN_STREAMS[n]
    sched = compute_schedule(K, B, L)
    for word in block_seeds(1000 + n, 0, 500):
        t = simulate_block(sched, random.Random(word))
        assert t.pattern == (pack_bits(t.y_l), pack_bits(t.y_e))
    probes = [BeamSet([1], 1), BeamSet([2], 1), BeamSet([1, 2], 2)]
    hand = BlockTranscript(s_l=1, s_e=2, probes=probes, pattern=(0b101, 0b110), cost_ok=True)
    assert (hand.y_l, hand.y_e) == ([1, 0, 1], [0, 1, 1])
