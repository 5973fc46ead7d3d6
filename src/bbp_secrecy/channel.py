"""Block simulator for the adaptive beam-probing policy, on the (K, B, L)
instance an ``ExplorationSchedule`` carries.

Within a block the transmitter explores fresh beams (c_int_j per step) until
the legitimate receiver's beam is first hit at some step k.  From then on it
bisects: each step probes max(c_int_k // 2^(j-k), 1) beams out of the set
known to contain the legitimate beam, and the set is narrowed to the probed
half on a hit and to the unprobed rest on a miss.  Probes never depend on
the eavesdropper's feedback, only on the legitimate feedback stream.

Both receivers see the same channel: output 1 iff the probed set contains
their beam.  Feedback is noiseless with unit delay.  A block's transcript
keeps each probe as a ``BeamSet`` (labels in draw order and their count; the
mask is derived) and the two feedback streams once, packed into one (y_l, y_e)
pattern.

State: the transmitter carries the beams a miss leaves (``range(1, K + 1)``
before step 1, then the ascending rest of the last probe's pool, which the
sampler returns with the probe) and that probe's labels.  Exploring or
missing after detection draws from that rest; a hit makes the sorted probe
the next pool.  Draws replay ``randrange(1, K + 1)`` per state and
``sample(pool, q)`` per probe on the generator's ``getrandbits`` words, as
CPython 3.10-3.13 takes them.  Every pool is the ascending member list of
its set, so the draws, and with them every transcript, depend only on the
set and the generator; no step walks all K bits of a mask to list members.

Determinism: block i seeds its generator with word i of the SeedSequence
stream of ``seed`` (``block_seeds``), so results do not depend on how
blocks are partitioned across workers.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Iterator, NamedTuple

from .model import ExplorationSchedule

_new = tuple.__new__  # skips a NamedTuple's generated __new__, about 0.3 us a call


class BeamSet(NamedTuple):
    """Beam labels (a probe's in draw order) and their count; the mask (bit b-1
    <-> beam b) and the methods below derive from the labels on demand."""

    beams: list[int]
    card: int

    @classmethod
    def from_beams(cls, beams) -> "BeamSet":
        beams = list(beams)
        return cls(beams, len(beams))

    @property
    def mask(self) -> int:
        return sum(1 << (b - 1) for b in self.beams)  # the labels are distinct

    def contains(self, beam: int) -> bool:
        return beam in self.beams

    def members(self) -> list[int]:
        return sorted(self.beams)

    def hex(self) -> str:
        return format(self.mask, "#x")


class PolicyState(NamedTuple):
    """Transmitter-side state entering step ``step``.

    ``pool`` holds, in ascending order, the beams a miss leaves: ``range(1,
    K + 1)`` before step 1, then the last probe's pool minus that probe.
    ``probed`` holds that probe's beams in draw order (sorted, a hit's pool).
    ``detection_time`` is the step of the first legitimate hit, if any.
    ``clamp_count`` counts probe sizes clamped to the pool size; the clamp
    is a guard that no schedule reaches, so the count stays 0.  ``pool`` is
    shared between states and never mutated.
    """

    pool: list[int] | range
    probed: list[int]
    detection_time: int | None
    step: int
    clamp_count: int = 0


class BlockTranscript(NamedTuple):
    """Everything observable about one simulated block.

    ``pattern`` is the only copy of the feedback: (y_l, y_e) packed with step
    j in bit j-1.  ``y_l`` and ``y_e`` unpack it, one bit per probe.
    """

    s_l: int
    s_e: int
    probes: list[BeamSet]
    pattern: tuple[int, int]
    cost_ok: bool
    clamp_count: int = 0

    y_l = property(lambda self: [self.pattern[0] >> j & 1 for j in range(len(self.probes))])
    y_e = property(lambda self: [self.pattern[1] >> j & 1 for j in range(len(self.probes))])

    def format_line(self) -> str:
        """One-line dump: ``s_l s_e probes(hex,comma) y_l(bits) y_e(bits)``."""
        probes = ",".join(p.hex() for p in self.probes)
        yl = "".join(map(str, self.y_l))
        ye = "".join(map(str, self.y_e))
        return f"{self.s_l} {self.s_e} {probes} {yl} {ye}"


def initial_policy_state(K: int) -> PolicyState:
    return _new(PolicyState, (range(1, K + 1), [], None, 1, 0))


# SeedSequence constants (M. E. O'Neill, "Developing a seed_seq Alternative", 2015).
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R, M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def block_seeds(seed: int, start: int, stop: int) -> Iterator[int]:
    """Yield the 64-bit seeds of blocks [start, stop), partition-independent.

    Block ``i`` gets word ``i`` of the uint64 SeedSequence stream of ``seed``
    (the words of numpy's ``SeedSequence(seed).generate_state``).  The seed's
    four 32-bit words are hashed into a four-word pool; uint32 output word w
    hashes pool[w % 4] with INIT_B * MULT_B^w alone, so only words
    [start, stop) are computed, one at a time.  All arithmetic is mod 2^32.
    A seed outside [0, 2^128) raises ``ValueError`` at call time.
    """
    if not 0 <= seed < 1 << 128:
        raise ValueError("seed must fit in 128 bits")
    h = INIT_A

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * MULT_A & M32
        v = v * h & M32
        return v ^ v >> 16

    pool = [hashmix(seed >> s & M32) for s in (0, 32, 64, 96)]
    for src, dst in permutations(range(4), 2):
        r = (MIX_L * pool[dst] - MIX_R * hashmix(pool[src])) & M32
        pool[dst] = r ^ r >> 16

    def words(h: int) -> Iterator[int]:
        for w in range(2 * start, 2 * stop, 2):
            lo = pool[w % 4] ^ h
            h = h * MULT_B & M32
            lo = lo * h & M32
            hi = pool[w % 4 + 1] ^ h
            h = h * MULT_B & M32
            hi = hi * h & M32
            yield (lo ^ lo >> 16) | (hi ^ hi >> 16) << 32

    return words(INIT_B * pow(MULT_B, 2 * start, 1 << 32) & M32)


def draw_states(K: int, rng: random.Random) -> tuple[int, int]:
    """Draw (s_l, s_e) independently and uniformly from [1..K].

    Each draw replays ``rng.randrange(1, K + 1)``.  The legitimate state is
    drawn first; callers relying on replay must not reorder the two draws.
    """
    k = K.bit_length()
    s_l = s_e = K
    while s_l >= K:
        s_l = rng.getrandbits(k)
    while s_e >= K:
        s_e = rng.getrandbits(k)
    return 1 + s_l, 1 + s_e


def _sample(getrandbits, pool: list[int] | range, q: int) -> tuple[list[int], list[int]]:
    """Replay ``Random.sample(pool, q)`` on ``getrandbits``: picks and sorted rest.

    CPython 3.10-3.13's two branches and set size (21, plus 4^ceil(log4(3q))
    from integers if q > 5: no pool of 21 or fewer needs it), with each index
    drawn by ``getrandbits`` rejection below its range, as ``_randbelow`` does."""
    n = len(pool)
    if n <= 21 or q > 5 and n <= 21 + 4 ** (((3 * q - 1).bit_length() + 1) >> 1):
        picked = []
        rest = list(pool)
        for m in range(n, n - q, -1):
            k = m.bit_length()
            i = getrandbits(k)
            while i >= m:
                i = getrandbits(k)
            picked.append(rest[i])
            rest[i] = rest[m - 1]
        del rest[n - q :]
        rest.sort()
    else:
        # Index i is taken the first time it is drawn below n (dict: draw order).
        k = n.bit_length()
        selected = {}
        for _ in range(q):
            i = getrandbits(k)
            while i >= n or i in selected:
                i = getrandbits(k)
            selected[i] = pool[i]
        picked = list(selected.values())
        rest = list(pool)
        for i in sorted(selected, reverse=True):
            del rest[i]
    return picked, rest


def jcas_step(
    state: PolicyState, y_prev: int, schedule: ExplorationSchedule, rng: random.Random
) -> tuple[BeamSet, PolicyState]:
    """Choose the probe for ``state.step`` given last step's legitimate bit.

    The policy reads only the legitimate feedback ``y_prev`` (0 before step
    1), so the eavesdropper's feedback cannot influence the probe sequence.
    Returns (probe, next_state).
    """
    pool, probed, det, j, clamp = state

    if det is None and y_prev == 0:
        # Still exploring: take fresh beams from those last step's probe left.
        q = schedule.c_int[j - 1]
    else:
        # Detected at det (possibly just now): narrow to the probed half on a
        # hit, to the unprobed rest on a miss, and probe half of what is left.
        if det is None:
            det = j - 1
        if y_prev:
            pool = sorted(probed)
        q = schedule.c_int[det - 1] >> (j - det) or 1

    if q > len(pool):
        q = len(pool)
        clamp += 1
    picked, rest = _sample(rng.getrandbits, pool, q)
    return _new(BeamSet, (picked, q)), _new(PolicyState, (rest, picked, det, j + 1, clamp))


def simulate_block(
    schedule: ExplorationSchedule,
    rng: random.Random,
    s_l: int | None = None,
    s_e: int | None = None,
) -> BlockTranscript:
    """Simulate one block and return its full transcript.

    K, the budget B and the block length L are read from ``schedule``.
    ``s_l`` / ``s_e`` override the drawn states (used by replay tests); the
    states are drawn from ``rng`` regardless so that the probe-choice stream
    is unchanged by an override.  ``jcas_step`` is looked up once per block,
    so a wrapper installed before the call sees every step.
    """
    drawn_l, drawn_e = draw_states(schedule.K, rng)
    s_l = drawn_l if s_l is None else s_l
    s_e = drawn_e if s_e is None else s_e

    budget = int(schedule.B)  # B > 0, so this is the floor
    state = initial_policy_state(schedule.K)
    step = jcas_step
    yl = 0  # no feedback before step 1
    packed_l = packed_e = 0
    probes = []
    cost_ok = True
    for j in range(schedule.L):
        probe, state = step(state, yl, schedule, rng)
        beams, card = probe
        if card > budget:
            cost_ok = False
        yl = s_l in beams  # q comparisons, cheaper than a K-bit mask per probe
        packed_l |= yl << j
        if s_e in beams:
            packed_e |= 1 << j
        probes.append(probe)
    transcript = (s_l, s_e, probes, (packed_l, packed_e), cost_ok, state.clamp_count)
    return _new(BlockTranscript, transcript)
