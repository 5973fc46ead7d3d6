"""Block simulator for the adaptive beam-probing policy, on the (K, B, L)
instance an ``ExplorationSchedule`` carries.

Within a block the transmitter explores fresh beams (c_int_j per step) until
the legitimate receiver's beam is first hit at some step k.  From then on it
bisects: each step probes max(c_int_k // 2^(j-k), 1) beams out of the set
known to contain the legitimate beam, and the set is narrowed to the probed
half on a hit and to the unprobed rest on a miss.  Probes never depend on
the eavesdropper's feedback, only on the legitimate feedback stream.

Both receivers see the same channel: output 1 iff the probed set contains
their beam.  Feedback is noiseless with unit delay.

State: the transmitter carries the pool the last probe was drawn from
(``range(1, K + 1)`` before step 1, then an ascending list of labels) and
that probe's labels.  Exploring or missing after detection deletes the probe
from the pool by bisection; a hit makes the sorted probe the next pool.
Draws replay ``randrange(1, K + 1)`` per state and ``sample(pool, q)`` per
probe on the generator's ``getrandbits`` words, as CPython 3.10-3.13 takes
them.  The pool always equals the ascending member list of its set, so the
draws, and with them every transcript, depend only on the set and the
generator; no step walks all K bits of a mask to list members.

Determinism: block i seeds its generator with word i of the SeedSequence
stream of ``seed`` (``block_seeds``), so results do not depend on how
blocks are partitioned across workers.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, NamedTuple

from .model import ExplorationSchedule


class BeamSet(NamedTuple):
    """Subset of the K beams as a bit mask (bit b-1 <-> beam b)."""

    mask: int
    K: int
    card: int

    @classmethod
    def from_beams(cls, beams, K: int) -> "BeamSet":
        mask = 0
        for b in beams:
            mask |= 1 << (b - 1)
        return cls(mask, K, mask.bit_count())

    def contains(self, beam: int) -> bool:
        return bool((self.mask >> (beam - 1)) & 1)

    def members(self) -> list[int]:
        return [b for b in range(1, self.K + 1) if (self.mask >> (b - 1)) & 1]

    def hex(self) -> str:
        return format(self.mask, "#x")


class PolicyState(NamedTuple):
    """Transmitter-side state entering step ``step``.

    ``pool`` holds, in ascending order, the beams the previous probe was
    drawn from: ``range(1, K + 1)`` before step 1 and a list after it.
    ``probed`` holds that probe's beams in draw order.
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


@dataclass(slots=True)
class BlockTranscript:
    """Everything observable about one simulated block."""

    s_l: int
    s_e: int
    probes: list[BeamSet]
    y_l: list[int]
    y_e: list[int]
    cost_ok: bool
    clamp_count: int = 0

    def format_line(self) -> str:
        """One-line dump: ``s_l s_e probes(hex,comma) y_l(bits) y_e(bits)``."""
        probes = ",".join(p.hex() for p in self.probes)
        yl = "".join(str(b) for b in self.y_l)
        ye = "".join(str(b) for b in self.y_e)
        return f"{self.s_l} {self.s_e} {probes} {yl} {ye}"


def initial_policy_state(K: int) -> PolicyState:
    return PolicyState(range(1, K + 1), [], None, 1)


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


def _without(pool: list[int] | range, probed: list[int]) -> list[int]:
    """Ascending ``pool`` minus ``probed`` (a subset of it), as a new list."""
    rest = list(pool)
    for b in probed:
        del rest[bisect_left(rest, b)]
    return rest


def _sample(getrandbits, pool: list[int], q: int) -> tuple[list[int], int]:
    """Replay ``Random.sample(pool, q)`` on ``getrandbits``; also return the mask.

    CPython 3.10-3.13's two branches and set-size rule, with each index drawn
    by ``getrandbits`` rejection below its range, as ``_randbelow`` does.
    """
    n = len(pool)
    picked = []
    mask = 0
    setsize = 21 + (4 ** math.ceil(math.log(q * 3, 4)) if q > 5 else 0)
    if n <= setsize:
        rest = pool[:]
        for m in range(n, n - q, -1):
            k = m.bit_length()
            i = getrandbits(k)
            while i >= m:
                i = getrandbits(k)
            picked.append(rest[i])
            rest[i] = rest[m - 1]
    else:
        k = n.bit_length()
        selected = set()
        for _ in range(q):
            i = getrandbits(k)
            while i >= n or i in selected:
                i = getrandbits(k)
            selected.add(i)
            picked.append(pool[i])
    for b in picked:
        mask |= 1 << (b - 1)
    return picked, mask


def jcas_step(
    state: PolicyState, y_prev: int, schedule: ExplorationSchedule, rng: random.Random
) -> tuple[BeamSet, PolicyState]:
    """Choose the probe for ``state.step`` given last step's legitimate bit.

    The policy reads only the legitimate feedback ``y_prev`` (0 before step
    1), so the eavesdropper's feedback cannot influence the probe sequence.

    Returns
    -------
    (probe, next_state)
    """
    pool, probed, det, j, clamp = state

    if det is None and y_prev == 0:
        # Still exploring: drop last step's probe (none at step 1), take fresh beams.
        pool = _without(pool, probed)
        q = schedule.c_int[j - 1]
    else:
        # Detected at det (possibly just now): narrow to the probed half on a
        # hit, to the unprobed rest on a miss, and probe half of what is left.
        if det is None:
            det = j - 1
        pool = sorted(probed) if y_prev else _without(pool, probed)
        q = max(schedule.c_int[det - 1] >> (j - det), 1)

    if q > len(pool):
        q = len(pool)
        clamp += 1
    picked, mask = _sample(rng.getrandbits, pool, q)
    return BeamSet(mask, schedule.K, q), PolicyState(pool, picked, det, j + 1, clamp)


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
    is unchanged by an override.
    """
    drawn_l, drawn_e = draw_states(schedule.K, rng)
    s_l = drawn_l if s_l is None else s_l
    s_e = drawn_e if s_e is None else s_e
    shift_l = s_l - 1
    shift_e = s_e - 1

    budget = int(math.floor(schedule.B))
    state = initial_policy_state(schedule.K)
    yl = 0  # no feedback before step 1
    probes: list[BeamSet] = []
    y_l: list[int] = []
    y_e: list[int] = []
    cost_ok = True
    for _ in range(schedule.L):
        probe, state = jcas_step(state, yl, schedule, rng)
        if probe.card > budget:
            cost_ok = False
        yl = (probe.mask >> shift_l) & 1
        probes.append(probe)
        y_l.append(yl)
        y_e.append((probe.mask >> shift_e) & 1)
    return BlockTranscript(
        s_l=s_l,
        s_e=s_e,
        probes=probes,
        y_l=y_l,
        y_e=y_e,
        cost_ok=cost_ok,
        clamp_count=state.clamp_count,
    )
