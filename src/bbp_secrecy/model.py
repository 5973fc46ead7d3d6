"""Core model parameters and the exploration schedule.

The channel has K beam directions.  Each block lasts L channel uses during
which the legitimate receiver and the eavesdropper each sit in one fixed,
uniformly drawn beam (they may coincide).  An input probes a subset of
beams; the per-symbol cost is the number of probed beams and must stay
within the budget B.

The exploration schedule c_1..c_L fixes how many fresh beams are probed per
step while the legitimate beam is still unknown:

    c_1 = min(K / 2, B)
    c_j = min((K - sum_{k<j} c_k) / 2, B)

No entry exceeds K/2, so the budget binds only below K/2: every B >= K/2
gives the schedule of B = K/2, bit for bit (c_1 = K/2, c_j <= K/4 after).

The schedule is real-valued; ``c_int`` floors each entry to the subset size
actually probed by the simulator.  ``check_instance`` holds the one rule for
which (K, B, L) are accepted.

A block's feedback is a pair of L-bit patterns (y_l, y_e), each packed into
an integer.  ``prefix_cells`` and ``step_entropies`` give the per-prefix
statistics of a law over such pairs, for the Monte Carlo counts and the
exact law's integer weights alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

# Input limits: past 2^53 beams K is not exact as a float (and past about
# 1.8e308 it overflows one); at L = 1024 the prefix table lists 524 800 prefixes.
MAX_BEAMS = 2**53
MAX_USES = 1024
MAX_SIMULATED_BEAMS = 2**20  # every simulated block lists its K-beam pool


def binary_entropy(p: float) -> float:
    """Binary entropy of ``p`` in bits, with the convention 0*log2(0) = 0.

    Raises
    ------
    ValueError
        If ``p`` lies outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy: p={p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def pack_bits(bits) -> int:
    """Pack a bit sequence into an integer, step j (1-based) in bit j-1."""
    return sum(bit << j for j, bit in enumerate(bits))


def prefix_cells(law, L: int) -> tuple[list[dict[int, list]], list[dict[int, list]]]:
    """Per-step ``[mass, ones]`` cell of every feedback prefix, for y_l and for y_e.

    ``law`` maps packed (y_l, y_e) pairs to integer weights: block counts, or
    exact weights over a common denominator.  Of each stream's cells, entry
    j-1 maps each packed (j-1)-bit prefix to the weight of the patterns that
    start with it and the weight of those among them with bit j set, in the
    order the prefixes first occur in ``law``.  One pass over ``law`` splits
    its patterns into the two streams' bits, and one pass over each fills its
    step L; each earlier step folds the step after it by dropping the
    prefixes' top bit, which keeps that order.
    """
    mask = (1 << (L - 1)) - 1
    weights = law.values()
    streams = []
    for column in zip(*law) if law else ((), ()):  # every pattern's y_l bits, then y_e's
        step: dict[int, list] = {}
        for bits, weight in zip(column, weights):
            cell = step.get(bits & mask)
            if cell is None:
                cell = step[bits & mask] = [0, 0]
            cell[0] += weight
            if bits >> (L - 1) & 1:
                cell[1] += weight
        cells, fold = [step], mask
        for j in range(L - 1, 0, -1):
            fold >>= 1
            step = {}
            for prefix, (mass, _) in cells[-1].items():
                cell = step.get(prefix & fold)
                if cell is None:
                    cell = step[prefix & fold] = [0, 0]
                cell[0] += mass
                if prefix >> (j - 1) & 1:
                    cell[1] += mass
            cells.append(step)
        cells.reverse()
        streams.append(cells)
    return tuple(streams)


def left_sum(values) -> float:
    """Float sum added left to right: ``sum()`` is compensated from Python 3.12."""
    total = 0.0
    for x in values:
        total += x
    return total


def step_entropies(cells: list[dict[int, list]], total) -> list[float]:
    """Plug-in H(Y_j | Y^{j-1}) per step from :func:`prefix_cells` output.

    Each step sums P(prefix) * h(P(Y_j = 1 | prefix)) over its cells, with
    P(prefix) = mass / ``total``; a cell with a certain next bit adds +0.0.
    :func:`binary_entropy` is inlined, its p = 0 and p = 1 cases skipped too:
    ``ones / mass`` may round to 0.0 or 1.0 although 0 < ones < mass.
    """
    out = []
    for step in cells:
        h = 0.0
        for mass, ones in step.values():
            if 0 < ones < mass:
                p = float(ones / mass)
                if 0.0 < p < 1.0:
                    h += float(mass / total) * (-p * log2(p) - (1.0 - p) * log2(1.0 - p))
        out.append(h)
    return out


def check_instance(K: int, B: float, L: int) -> None:
    """Raise ``ValueError`` unless K, L are integers in range and 0 < B <= K."""
    if not isinstance(K, int) or K < 2:
        raise ValueError(f"K must be an integer >= 2, got {K!r}")
    if K > MAX_BEAMS:
        raise ValueError(f"K must be at most 2**53 = {MAX_BEAMS}")
    if not isinstance(L, int) or L < 1:
        raise ValueError(f"L must be an integer >= 1, got {L!r}")
    if L > MAX_USES:
        raise ValueError(f"L must be at most {MAX_USES}, got {L}")
    if not B > 0:
        raise ValueError(f"B must be positive, got {B!r}")
    if B > K:
        raise ValueError(f"B={B!r} exceeds the number of beams K={K}")


def check_simulated_beams(K: int) -> None:
    """Raise ``ValueError`` if K exceeds ``MAX_SIMULATED_BEAMS``, the pool a block may list."""
    if K > MAX_SIMULATED_BEAMS:
        raise ValueError(f"simulation limited to K <= 2**20 = {MAX_SIMULATED_BEAMS}")


@dataclass(frozen=True)
class ModelConfig:
    """One simulation run, every field checked here: the (K, B, L) instance, seed, block count.

    Attributes
    ----------
    K : int
        Number of beams, 2 <= K <= MAX_SIMULATED_BEAMS.
    L : int
        Block length (channel uses per block), 1 <= L <= MAX_USES.
    B : float
        Per-symbol cost budget (maximum number of probed beams), 0 < B <= K.
    seed : int
        Base seed for Monte Carlo; per-block generators are derived from it.
    blocks : int
        Number of simulated blocks, at least one.
    """

    K: int
    L: int
    B: float
    seed: int
    blocks: int

    def __post_init__(self) -> None:
        check_instance(self.K, self.B, self.L)
        check_simulated_beams(self.K)
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not isinstance(self.blocks, int) or self.blocks < 1:
            raise ValueError(f"blocks must be a positive integer, got {self.blocks!r}")


@dataclass(frozen=True)
class ExplorationSchedule:
    """Per-step exploration sizes for one (K, B, L) instance, which it carries.

    Attributes
    ----------
    K : int
        Number of beams.
    B : float
        Per-symbol cost budget.
    c : tuple of float
        Real-valued schedule entries c_1..c_L.
    c_int : tuple of int
        floor(c_j); the subset sizes used by the simulator.
    cum : tuple of float
        Partial sums cum[j-1] = c_1 + ... + c_j.
    """

    K: int
    B: float
    c: tuple[float, ...]
    c_int: tuple[int, ...]
    cum: tuple[float, ...]

    @property
    def L(self) -> int:
        return len(self.c)

    @property
    def is_integral(self) -> bool:
        """True when every c_j is an exact integer."""
        return self.c == self.c_int


def compute_schedule(K: int, B: float, L: int) -> ExplorationSchedule:
    """Evaluate the exploration recursion for ``L`` steps.

    Examples
    --------
    >>> compute_schedule(32, 8, 5).c
    (8.0, 8.0, 8.0, 4.0, 2.0)
    """
    check_instance(K, B, L)
    c: list[float] = []
    cum: list[float] = []
    add_c, add_cum = c.append, cum.append
    total = 0.0
    Bf = float(B)
    for _ in range(L):
        cj = (K - total) / 2.0
        if Bf < cj:
            cj = Bf
        add_c(cj)
        total += cj
        add_cum(total)
    c_int = tuple(map(int, c))  # every c_j >= 0, so int() is floor()
    return ExplorationSchedule(K, Bf, tuple(c), c_int, tuple(cum))
