"""Closed-form secrecy-rate bounds for the beampointing wiretap channel.

The outer bound is the feedback capacity of the legitimate link per block:

    R_out = (1/L) * sum_j [ (1 - cum_{j-1}/K) * H(c_j / (K - cum_{j-1}))
                            + cum_{j-1}/K ]        (L >= 2; zero for L = 1)

where cum_{j-1} = c_1 + ... + c_{j-1} and H is the binary entropy.  The
equivocation loss to the eavesdropper is accumulated over output-prefix
classes of the form 0^k 1^(j-1-k):

    T1_j = ((K - cum_{j-1}) / K) * H(c_j / K)
    T2_j = (c_{j-1} (K - cum_{j-2}) / K^2) * H((1/2) c_{j-1} / (K - cum_{j-2}))
    T3_j = sum_{k=1}^{j-3} (1/K) (c_{k+1}^2 / K^2) (1/2)^(2(j-k-2)-1)

and the inner bound is the outer bound minus the leakage rate, floored at
zero.  The T3 coefficient is also provided in a ``state_summed`` variant
that drops the leading 1/K (i.e. sums the per-state prefix mass over the K
equiprobable eavesdropper states); ``verify_against_closed_forms`` uses the
exact-law oracle to decide which variant reproduces the transcript law.
``closed_forms`` and ``prefix_probability_table`` take it as ``t3_variant``;
the default everywhere is the expression as written above.

The closed forms are functions of the schedule c_1..c_L alone: they take an
``ExplorationSchedule`` and read K and L from it, so a caller that holds a
schedule never builds it again.  ``closed_forms(sched, t3_variant)`` is the
one pass that yields the per-step main entropies and the running leakage
sums, held in a ``BoundPoint``; ``bound_point(K, B, L)`` is the entry point
for a plain (K, B, L) query.  ``prefix_probability_table`` maps each key
(j, k) of a prefix 0^k 1^(j-1-k) to its numbers alone,
``PrefixEntry(mass, flip)``; a caller that wants the prefix spelled out
builds it from the key.

The schedule recursion runs forward and no term of a step reads a later one,
so ``BoundPoint.prefix(l)`` reads the bounds of every block l <= L off one
pass, bit for bit those of ``bound_point(K, B, l)``.

The T3 factors c_{k+1}^2 / K^2 (per schedule) and (1/2)^(2m+1) (a constant)
are precomputed.  Every term keeps the formula's float operations and
addition order, so the outputs are byte-identical.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import MAX_USES, ExplorationSchedule, binary_entropy, compute_schedule

T3_VARIANTS = ("as_printed", "state_summed")

# half[m] = (1/2)^(2m+1) for every m a block can reach, and the same backwards.
_HALF = [0.5**e for e in range(1, 2 * MAX_USES, 2)]
_HALF_DOWN = _HALF[::-1]


class BoundPoint(NamedTuple):
    """Closed-form bounds for the (K, B, L) instance ``schedule`` carries.

    ``main_steps`` holds the per-step main entropies and ``leakage_totals``
    the running leakage sum after each step; ``prefix(l)`` reads the bounds
    over the first l <= L uses off them.  ``outer``, ``leakage``,
    ``inner_raw`` and ``inner`` are ``prefix(L)``: ``inner_raw`` is outer
    minus leakage before flooring; ``inner`` is clamped to be non-negative.
    """

    schedule: ExplorationSchedule
    main_steps: list[float]
    leakage_totals: list[float]

    def prefix(self, l: int) -> tuple[float, float, float, float]:
        """(outer, leakage, inner_raw, inner) over the first l uses, 1 <= l <= L."""
        if not 1 <= l <= self.schedule.L:
            raise ValueError(f"block length must be in 1..{self.schedule.L}, got {l}")
        # A single use leaves no room for a secret message: the outer bound is 0.
        outer = sum(self.main_steps[:l]) / l if l > 1 else 0.0
        leak = self.leakage_totals[l - 1] / l
        raw = outer - leak
        return outer, leak, raw, max(0.0, raw)

    outer = property(lambda self: self.prefix(self.schedule.L)[0])
    leakage = property(lambda self: self.prefix(self.schedule.L)[1])
    inner_raw = property(lambda self: self.prefix(self.schedule.L)[2])
    inner = property(lambda self: self.prefix(self.schedule.L)[3])


class PrefixEntry(NamedTuple):
    """Closed-form numbers of the eavesdropper-output prefix 0^k 1^(j-1-k) at step j.

    ``mass`` is the probability of observing the prefix, ``flip`` the
    P(Y_j^e = 1 | prefix).  The table key (j, k) names the prefix: k = j-1 is
    the all-zero prefix, k = j-2 a single trailing one, and k <= j-3 a
    post-detection prefix (two or more trailing ones, flip 1/2).
    """

    mass: float
    flip: float


def _share(c: float, rem: float) -> float:
    """c / rem, taking 0 / 0 as 0.

    For long blocks the float sum of the schedule reaches K, and from then on
    both c and rem are exactly 0; every term that uses the share then has
    weight rem = 0 or c = 0, so its value does not count.
    """
    return c / rem if rem else 0.0


def _deep_factors(sched: ExplorationSchedule, t3_variant: str) -> tuple[list, float]:
    """T3 mass of prefix 0^k 1^(j-1-k), j-1-k >= 2: sq[k] * _HALF[j-k-3] / div.

    sq[k] = c_{k+1}^2 / K^2; div is K, or 1 (exact) for ``state_summed``.
    """
    if t3_variant not in T3_VARIANTS:
        raise ValueError(f"unknown t3_variant {t3_variant!r}")
    K2 = sched.K**2
    return [cj**2 / K2 for cj in sched.c], float(sched.K) if t3_variant == "as_printed" else 1.0


def prefix_probability_table(
    sched: ExplorationSchedule, t3_variant: str = "as_printed"
) -> dict[tuple[int, int], PrefixEntry]:
    """Tabulate closed-form prefix masses and flip probabilities, keyed by (j, k).

    For each step j the monotone prefixes 0^k 1^(j-1-k), k in [0, j-1], are
    listed.  Non-monotone prefixes carry the remaining probability mass and
    contribute no entropy in the closed form.
    """
    sq, div = _deep_factors(sched, t3_variant)
    K = sched.K
    entries: dict[tuple[int, int], PrefixEntry] = {}
    c_prev = rem_prev = 0.0
    for j, (cumr, cj) in enumerate(zip((0.0, *sched.cum), sched.c), 1):
        rem = K - cumr
        entries[j, j - 1] = PrefixEntry(rem / K, cj / K)  # T1: the all-zero prefix
        if j >= 2:  # T2: one trailing one
            entries[j, j - 2] = PrefixEntry(c_prev * rem_prev / K**2,
                                            0.5 * _share(c_prev, rem_prev))
        for k in range(j - 3, -1, -1):  # T3: two or more trailing ones
            entries[j, k] = PrefixEntry(sq[k] * _HALF[j - k - 3] / div, 0.5)
        c_prev, rem_prev = cj, rem
    return entries


def closed_forms(sched: ExplorationSchedule, t3_variant: str = "as_printed") -> BoundPoint:
    """Closed-form bounds of the instance ``sched`` carries, in one pass over the steps.

    Main step j contributes (1 - cum_{j-1}/K) * H(c_j / (K - cum_{j-1})) from
    blocks still exploring plus cum_{j-1}/K from blocks that have already
    localized the beam (one full bit per use there).  Leakage entry l-1 is l
    times the rate at l uses, with the T3 coefficient ``t3_variant`` names.
    """
    sq, div = _deep_factors(sched, t3_variant)
    K = sched.K
    K2 = K**2
    sq1 = sq[1:]
    main, totals = [], []
    total = c_prev = rem_prev = 0.0
    for j, (cumr, cj) in enumerate(zip((0.0, *sched.cum), sched.c), 1):
        rem = K - cumr
        main.append((rem / K) * binary_entropy(_share(cj, rem)) + cumr / K)
        total += (rem / K) * binary_entropy(cj / K)
        if j >= 2:
            total += (c_prev * rem_prev / K2) * binary_entropy(0.5 * _share(c_prev, rem_prev))
        # H(1/2) = 1, so deep prefixes contribute their mass directly.
        for s, h in zip(sq1, _HALF_DOWN[MAX_USES - j + 3 :]):  # half[j-4], ..., half[0]
            total += s * h / div
        totals.append(total)
        c_prev, rem_prev = cj, rem
    return BoundPoint(sched, main, totals)


def bound_point(K: int, B: float, L: int) -> BoundPoint:
    """Outer, leakage and inner bounds for one (K, B, L) instance."""
    return closed_forms(compute_schedule(K, B, L))
