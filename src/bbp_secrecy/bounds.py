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
one pass that yields the per-step main entropies and the running main and
leakage sums, held in a ``BoundPoint``; ``bound_point(K, B, L)`` is the
entry point for a plain (K, B, L) query.  ``prefix_probability_table`` maps
each key (j, k) of a prefix 0^k 1^(j-1-k) to its numbers alone,
``PrefixEntry(mass, flip)``; a caller that wants the prefix spelled out
builds it from the key.

The schedule recursion runs forward and no term of a step reads a later one,
so ``BoundPoint.prefix(l)`` reads the bounds of every block l <= L off one
pass, bit for bit those of ``bound_point(K, B, l)``.

The T3 factors c_{k+1}^2 / K^2 (per schedule) and h = (1/2)^(2m+1) (a
constant) are precomputed.  Every term keeps the formula's float operations
and addition order, so the outputs are byte-identical.  ``closed_forms``
divides the factors by the T3 divisor once; scaling by the power of two h is
exact, so this changes no normal product, and a subnormal one lies far below
half an ulp of the total, which holds H(c_1/K) >= 2 c_1/K >= 2 factors.
Each step skips its leading deep terms below half an ulp of the total at
step 4: under round-to-nearest no such term can change the total, which only
grows, and each term shrinks 4-fold per step, so the cut only moves forward
and a long block adds a few deep terms per step, not j - 3.

Each share and its entropy is computed once per step.  A halving step's
share c/rem is exactly 1/2, whose inlined entropy is exactly 1.0; the next T2
share, half of it, is exactly 1/4, whose entropy ``_H_QUARTER`` is that
expression taken at import.  Both are tested on the value, so a zero or
subnormal rem takes the general formula.  Totals are added left to right, as
``sum()`` does only up to Python 3.11.
"""

from __future__ import annotations

from math import log2, ulp
from typing import NamedTuple

from .model import MAX_USES, ExplorationSchedule, compute_schedule

T3_VARIANTS = ("as_printed", "state_summed")

# half[m] = (1/2)^(2m+1) for every m a block can reach.
_HALF = [0.5**e for e in range(1, 2 * MAX_USES, 2)]
_H_QUARTER = -0.25 * log2(0.25) - (1.0 - 0.25) * log2(1.0 - 0.25)


class BoundPoint(NamedTuple):
    """Closed-form bounds for the (K, B, L) instance ``schedule`` carries.

    ``main_steps`` holds the per-step main entropies, ``main_totals`` and
    ``leakage_totals`` the running sums after each step; ``prefix(l)`` reads
    the bounds over the first l <= L uses off them.  ``outer``, ``leakage``,
    ``inner_raw`` and ``inner`` are ``prefix(L)``: ``inner_raw`` is outer
    minus leakage before flooring; ``inner`` is clamped to be non-negative.
    """

    schedule: ExplorationSchedule
    main_steps: list[float]
    main_totals: list[float]
    leakage_totals: list[float]

    def prefix(self, l: int) -> tuple[float, float, float, float]:
        """(outer, leakage, inner_raw, inner) over the first l uses, 1 <= l <= L."""
        if not 1 <= l <= len(self.main_totals):
            raise ValueError(f"block length must be in 1..{len(self.main_totals)}, got {l}")
        # A single use leaves no room for a secret message: the outer bound is 0.
        outer = self.main_totals[l - 1] / l if l > 1 else 0.0
        leak = self.leakage_totals[l - 1] / l
        raw = outer - leak
        return outer, leak, raw, raw if raw > 0.0 else 0.0

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


def _t3_divisor(sched: ExplorationSchedule, t3_variant: str) -> float:
    """div in the T3 mass sq[k] * _HALF[j-k-3] / div of prefix 0^k 1^(j-1-k), j-1-k >= 2.

    sq[k] = c_{k+1}^2 / K^2; div is K, or 1 (exact) for ``state_summed``.
    """
    if t3_variant not in T3_VARIANTS:
        raise ValueError(f"unknown t3_variant {t3_variant!r}")
    return float(sched.K) if t3_variant == "as_printed" else 1.0


def prefix_probability_table(
    sched: ExplorationSchedule, t3_variant: str = "as_printed"
) -> dict[tuple[int, int], PrefixEntry]:
    """Tabulate closed-form prefix masses and flip probabilities, keyed by (j, k).

    For each step j the monotone prefixes 0^k 1^(j-1-k), k in [0, j-1], are
    listed.  Non-monotone prefixes carry the remaining probability mass and
    contribute no entropy in the closed form.
    """
    div = _t3_divisor(sched, t3_variant)
    K = sched.K
    K2 = K**2
    sq = [cj**2 / K2 for cj in sched.c]
    entries: dict[tuple[int, int], PrefixEntry] = {}
    c_prev = rem_prev = 0.0
    for j, (cumr, cj) in enumerate(zip((0.0, *sched.cum), sched.c), 1):
        rem = K - cumr
        entries[j, j - 1] = PrefixEntry(rem / K, cj / K)  # T1: the all-zero prefix
        if j >= 2:  # T2: one trailing one
            entries[j, j - 2] = PrefixEntry(c_prev * rem_prev / K2,
                                            0.5 * (c_prev / rem_prev if rem_prev else 0.0))
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
    div = _t3_divisor(sched, t3_variant)
    K = float(sched.K)  # an int operand converts to the same float in each operation
    K2 = float(sched.K**2)
    deep = [cj**2 / K2 / div for cj in sched.c[1:]]
    main, main_totals, totals = [], [], []
    add_main, add_main_total, add_total = main.append, main_totals.append, totals.append
    main_total = total = c_prev = rem_prev = p_prev = 0.0
    start = 0  # deep[:start] lie below q, half an ulp of the total at j = 4
    for j, (cumr, cj) in enumerate(zip((0.0, *sched.cum), sched.c), 1):
        rem = K - cumr
        w = rem / K
        # Every share p lies in [0, 1/2], so H(p) is inlined with only its p = 0 case.  Once the
        # float sum of the schedule reaches K, c = rem = 0 and 0 / 0 is taken as 0 (on weight 0).
        p = cj / rem if rem else 0.0
        h = 1.0 if p == 0.5 else -p * log2(p) - (1.0 - p) * log2(1.0 - p) if p else 0.0
        m = w * h + cumr / K
        add_main(m)
        main_total += m
        add_main_total(main_total)
        p1 = cj / K
        total += w * (-p1 * log2(p1) - (1.0 - p1) * log2(1.0 - p1) if p1 else 0.0)
        if j >= 2:  # the T2 share is half the step before's main share
            p2 = 0.5 * p_prev
            h = _H_QUARTER if p2 == 0.25 else -p2 * log2(p2) - (1.0 - p2) * log2(1.0 - p2) if p2 else 0.0
            total += (c_prev * rem_prev / K2) * h
        if j >= 4:  # deep prefixes, two or more trailing ones, start at step 4
            if j == 4:
                q = ulp(total) / 2
            while start < j - 3 and deep[start] * _HALF[j - 4 - start] < q:
                start += 1
            # H(1/2) = 1, so deep prefixes contribute their mass directly.
            for k in range(start, j - 3):
                total += deep[k] * _HALF[j - 4 - k]
        add_total(total)
        c_prev, rem_prev, p_prev = cj, rem, p
    return BoundPoint(sched, main, main_totals, totals)


def bound_point(K: int, B: float, L: int) -> BoundPoint:
    """Outer, leakage and inner bounds for one (K, B, L) instance."""
    return closed_forms(compute_schedule(K, B, L))
