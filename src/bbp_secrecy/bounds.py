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
exact-law oracle to decide which variant reproduces the transcript
law.  The default everywhere is the expression as written above.

The closed forms are functions of the schedule c_1..c_L alone: they take an
``ExplorationSchedule`` and read K and L from it, so a caller that holds a
schedule never builds it again.  ``bound_point(K, B, L)`` is the entry point
for a plain (K, B, L) query.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ExplorationSchedule, binary_entropy, compute_schedule

T3_VARIANTS = ("as_printed", "state_summed")


@dataclass(frozen=True)
class BoundPoint:
    """Closed-form bounds for one (K, B, L) instance.

    ``inner_raw`` is outer minus leakage before flooring; ``inner`` is
    clamped to be non-negative.
    """

    K: int
    L: int
    B: float
    outer: float
    leakage: float
    inner_raw: float
    inner: float


@dataclass(frozen=True)
class PrefixEntry:
    """One tabulated eavesdropper-output prefix 0^k 1^(j-1-k) at step j.

    ``mass`` is the closed-form probability of observing the prefix;
    ``flip`` the closed-form P(Y_j^e = 1 | prefix).  ``kind`` is one of
    ``unexplored`` (all-zero prefix), ``just_hit`` (single trailing one) or
    ``post_detection`` (two or more trailing ones).  (j, k) identifies the
    entry; ``prefix`` spells it out for display.
    """

    j: int
    k: int
    prefix: str
    mass: float
    flip: float
    kind: str


def _share(c: float, rem: float) -> float:
    """c / rem, taking 0 / 0 as 0.

    For long blocks the float sum of the schedule reaches K, and from then on
    both c and rem are exactly 0; every term that uses the share then has
    weight rem = 0 or c = 0, so its value does not count.
    """
    return c / rem if rem else 0.0


def _deep_mass(sched: ExplorationSchedule, j: int, k: int, t3_variant: str) -> float:
    """Closed-form mass of the prefix 0^k 1^(j-1-k) with j - 1 - k >= 2."""
    K = sched.K
    base = (sched.c[k] ** 2 / K**2) * 0.5 ** (2 * (j - k - 2) - 1)
    if t3_variant == "as_printed":
        return base / K
    return base


def prefix_probability_table(
    sched: ExplorationSchedule, t3_variant: str = "as_printed"
) -> dict[tuple[int, int], PrefixEntry]:
    """Tabulate closed-form prefix masses and flip probabilities, keyed by (j, k).

    For each step j the monotone prefixes 0^k 1^(j-1-k), k in [0, j-1], are
    listed.  Non-monotone prefixes carry the remaining probability mass and
    contribute no entropy in the closed form.
    """
    if t3_variant not in T3_VARIANTS:
        raise ValueError(f"unknown t3_variant {t3_variant!r}")
    K, L = sched.K, sched.L
    entries: dict[tuple[int, int], PrefixEntry] = {}
    for j in range(1, L + 1):
        for k in range(j - 1, -1, -1):
            prefix = "0" * k + "1" * (j - 1 - k)
            if k == j - 1:
                mass = (K - sched.cum_before(j)) / K
                flip = sched.c[j - 1] / K
                kind = "unexplored"
            elif k == j - 2:
                rem = K - sched.cum_before(j - 1)
                mass = sched.c[j - 2] * rem / K**2
                flip = 0.5 * _share(sched.c[j - 2], rem)
                kind = "just_hit"
            else:
                mass = _deep_mass(sched, j, k, t3_variant)
                flip = 0.5
                kind = "post_detection"
            entries[(j, k)] = PrefixEntry(j=j, k=k, prefix=prefix, mass=mass, flip=flip, kind=kind)
    return entries


def main_step_entropies(sched: ExplorationSchedule) -> list[float]:
    """Closed-form per-step entropy of the legitimate feedback bit.

    Step j contributes (1 - cum_{j-1}/K) * H(c_j / (K - cum_{j-1})) from
    blocks still exploring plus cum_{j-1}/K from blocks that have already
    localized the beam (one full bit per use there).
    """
    K = sched.K
    out = []
    for j in range(1, sched.L + 1):
        cumr = sched.cum_before(j)
        rem = K - cumr
        out.append((rem / K) * binary_entropy(_share(sched.c[j - 1], rem)) + cumr / K)
    return out


def leakage_rate(sched: ExplorationSchedule, t3_variant: str = "as_printed") -> float:
    """Per-use equivocation loss to the eavesdropper (bits/channel use)."""
    if t3_variant not in T3_VARIANTS:
        raise ValueError(f"unknown t3_variant {t3_variant!r}")
    K, L = sched.K, sched.L
    total = 0.0
    for j in range(1, L + 1):
        rem = K - sched.cum_before(j)
        total += (rem / K) * binary_entropy(sched.c[j - 1] / K)
        if j >= 2:
            rem2 = K - sched.cum_before(j - 1)
            total += (sched.c[j - 2] * rem2 / K**2) * binary_entropy(
                0.5 * _share(sched.c[j - 2], rem2)
            )
        for k in range(1, j - 2):
            # H(1/2) = 1, so deep prefixes contribute their mass directly.
            total += _deep_mass(sched, j, k, t3_variant)
    return total / L


def bound_point(K: int, B: float, L: int) -> BoundPoint:
    """Outer, leakage and inner bounds for one instance, from one schedule."""
    sched = compute_schedule(K, B, L)
    # A single use leaves no room for a secret message: the outer bound is 0.
    outer = sum(main_step_entropies(sched)) / L if L > 1 else 0.0
    leak = leakage_rate(sched)
    raw = outer - leak
    return BoundPoint(K=K, L=L, B=float(B), outer=outer, leakage=leak, inner_raw=raw, inner=max(0.0, raw))
