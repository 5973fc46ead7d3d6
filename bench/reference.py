"""Reference values for the benchmark's correctness checks.

Written apart from ``bbp_secrecy.channel`` and ``bbp_secrecy.oracle``: the
exact law comes from a forward recursion over a lumped state instead of an
enumeration of probe sets, and the closed forms are evaluated again from
the formulas in the ``bbp_secrecy.bounds`` docstring.  Nothing here imports
the package under test.

The lumped state.  The candidate pool always holds the legitimate beam, and
each pool is a subset of the one before it, so a block is described by

* the pool size ``n`` (the next probe is a uniform ``q``-subset of the pool),
* the step of the first legitimate hit, which fixes ``q``,
* where the eavesdropper sits: on the legitimate beam (coincident), in the
  pool on another beam, or out of the pool (it is never hit again).

On a legitimate miss the next pool is the pool minus the probe; on a hit it
is the probe.  A distinct eavesdropper stays in the pool exactly when its
bit equals the legitimate bit.  By symmetry of the beam labels the
eavesdropper is coincident with probability 1/K.
"""

from __future__ import annotations

import math
from fractions import Fraction

COINCIDENT, IN_POOL, OUT_OF_POOL = 0, 1, 2


def schedule(K: int, B: float, L: int) -> list[float]:
    """Real-valued exploration schedule c_j = min((K - sum_{k<j} c_k) / 2, B)."""
    c, total = [], 0.0
    for _ in range(L):
        cj = min((K - total) / 2.0, float(B))
        c.append(cj)
        total += cj
    return c


def law(K: int, B: float, L: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
    """Exact joint law of the feedback patterns (y_l, y_e) of one block.

    Keys are pairs of bit tuples, step 1 first, as in
    ``bbp_secrecy.oracle.exact_enumeration(...).law``.  Fractional schedule
    entries are floored, as the simulator floors them.
    """
    c_int = [math.floor(cj) for cj in schedule(K, B, L)]
    # (y_l, y_e, pool size, first-hit step or 0, eavesdropper place) -> mass
    frontier = {
        ((), (), K, 0, COINCIDENT): Fraction(1, K),
        ((), (), K, 0, IN_POOL): Fraction(K - 1, K),
    }
    for j in range(1, L + 1):
        nxt: dict = {}
        for (yl, ye, n, hit, place), w in frontier.items():
            q = c_int[j - 1] if hit == 0 else max(c_int[hit - 1] >> (j - hit), 1)
            q = min(q, n)
            if place == IN_POOL:
                pair = n * (n - 1)
                branches = (
                    (1, 1, q * (q - 1), IN_POOL),
                    (1, 0, q * (n - q), OUT_OF_POOL),
                    (0, 1, (n - q) * q, OUT_OF_POOL),
                    (0, 0, (n - q) * (n - q - 1), IN_POOL),
                )
            else:
                pair = n
                e_hit = 1 if place == COINCIDENT else 0
                branches = ((1, e_hit, q, place), (0, 0, n - q, place))
            for bl, be, ways, nplace in branches:
                if ways == 0:
                    continue
                key = (
                    yl + (bl,),
                    ye + (be,),
                    q if bl else n - q,
                    j if bl and hit == 0 else hit,
                    nplace,
                )
                nxt[key] = nxt.get(key, Fraction(0)) + w * Fraction(ways, pair)
        frontier = nxt
    out: dict = {}
    for (yl, ye, *_), w in frontier.items():
        out[(yl, ye)] = out.get((yl, ye), Fraction(0)) + w
    return out


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def prefix_cells(joint: dict, stream: int, L: int) -> list[dict]:
    """Per step j, prefix of the first j-1 bits -> [mass, mass with bit j = 1]."""
    out = []
    for j in range(1, L + 1):
        cells: dict[tuple[int, ...], list[Fraction]] = {}
        for pattern, w in joint.items():
            y = pattern[stream]
            cell = cells.setdefault(y[: j - 1], [Fraction(0), Fraction(0)])
            cell[0] += w
            if y[j - 1]:
                cell[1] += w
        out.append(cells)
    return out


def step_entropies(joint: dict, stream: int, L: int) -> list[float]:
    """H(Y_j | Y^{j-1}) for each step of one stream (0 legitimate, 1 eavesdropper)."""
    return [
        sum(float(m) * h2(float(ones / m)) for m, ones in cells.values() if m)
        for cells in prefix_cells(joint, stream, L)
    ]


def rates(joint: dict, L: int) -> tuple[float, float]:
    """(main rate, leakage rate) in bits per channel use from an exact law."""
    return sum(step_entropies(joint, 0, L)) / L, sum(step_entropies(joint, 1, L)) / L


def hits_after_split(joint: dict, L: int) -> tuple[Fraction, Fraction]:
    """Mass of eavesdropper hits after an earlier joint step (1,0), and after (0,1).

    Each step with an eavesdropper hit counts once, as in the verify report.
    """
    after_10 = after_01 = Fraction(0)
    for (yl, ye), w in joint.items():
        for j in range(L):
            if ye[j]:
                seen = set(zip(yl[:j], ye[:j]))
                after_10 += w if (1, 0) in seen else 0
                after_01 += w if (0, 1) in seen else 0
    return after_10, after_01


def plug_in_rate(counts: dict, stream: int, L: int) -> float:
    """Plug-in (1/L) sum_j H(Y_j | Y^{j-1}) from counts keyed by packed
    (y_l, y_e) patterns, step j in bit j-1."""
    total = sum(counts.values())
    acc = 0.0
    for j in range(1, L + 1):
        cells: dict[int, list[int]] = {}
        for pattern, n in counts.items():
            bits = pattern[stream]
            cell = cells.setdefault(bits & ((1 << (j - 1)) - 1), [0, 0])
            cell[0] += n
            cell[1] += n * ((bits >> (j - 1)) & 1)
        acc += sum(n / total * h2(ones / n) for n, ones in cells.values())
    return acc / L


def plug_in_bias_bound(joint: dict, stream: int, L: int, blocks: int) -> float:
    """Upper bound on how far the plug-in rate of ``blocks`` blocks falls
    below the exact rate on average.

    The plug-in entropy of a binary variable from n samples is biased low by
    at most log2(1 + 1/n) <= 1/(n ln 2) bits (Paninski, Neural Computation
    15, 2003, Prop. 1), and by at most the cell's own entropy.  A prefix of
    mass p is seen in a share n/N of the blocks with probability at most
    min(1, N p), which gives the bound per cell below.
    """
    total = 0.0
    for cells in prefix_cells(joint, stream, L):
        for m, ones in cells.values():
            p = float(m)
            total += min(p * h2(float(ones / m)), min(1.0, blocks * p) / (blocks * math.log(2)))
    return total / L


def plug_in_sd(joint: dict, stream: int, L: int, blocks: int) -> float:
    """Standard deviation of the plug-in rate of ``blocks`` blocks (delta method).

    By the chain rule the plug-in rate's influence function is
    (-log2 P(y) - H(Y)) / L for a block whose stream pattern is y, so its
    variance is Var[-log2 P(Y)] / (L^2 N), from the exact marginal law.
    """
    marginal: dict[tuple[int, ...], Fraction] = {}
    for pattern, w in joint.items():
        marginal[pattern[stream]] = marginal.get(pattern[stream], Fraction(0)) + w
    surprisal = [(float(p), -math.log2(p)) for p in marginal.values()]
    mean = sum(p * s for p, s in surprisal)
    var = sum(p * (s - mean) ** 2 for p, s in surprisal)
    return math.sqrt(var / blocks) / L


def closed_main_steps(K: int, B: float, L: int) -> list[float]:
    """Closed-form per-step legitimate entropies (1 - cum_{j-1}/K) H(c_j/(K - cum_{j-1})) + cum_{j-1}/K."""
    c = schedule(K, B, L)
    out, cum = [], 0.0
    for cj in c:
        free = K - cum
        out.append((free / K) * h2(cj / free) + cum / K)
        cum += cj
    return out


def closed_forms(K: int, B: float, L: int, state_summed: bool = False) -> tuple[float, float]:
    """(outer, leakage) from the closed forms.

    R_out = (1/L) sum_j [(1 - cum_{j-1}/K) H(c_j / (K - cum_{j-1})) + cum_{j-1}/K],
    zero for L = 1; leakage = (1/L) sum_j (T1_j + T2_j + T3_j) with
    T1_j = ((K - cum_{j-1})/K) H(c_j/K),
    T2_j = (c_{j-1} (K - cum_{j-2})/K^2) H(c_{j-1} / (2 (K - cum_{j-2}))) for j >= 2,
    T3_j = sum_{k=1}^{j-3} (1/K) (c_{k+1}^2/K^2) (1/2)^(2(j-k-2)-1),
    without the leading 1/K when ``state_summed``.
    """
    c = schedule(K, B, L)
    t3_coefficient = 1.0 if state_summed else 1 / K
    cum = [0.0]
    for cj in c:
        cum.append(cum[-1] + cj)
    outer = 0.0
    leak = 0.0
    for j in range(1, L + 1):
        free = K - cum[j - 1]
        outer += (free / K) * h2(c[j - 1] / free) + cum[j - 1] / K
        leak += (free / K) * h2(c[j - 1] / K)
        if j >= 2:
            free2 = K - cum[j - 2]
            leak += (c[j - 2] * free2 / K**2) * h2(0.5 * c[j - 2] / free2)
        for k in range(1, j - 2):
            leak += t3_coefficient * (c[k] ** 2 / K**2) * 0.5 ** (2 * (j - k - 2) - 1)
    return (outer / L if L >= 2 else 0.0), leak / L
