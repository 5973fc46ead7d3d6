"""Checks shared by the test modules: a G-test against an exact law, a replay
state, the policy's exact main rate in closed form and the condition under
which it equals the paper's."""

import math
from functools import cache

from bbp_secrecy.channel import draw_states

G_TEST_LEVEL = 1e-3  # fixed before the G-tests were first run


def chi2_upper_tail(x: float, dof: int) -> float:
    """P(chi^2_dof >= x) by the Wilson-Hilferty cube-root normal approximation.

    (x/dof)^(1/3) is close to normal with mean 1 - 2/(9 dof) and variance
    2/(9 dof).
    """
    v = 2 / (9 * dof)
    z = ((x / dof) ** (1 / 3) - (1 - v)) / math.sqrt(v)
    return 0.5 * math.erfc(z / math.sqrt(2))


def g_test(counts, law: dict, denominator: int) -> tuple[float, int, float]:
    """(G, dof, p) of (y_l, y_e) pattern counts against an exact law, cells
    with fewer than 5 expected blocks pooled into one."""
    n = sum(counts.values())
    assert set(counts) <= set(law), "a simulated pattern has exact probability 0"
    cells, pooled = [], [0, 0.0]
    for pattern, weight in law.items():
        seen, expected = counts.get(pattern, 0), n * weight / denominator
        if expected < 5:
            pooled[0] += seen
            pooled[1] += expected
        else:
            cells.append((seen, expected))
    if pooled[1]:
        cells.append(pooled)
    g = 2 * sum(seen * math.log(seen / expected) for seen, expected in cells if seen)
    dof = len(cells) - 1
    return g, dof, chi2_upper_tail(g, dof)


def other_eavesdropper_state(K, rng):
    """``channel.draw_states`` with both draws taken, the eavesdropper moved one beam on."""
    s_l, s_e = draw_states(K, rng)
    return s_l, s_e % K + 1


def policy_main_rate(K: int, c_int: tuple[int, ...]) -> float:
    """The policy's exact main rate, written apart from the oracle's chain.

    The legitimate beam is uniform and every probe size depends on the y_l
    history alone, so a y_l pattern has probability l/K, where l is the size
    of the set of beams consistent with it, and
    L·main = log2 K - (1/K) sum l·log2 l.  The sum runs over the K - sum(c_int)
    beams never probed and over the leaves of each c_d after L - d steps of
    floored bisection: step t after detection probes
    q = min(max(c_d >> t, 1), n) of the n beams left, splitting n into q
    and n - q.
    """
    L = len(c_int)

    @cache
    def leaves(n: int, d: int, t: int) -> float:
        """sum l·log2 l over the leaves of n beams, t steps after detection at step d."""
        if n <= 1:
            return 0.0
        if d + t > L:
            return n * math.log2(n)
        q = min(max(c_int[d - 1] >> t, 1), n)
        return leaves(q, d, t + 1) + leaves(n - q, d, t + 1)

    unprobed = K - sum(c_int)
    total = unprobed * math.log2(unprobed) if unprobed else 0.0
    total += sum(leaves(c, d, 1) for d, c in enumerate(c_int, 1))
    return (math.log2(K) - total / K) / L


def outer_is_exact(sched) -> bool:
    """Whether the policy's exact per-step main entropies are the closed ones.

    The schedule is integral and 2^(L-d) divides every nonzero c_int[d-1]
    for d < L: then every bisection after a detection at step d halves
    exactly and none reaches a single beam before step L, so each step still
    carries the bit the closed form charges.
    """
    L = sched.L
    divisible = all(c % (1 << (L - d)) == 0 for d, c in enumerate(sched.c_int[:-1], 1))
    return sched.is_integral and divisible
