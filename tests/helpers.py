"""Checks shared by the test modules: a G-test against an exact law and a replay state."""

import math

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
