import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbp_secrecy.bounds import bound_point
from bbp_secrecy.model import (
    ModelConfig,
    binary_entropy,
    compute_schedule,
    prefix_cells,
    step_entropies,
)
from bbp_secrecy.oracle import MAX_K, MAX_L, _lumped_law

H_QUARTER = 0.8112781244591328  # -0.25*log2(0.25) - 0.75*log2(0.75)

SCHEDULES = [
    (32, 8, 5, [8, 8, 8, 4, 2]),
    (32, 32, 3, [16, 8, 4]),
    (2, 1, 2, [1, 0.5]),
    (4, 1, 3, [1, 1, 1]),
    (8, 2, 4, [2, 2, 2, 1]),
    (8, 2, 2, [2, 2]),
]


def test_binary_entropy_known_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)


@pytest.mark.parametrize("p", [-0.1, -1e-9, 1.0000001, 2.0])
def test_binary_entropy_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        binary_entropy(p)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric_and_bounded(p):
    h = binary_entropy(p)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)
    assert h <= binary_entropy(0.5)


@pytest.mark.parametrize("K,B,L,want", SCHEDULES)
def test_schedule_hand_unrolled(K, B, L, want):
    s = compute_schedule(K, B, L)
    assert list(s.c) == [float(x) for x in want]
    assert list(s.c_int) == [int(x) for x in want]
    assert s.is_integral == all(x == int(x) for x in want)


def _ref_schedule(K, B, L):
    c, cum, total = [], [], 0.0
    for _ in range(L):
        cj = min((K - total) / 2.0, float(B))
        c.append(cj)
        total += cj
        cum.append(total)
    return c, [math.floor(cj) for cj in c], cum


@pytest.mark.parametrize(
    "K,B,L",
    [
        (32, 8, 5),
        (64, 10.3, 40),
        (7, 3.5, 12),
        (1000, 1000 / math.e, 1024),
        (32, 16, 20),
        (32, 31.5, 20),
        (32, 32, 1024),
        (2**53, 2**52, 1024),
        (2**53, 2**53, 1024),
        (2**53, 2**53 / 3, 1024),
        (2**53, 0.1, 1024),
        (2**53, 5e-324, 64),
        (2, 1e-300, 1024),
    ],
)
def test_schedule_equals_plain_min_recursion(K, B, L):
    s = compute_schedule(K, B, L)
    c, c_int, cum = _ref_schedule(K, B, L)
    assert (s.K, type(s.B), s.B.hex()) == (K, float, float(B).hex())
    assert [x.hex() for x in s.c] == [x.hex() for x in c]
    assert list(s.c_int) == c_int
    assert [x.hex() for x in s.cum] == [x.hex() for x in cum]


def test_schedule_partial_sums():
    s = compute_schedule(32, 8, 5)
    assert list(s.cum) == [8, 16, 24, 28, 30]


@given(K=st.integers(2, 64), B=st.integers(1, 64), L=st.integers(1, 12))
def test_schedule_recursion_invariants(K, B, L):
    B = min(B, K)
    s = compute_schedule(K, B, L)
    cum = 0.0
    for c in s.c:
        assert c == pytest.approx(min((K - cum) / 2, B), abs=1e-12)
        assert 0.0 <= c <= B
        cum += c
    assert cum <= K
    assert s.cum[-1] == pytest.approx(cum, abs=1e-12)
    assert all(ci == int(cf) for cf, ci in zip(s.c, s.c_int))


@given(K=st.integers(2, 16), B=st.integers(1, 16), L=st.integers(1, 8), m=st.integers(1, 4))
def test_schedule_scale_covariance(K, B, L, m):
    B = min(B, K)
    base = compute_schedule(K, B, L)
    scaled = compute_schedule(m * K, m * B, L)
    for a, b in zip(base.c, scaled.c):
        assert b == pytest.approx(m * a, rel=1e-12)


def test_schedule_halves_once_budget_stops_binding():
    assert list(compute_schedule(32, 8, 6).c) == [8, 8, 8, 4, 2, 1]
    # once the remaining-beams branch wins, entries are non-increasing
    s = compute_schedule(64, 10, 8)
    switched = [j for j, c in enumerate(s.c) if c < 10]
    for a, b in zip(switched, switched[1:]):
        assert s.c[b] <= s.c[a]


def test_cumulative_exploration_monotone_in_budget():
    for L in (2, 5, 8):
        prev = None
        for B in range(1, 33):
            cum = list(compute_schedule(32, B, L).cum)
            if prev is not None:
                assert all(b >= a - 1e-12 for a, b in zip(prev, cum))
            prev = cum


def test_individual_entries_can_decrease_in_budget():
    # a larger budget explores more up front, leaving less for later steps
    assert compute_schedule(32, 12, 3).c[1] == 10.0
    assert compute_schedule(32, 14, 3).c[1] == 9.0


@pytest.mark.parametrize("L", [1, 2, 5, 12])
def test_schedule_saturates_at_half_k(L):
    base = compute_schedule(32, 16, L)
    for B in (17, 20, 32):
        assert list(compute_schedule(32, B, L).c) == list(base.c)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(K=1, L=2, B=1),
        dict(K=0, L=2, B=1),
        dict(K=4.5, L=2, B=1),
        dict(K=4, L=0, B=1),
        dict(K=4, L=2.0, B=1),
        dict(K=4, L=2, B=0),
        dict(K=4, L=2, B=-1),
        dict(K=4, L=2, B=5),
        dict(K=4, L=2, B=1, seed=-1),
        dict(K=4, L=2, B=1, seed=2**64),
        dict(K=4, L=2, B=1, blocks=-5),
        dict(K=4, L=2, B=1, seed=1.5),
        dict(K=4, L=2, B=1, blocks=2.5),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError) as config_error:
        ModelConfig(**kwargs)
    if kwargs.keys() == {"K", "L", "B"}:
        # A bad instance: the schedule and the bounds refuse it by the same rule.
        for build in (compute_schedule, bound_point):
            with pytest.raises(ValueError) as error:
                build(kwargs["K"], kwargs["B"], kwargs["L"])
            assert str(error.value) == str(config_error.value)


def test_config_accepts_fractional_budget():
    assert ModelConfig(K=2, L=2, B=0.5).B == 0.5


def _prefix_cells_per_pattern(law, stream, L):
    """Reference: every pattern adds its weight to the cell of each of its prefixes."""
    cells = [{} for _ in range(L)]
    for pattern, weight in law.items():
        bits = pattern[stream]
        for j in range(L):
            cell = cells[j].setdefault(bits & ((1 << j) - 1), [0, 0])
            cell[0] += weight
            if bits >> j & 1:
                cell[1] += weight
    return cells


@st.composite
def _laws(draw):
    """A law over packed pattern pairs of up to 8 bits and a step count."""
    width = draw(st.integers(1, 8))
    weights = draw(
        st.sampled_from(
            [
                st.integers(0, 2**64),
                st.fractions(min_value=0, max_value=50, max_denominator=10**6),
            ]
        )
    )
    pattern = st.integers(0, 2**width - 1)
    law = draw(st.dictionaries(st.tuples(pattern, pattern), weights, max_size=60))
    return law, draw(st.integers(1, width))


@given(_laws())
def test_prefix_cells_fold_matches_per_pattern_loop(case):
    # The fold must keep each step's first-occurrence key order as well as
    # its values, in both streams: step_entropies sums floats in that order.
    law, L = case
    total = sum(law.values())
    for stream, cells in enumerate(prefix_cells(law, L)):
        reference = _prefix_cells_per_pattern(law, stream, L)
        assert [list(step.items()) for step in cells] == [list(step.items()) for step in reference]
        if total:
            assert step_entropies(cells, total) == step_entropies(reference, total)


def _step_entropies_every_cell(cells, total):
    """Reference: binary_entropy on every cell with mass, certain ones included."""
    out = []
    for step in cells:
        h = 0.0
        for mass, ones in step.values():
            if mass:
                h += float(mass / total) * binary_entropy(float(ones / mass))
        out.append(h)
    return out


@st.composite
def _integer_laws_with_certain_cells(draw):
    """An integer law, its stream and a step count L >= 3 with both kinds of certain cell.

    Drawn patterns have bit 0 clear; the pinned pattern 0b101 alone sets it,
    so its step-2 cell has no ones and its step-3 cell has all ones.
    """
    width = draw(st.integers(2, 6))
    pattern = st.integers(0, 2**width - 1).map(lambda bits: bits << 1)
    law = draw(st.dictionaries(st.tuples(pattern, pattern), st.integers(0, 2**40), max_size=40))
    law[(0b101, 0b101)] = draw(st.integers(1, 2**40))
    return law, draw(st.integers(0, 1)), draw(st.integers(3, width + 1))


@given(_integer_laws_with_certain_cells())
def test_step_entropies_skip_of_certain_cells_is_bit_identical(case):
    law, stream, L = case
    total = sum(law.values())
    cells = prefix_cells(law, L)[stream]
    assert cells[1][1][1] == 0 and cells[2][0b01][1] == cells[2][0b01][0]
    want = _step_entropies_every_cell(cells, total)
    assert [h.hex() for h in step_entropies(cells, total)] == [h.hex() for h in want]


@pytest.mark.parametrize(
    "law",
    [
        {(0, 0): 1, (0, 1): 2**54 - 1},  # ones / mass rounds to 1.0
        {(0, 0): Fraction(1, 2**54), (0, 1): 1 - Fraction(1, 2**54)},
        {(0, 0): 2**1100, (0, 1): 1},  # ones / mass underflows to 0.0
    ],
)
def test_step_entropies_take_a_ratio_rounded_to_certainty_as_certain(law):
    # 0 < ones < mass, yet float(ones / mass) is certain: the cell adds +0.0,
    # as binary_entropy's p = 0 and p = 1 cases give, and log2(0) is never taken.
    total = sum(law.values())
    main, eav = prefix_cells(law, 1)
    mass, ones = eav[0][0]
    assert 0 < ones < mass and float(ones / mass) in (0.0, 1.0)
    for cells in (main, eav):
        assert step_entropies(cells, total) == _step_entropies_every_cell(cells, total) == [0.0]


ENUMERABLE_INTEGER_CASES = [
    (K, B, L)
    for K in range(2, MAX_K + 1)
    for B in range(1, K + 1)
    for L in range(1, MAX_L + 1)
    if compute_schedule(K, B, L).is_integral
]


def test_step_entropies_skip_is_bit_identical_on_every_exact_law():
    assert len(ENUMERABLE_INTEGER_CASES) == 62
    certain = 0
    for K, B, L in ENUMERABLE_INTEGER_CASES:
        law, denominator = _lumped_law(K, compute_schedule(K, B, L).c_int)
        for cells in prefix_cells(law, L):
            certain += sum(ones in (0, mass) for step in cells for mass, ones in step.values())
            want = _step_entropies_every_cell(cells, denominator)
            got = step_entropies(cells, denominator)
            assert [h.hex() for h in got] == [h.hex() for h in want]
    assert certain > 0
