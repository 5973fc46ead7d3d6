import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbp_secrecy.bounds import (
    T3_VARIANTS,
    PrefixEntry,
    bound_point,
    closed_forms,
    prefix_probability_table,
)
from bbp_secrecy.model import binary_entropy, compute_schedule

H4 = binary_entropy(0.25)
H8 = binary_entropy(0.125)

# hand-assembled: (H(1/4) + (3/4)*H(1/4) + (1/4)*H(1/8)) / 2
LEAKAGE_32_8_2 = (H4 + 0.75 * H4 + 0.25 * H8) / 2
LEAKAGE_32_8_5 = 0.478031587318156  # pinned double-precision evaluation


def test_outer_bound_hand_points():
    assert bound_point(32, 8, 2).outer == 0.875
    assert bound_point(4, 1, 2).outer == 0.875
    assert bound_point(32, 8, 5).outer == pytest.approx(0.95, abs=1e-12)


def test_outer_and_inner_vanish_for_single_use():
    for K in (2, 7, 32, 64):
        for B in (1, max(1, K // 2), K):
            assert bound_point(K, B, 1).outer == 0.0
            assert bound_point(K, B, 1).inner == 0.0


def test_leakage_hand_points():
    assert closed_forms(compute_schedule(32, 8, 2)).leakage == pytest.approx(
        LEAKAGE_32_8_2, abs=1e-12
    )
    assert closed_forms(compute_schedule(32, 8, 1)).leakage == pytest.approx(H4, abs=1e-15)
    assert closed_forms(compute_schedule(32, 8, 5)).leakage == pytest.approx(
        LEAKAGE_32_8_5, abs=1e-12
    )


def test_inner_is_outer_minus_leakage():
    pt = bound_point(32, 8, 2)
    assert pt.inner_raw == pytest.approx(0.875 - LEAKAGE_32_8_2, abs=1e-12)
    assert pt.inner == pt.inner_raw  # positive here, no flooring needed
    assert pt.inner == pytest.approx(0.0971860856983093, abs=1e-12)


def test_inner_floors_at_zero():
    pt = bound_point(32, 8, 1)
    assert pt.inner_raw < 0.0
    assert pt.inner == 0.0
    assert bound_point(32, 8, 1).inner == 0.0


def test_main_step_entropies_saturate_after_localization():
    steps = closed_forms(compute_schedule(32, 8, 5)).main_steps
    assert steps[0] == pytest.approx(H4, abs=1e-15)
    assert steps[1] == pytest.approx(0.75 * binary_entropy(1 / 3) + 0.25, abs=1e-15)
    assert steps[2:] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert sum(steps) / len(steps) == pytest.approx(0.95, abs=1e-12)
    single = closed_forms(compute_schedule(4, 1, 1)).main_steps
    assert sum(single) / len(single) == pytest.approx(H4, abs=1e-15)


@pytest.mark.parametrize("L", [2, 5, 8, 12])
def test_outer_non_decreasing_in_budget(L):
    values = [bound_point(32, B, L).outer for B in range(1, 33)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("L", [5, 8, 12])
def test_inner_non_decreasing_in_budget_for_long_blocks(L):
    values = [bound_point(32, B, L).inner for B in range(1, 33)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_inner_dips_in_budget_for_two_use_blocks():
    # At L=2 the leakage grows faster than the outer bound around B=10,
    # so the inner bound is not monotone in B there.
    inner = {B: bound_point(32, B, 2).inner for B in (9, 10, 11, 12)}
    assert inner[10] < inner[9]
    assert inner[11] < inner[10]
    assert inner[12] > inner[11]


@pytest.mark.parametrize("L", [2, 5, 8, 12])
def test_outer_saturates_beyond_half_k(L):
    ref = bound_point(32, 16, L).outer
    for B in range(17, 33):
        assert bound_point(32, B, L).outer == ref


def test_leakage_strictly_decreasing_in_block_length():
    values = [closed_forms(compute_schedule(32, 8, L)).leakage for L in (2, 5, 8, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_scale_invariance_exact_pair():
    small, large = bound_point(4, 1, 2), bound_point(32, 8, 2)
    assert (small.outer, small.leakage, small.inner_raw, small.inner) == (
        large.outer,
        large.leakage,
        large.inner_raw,
        large.inner,
    )


@given(
    K=st.integers(2, 16),
    B=st.integers(1, 16),
    L=st.integers(1, 12),
    m=st.sampled_from([2, 3, 4]),
)
def test_outer_scale_invariant(K, B, L, m):
    B = min(B, K)
    assert bound_point(K, B, L).outer == pytest.approx(
        bound_point(m * K, m * B, L).outer, abs=1e-12
    )


@given(
    K=st.integers(2, 16),
    B=st.integers(1, 16),
    L=st.integers(1, 3),
    m=st.sampled_from([2, 3, 4]),
)
def test_leakage_scale_invariant_without_deep_terms(K, B, L, m):
    B = min(B, K)
    assert closed_forms(compute_schedule(K, B, L)).leakage == pytest.approx(
        closed_forms(compute_schedule(m * K, m * B, L)).leakage, abs=1e-12
    )


@given(
    K=st.integers(2, 16),
    B=st.integers(1, 16),
    L=st.integers(1, 12),
    m=st.sampled_from([2, 3, 4]),
)
def test_state_summed_leakage_scale_invariant(K, B, L, m):
    B = min(B, K)
    a = closed_forms(compute_schedule(K, B, L), t3_variant="state_summed").leakage
    b = closed_forms(compute_schedule(m * K, m * B, L), t3_variant="state_summed").leakage
    assert a == pytest.approx(b, abs=1e-12)


def test_printed_deep_coefficient_breaks_scale_invariance():
    # The bare 1/K in the printed deep-prefix coefficient is the one term
    # that is not a pure ratio, so doubling (K, B) shifts the leakage.
    small, large = compute_schedule(2, 1, 4), compute_schedule(4, 2, 4)
    assert abs(closed_forms(small).leakage - closed_forms(large).leakage) > 1e-4
    a = closed_forms(small, t3_variant="state_summed").leakage
    b = closed_forms(large, t3_variant="state_summed").leakage
    assert a == b


@given(K=st.integers(2, 64), B=st.integers(1, 64), L=st.integers(1, 12))
def test_bound_ordering(K, B, L):
    pt = bound_point(K, min(B, K), L)
    assert 0.0 <= pt.inner <= pt.outer <= 1.0
    assert pt.leakage >= 0.0
    assert pt.inner == max(0.0, pt.inner_raw)


@pytest.mark.parametrize("K,B,L", [(8, 2, 60), (32, 8, 100)])
def test_bounds_defined_once_schedule_uses_up_all_beams(K, B, L):
    # After a few dozen halvings the float sum of the schedule equals K, so
    # the remaining pool and the step share are both exactly 0.
    sched = compute_schedule(K, B, L)
    assert sched.cum[-2] == K and sched.c[-1] == 0.0
    pt = bound_point(K, B, L)
    assert 0.0 <= pt.inner <= pt.outer <= 1.0
    assert closed_forms(compute_schedule(K, B, L)).main_steps[-1] == 1.0
    table = prefix_probability_table(compute_schedule(K, B, L))
    assert table[(L, L - 2)].mass == 0.0


@pytest.mark.parametrize("variant", T3_VARIANTS)
@pytest.mark.parametrize("K,B,L", [(8, 2, 3), (8, 2, 4), (32, 8, 5), (32, 8, 12), (16, 4, 6)])
def test_leakage_matches_table_sum(K, B, L, variant):
    # The leakage sum has a term for every tabulated entry except the deep
    # prefixes with k = 0, which are tabulated for completeness only.
    table = prefix_probability_table(compute_schedule(K, B, L), t3_variant=variant)
    total = sum(
        e.mass * binary_entropy(e.flip)
        for (j, k), e in table.items()
        if not (j - 1 - k >= 2 and k == 0)
    )
    assert total / L == pytest.approx(
        closed_forms(compute_schedule(K, B, L), t3_variant=variant).leakage, abs=1e-12
    )


def test_table_entries_hand_checked():
    table = prefix_probability_table(compute_schedule(8, 2, 3))
    assert set(table) == {(j, k) for j in range(1, 4) for k in range(j)}
    empty = table[(1, 0)]  # the empty prefix
    assert empty == (1.0, 0.25)
    just_hit = table[(3, 1)]  # prefix 01
    assert just_hit.mass == pytest.approx(2 * 6 / 64, abs=1e-15)
    assert just_hit.flip == pytest.approx(0.5 * 2 / 6, abs=1e-15)
    deep = table[(3, 0)]  # prefix 11
    assert deep.flip == 0.5
    assert deep.mass == pytest.approx(1 / 256, abs=1e-18)
    summed = prefix_probability_table(compute_schedule(8, 2, 3), t3_variant="state_summed")
    deep_summed = summed[(3, 0)]
    assert deep_summed.mass == pytest.approx(1 / 32, abs=1e-18)


def test_table_layout_covers_monotone_prefixes():
    # Key (j, k) is the prefix 0^k 1^(j-1-k): every k < j at every step, and
    # each entry holds its (mass, flip) numbers only.  c = (8, 8, 8, 4, 2).
    table = prefix_probability_table(compute_schedule(32, 8, 5))
    assert set(table) == {(j, k) for j in range(1, 6) for k in range(j)}
    assert PrefixEntry._fields == ("mass", "flip")
    assert all(type(e) is PrefixEntry for e in table.values())
    unexplored = [table[(j, j - 1)] for j in range(1, 6)]
    assert unexplored == [(1.0, 0.25), (0.75, 0.25), (0.5, 0.25), (0.25, 0.125), (0.125, 0.0625)]
    just_hit = [table[(j, j - 2)] for j in range(2, 6)]
    assert just_hit == [
        (0.25, 0.125), (0.1875, pytest.approx(1 / 6)), (0.125, 0.25), (0.03125, 0.25)
    ]
    deep = {key: e for key, e in table.items() if key[0] - 1 - key[1] >= 2}
    assert sorted(deep) == [(3, 0), (4, 0), (4, 1), (5, 0), (5, 1), (5, 2)]
    assert all(e.flip == 0.5 for e in deep.values())
    assert table[(4, 1)].mass == (8 / 32) ** 2 * 0.5 / 32


def test_unknown_t3_variant_rejected():
    with pytest.raises(ValueError):
        closed_forms(compute_schedule(8, 2, 4), t3_variant="other")
    with pytest.raises(ValueError):
        prefix_probability_table(compute_schedule(8, 2, 4), t3_variant="other")


# Reference closed forms, evaluated per term exactly as the module docstring
# writes them: every deep mass computed on its own, c_int by math.floor.  The
# module must reproduce these bit for bit (==, not approx).


def _ref_cum_before(sched, j):
    return sched.cum[j - 2] if j >= 2 else 0.0


def _ref_share(c, rem):
    return c / rem if rem else 0.0


def _ref_deep_mass(sched, j, k, variant):
    K = sched.K
    base = (sched.c[k] ** 2 / K**2) * 0.5 ** (2 * (j - k - 2) - 1)
    return base / K if variant == "as_printed" else base


def _ref_main_step_entropies(sched):
    K = sched.K
    out = []
    for j in range(1, sched.L + 1):
        cumr = _ref_cum_before(sched, j)
        rem = K - cumr
        out.append((rem / K) * binary_entropy(_ref_share(sched.c[j - 1], rem)) + cumr / K)
    return out


def _ref_leakage(sched, variant):
    K, L = sched.K, sched.L
    total = 0.0
    for j in range(1, L + 1):
        rem = K - _ref_cum_before(sched, j)
        total += (rem / K) * binary_entropy(sched.c[j - 1] / K)
        if j >= 2:
            rem2 = K - _ref_cum_before(sched, j - 1)
            total += (sched.c[j - 2] * rem2 / K**2) * binary_entropy(
                0.5 * _ref_share(sched.c[j - 2], rem2)
            )
        for k in range(1, j - 2):
            total += _ref_deep_mass(sched, j, k, variant)
    return total / L


def _ref_table(sched, variant):
    K = sched.K
    out = {}
    for j in range(1, sched.L + 1):
        for k in range(j - 1, -1, -1):
            if k == j - 1:
                mass, flip = (K - _ref_cum_before(sched, j)) / K, sched.c[j - 1] / K
            elif k == j - 2:
                rem = K - _ref_cum_before(sched, j - 1)
                mass = sched.c[j - 2] * rem / K**2
                flip = 0.5 * _ref_share(sched.c[j - 2], rem)
            else:
                mass, flip = _ref_deep_mass(sched, j, k, variant), 0.5
            out[(j, k)] = (mass, flip)
    return out


def _hex(pt):
    """Every float a BoundPoint holds or derives, as hex."""
    floats = [*pt.main_steps, *pt.leakage_totals, pt.outer, pt.leakage, pt.inner_raw, pt.inner]
    return [x.hex() for x in floats]


def _budgets(K):
    """Integer, half-integer and irrational-looking budgets B <= K."""
    return sorted({1, K // 2, K, 1.5, K // 2 + 0.5, K / math.e})


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 16, 33, 80, 1024])
@pytest.mark.parametrize("K", [2, 3, 8, 32, 1024, 2**40])
def test_closed_forms_bit_identical_to_per_term_reference(K, L):
    # At L = 1024 one budget keeps the reference's O(L^2) Python loops short
    # (the pinned test below adds a half-integer one), and one instance,
    # K = 1024 at B = 3.5, checks the 524 800-entry table.
    budgets = _budgets(K) if L < 1024 else [K / math.e]
    for B in budgets:
        sched = compute_schedule(K, B, L)
        assert sched.c_int == tuple(math.floor(cj) for cj in sched.c)
        closed = closed_forms(sched)
        assert closed.main_steps == _ref_main_step_entropies(sched)
        assert _hex(closed) == _hex(bound_point(K, B, L))
        for variant in T3_VARIANTS:
            assert closed_forms(sched, variant).leakage == _ref_leakage(sched, variant)
            if L < 1024:
                table = prefix_probability_table(sched, t3_variant=variant)
                assert list(table.items()) == list(_ref_table(sched, variant).items())
    if (K, L) == (1024, 1024):
        sched = compute_schedule(K, 3.5, L)
        table = prefix_probability_table(sched, t3_variant="as_printed")
        assert list(table.items()) == list(_ref_table(sched, "as_printed").items())


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 16, 33, 80, 1024])
@pytest.mark.parametrize("K", [2, 3, 8, 32, 1024, 2**40])
def test_prefix_of_longest_block_bit_identical_to_bound_point(K, L):
    # The schedule recursion runs forward, so the first l steps at L are the
    # l-step schedule, and each shorter block's bounds are read off one pass.
    # Every l is checked up to L = 80.  At L = 1024, where bound_point(l)
    # costs O(l^2) and every l would take about 15 s per K, l runs over
    # 1..128 and then every 31st value, which ends on l = 1024.
    lengths = range(1, L + 1) if L < 1024 else sorted({*range(1, 129), *range(1, L + 1, 31)})
    for B in _budgets(K) if L < 1024 else [K / math.e]:
        pt = bound_point(K, B, L)
        for l in lengths:
            short = bound_point(K, B, l)
            assert short.schedule.c == pt.schedule.c[:l]
            assert short.schedule.c_int == pt.schedule.c_int[:l]
            assert short.schedule.cum == pt.schedule.cum[:l]
            want = (short.outer, short.leakage, short.inner_raw, short.inner)
            assert [x.hex() for x in pt.prefix(l)] == [x.hex() for x in want]


@pytest.mark.parametrize("l", [-1, 0, 6])
def test_prefix_refuses_lengths_outside_the_block(l):
    with pytest.raises(ValueError, match="block length"):
        bound_point(32, 8, 5).prefix(l)


def test_prefix_table_holds_numbers_only():
    # Each entry is two floats: no per-entry string, so memory grows as the
    # L(L+1)/2 entries do and not as the O(L^3) characters of spelled-out
    # prefixes.  About 185 bytes per entry go to the key, the entry and
    # their floats.
    sched = compute_schedule(64, 3.5, 256)
    tracemalloc.start()
    try:
        table = prefix_probability_table(sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 256 * 257 // 2
    assert peak < 256 * len(table)


def test_leakage_bits_pinned_at_longest_block():
    sched = compute_schedule(1024, 3.5, 1024)
    assert closed_forms(sched, "as_printed").leakage.hex() == "0x1.364f593bcba05p-8"
    assert closed_forms(sched, "state_summed").leakage.hex() == "0x1.36746c2da0f57p-8"
