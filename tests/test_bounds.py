import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbp_secrecy.bounds import (
    T3_VARIANTS,
    bound_point,
    leakage_rate,
    main_step_entropies,
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
    assert leakage_rate(compute_schedule(32, 8, 2)) == pytest.approx(LEAKAGE_32_8_2, abs=1e-12)
    assert leakage_rate(compute_schedule(32, 8, 1)) == pytest.approx(H4, abs=1e-15)
    assert leakage_rate(compute_schedule(32, 8, 5)) == pytest.approx(LEAKAGE_32_8_5, abs=1e-12)


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
    steps = main_step_entropies(compute_schedule(32, 8, 5))
    assert steps[0] == pytest.approx(H4, abs=1e-15)
    assert steps[1] == pytest.approx(0.75 * binary_entropy(1 / 3) + 0.25, abs=1e-15)
    assert steps[2:] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert sum(steps) / len(steps) == pytest.approx(0.95, abs=1e-12)
    single = main_step_entropies(compute_schedule(4, 1, 1))
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
    values = [leakage_rate(compute_schedule(32, 8, L)) for L in (2, 5, 8, 12)]
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
    assert leakage_rate(compute_schedule(K, B, L)) == pytest.approx(
        leakage_rate(compute_schedule(m * K, m * B, L)), abs=1e-12
    )


@given(
    K=st.integers(2, 16),
    B=st.integers(1, 16),
    L=st.integers(1, 12),
    m=st.sampled_from([2, 3, 4]),
)
def test_state_summed_leakage_scale_invariant(K, B, L, m):
    B = min(B, K)
    a = leakage_rate(compute_schedule(K, B, L), t3_variant="state_summed")
    b = leakage_rate(compute_schedule(m * K, m * B, L), t3_variant="state_summed")
    assert a == pytest.approx(b, abs=1e-12)


def test_printed_deep_coefficient_breaks_scale_invariance():
    # The bare 1/K in the printed deep-prefix coefficient is the one term
    # that is not a pure ratio, so doubling (K, B) shifts the leakage.
    small, large = compute_schedule(2, 1, 4), compute_schedule(4, 2, 4)
    assert abs(leakage_rate(small) - leakage_rate(large)) > 1e-4
    a = leakage_rate(small, t3_variant="state_summed")
    b = leakage_rate(large, t3_variant="state_summed")
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
    assert main_step_entropies(compute_schedule(K, B, L))[-1] == 1.0
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
        if not (e.kind == "post_detection" and k == 0)
    )
    assert total / L == pytest.approx(
        leakage_rate(compute_schedule(K, B, L), t3_variant=variant), abs=1e-12
    )


def test_table_entries_hand_checked():
    table = prefix_probability_table(compute_schedule(8, 2, 3))
    empty = table[(1, 0)]
    assert empty.prefix == "" and empty.mass == 1.0 and empty.flip == 0.25
    just_hit = table[(3, 1)]
    assert just_hit.prefix == "01"
    assert just_hit.mass == pytest.approx(2 * 6 / 64, abs=1e-15)
    assert just_hit.flip == pytest.approx(0.5 * 2 / 6, abs=1e-15)
    deep = table[(3, 0)]
    assert deep.prefix == "11" and deep.flip == 0.5
    assert deep.mass == pytest.approx(1 / 256, abs=1e-18)
    summed = prefix_probability_table(compute_schedule(8, 2, 3), t3_variant="state_summed")
    deep_summed = summed[(3, 0)]
    assert deep_summed.mass == pytest.approx(1 / 32, abs=1e-18)


def test_table_layout_covers_monotone_prefixes():
    table = prefix_probability_table(compute_schedule(32, 8, 5))
    for j in range(1, 6):
        prefixes = {e.prefix for (jj, _), e in table.items() if jj == j}
        assert prefixes == {"0" * k + "1" * (j - 1 - k) for k in range(j)}
    kinds = {e.kind for e in table.values()}
    assert kinds == {"unexplored", "just_hit", "post_detection"}


def test_unknown_t3_variant_rejected():
    with pytest.raises(ValueError):
        leakage_rate(compute_schedule(8, 2, 4), t3_variant="other")
    with pytest.raises(ValueError):
        prefix_probability_table(compute_schedule(8, 2, 4), t3_variant="other")
