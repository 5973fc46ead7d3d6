import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbp_secrecy.bounds import bound_point
from bbp_secrecy.model import ModelConfig, binary_entropy, compute_schedule

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
