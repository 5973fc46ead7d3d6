"""Exact-enumeration oracle tests.

The oracle re-implements the probing policy with Fraction arithmetic and
exhausts every probe path, so its numbers are exact; the tests below freeze
those numbers and the closed-form comparisons built on them.
"""

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from bbp_secrecy.estimators import TranscriptStats, _plug_in_rate, collect_stats
from bbp_secrecy.model import ModelConfig, binary_entropy, pack_bits
from bbp_secrecy.oracle import (
    GuardRailError,
    _enumerate_case,
    exact_enumeration,
    verify_against_closed_forms,
)


def test_guard_rails_refuse_large_or_fractional_cases():
    with pytest.raises(GuardRailError, match="K <= 8"):
        exact_enumeration(16, 4, 2)
    with pytest.raises(GuardRailError, match="L <= 4"):
        exact_enumeration(8, 2, 5)
    with pytest.raises(GuardRailError, match="integer schedule"):
        exact_enumeration(8, 3, 2)
    assert issubclass(GuardRailError, ValueError)


@pytest.mark.parametrize("K,B,L", [(8, 2, 3), (4, 1, 2), (8, 2, 4)])
def test_total_mass_is_exactly_one(K, B, L):
    assert exact_enumeration(K, B, L).total_mass == Fraction(1)


def test_two_step_case_matches_closed_forms_exactly():
    enum = exact_enumeration(8, 2, 2)
    assert enum.prefix_flip(1, ()) == Fraction(1, 4)
    assert enum.prefix_mass(2, (1,)) == Fraction(1, 4)
    assert enum.prefix_flip(2, (1,)) == Fraction(1, 8)
    assert enum.mixed_mass_10 == 0 and enum.mixed_mass_01 == 0

    report = verify_against_closed_forms(8, 2, 2)
    assert report.ok
    assert len(report.rows) == 12
    assert report.notes == []
    assert report.render().endswith("overall: MATCH (12 of 12 quantities within 1e-12)")


def test_single_step_main_rate_is_exact():
    assert exact_enumeration(4, 1, 1).main_rate == binary_entropy(0.25)


def test_three_step_case_departs_from_closed_forms():
    # Once the beam is found, later probes are deterministic singletons; the
    # closed forms keep assuming an even split, so step 3 drifts.
    enum = exact_enumeration(8, 2, 3)
    assert enum.prefix_mass(3, (0, 0)) == Fraction(9, 16)
    assert enum.prefix_flip(3, (0, 0)) == Fraction(2, 9)
    assert enum.prefix_mass(3, (1, 0)) == Fraction(7, 32)
    assert enum.prefix_flip(3, (1, 0)) == Fraction(1, 14)
    assert enum.prefix_mass(3, (1, 1)) == Fraction(1, 32)
    assert enum.prefix_flip(3, (1, 1)) == Fraction(1, 2)
    assert enum.leakage == 0.7399430463420794
    assert enum.main_steps[2] == 0.75

    report = verify_against_closed_forms(8, 2, 3)
    assert not report.ok
    assert [row.quantity for row in report.failing()] == [
        "main_step_entropy_j3",
        "outer_bound",
        "prefix_mass_j3_p00",
        "prefix_flip_j3_p00",
        "leakage_rate",
    ]
    assert len(report.notes) == 2


def test_deep_term_adjudication_picks_state_summed():
    report = verify_against_closed_forms(8, 2, 4)
    t3 = report.t3
    assert t3.applicable
    assert t3.oracle_value == 0.03125
    assert t3.variant_values["as_printed"] == 0.00390625
    assert t3.variant_values["state_summed"] == 0.03125
    assert t3.matching == ["state_summed"]
    assert t3.closest == "state_summed"

    shallow = verify_against_closed_forms(8, 2, 2)
    assert not shallow.t3.applicable


def test_report_render_has_machine_readable_lines():
    text = verify_against_closed_forms(8, 2, 4).render()
    assert "closed_form=" in text and "abs_dev=" in text and "status=" in text
    assert "t3_sum[state_summed]" in text
    assert "t3_matching_variant=state_summed" in text


def test_state_reduction_matches_full_state_enumeration():
    # closed over all 16 (s_l, s_e) pairs, the reduced two-case law must
    # reproduce the full mixture
    reduced = exact_enumeration(4, 1, 2).law
    full = defaultdict(lambda: Fraction(0))
    for s_l in range(1, 5):
        for s_e in range(1, 5):
            for pattern, p in _enumerate_case(4, (1, 1), 2, s_l, s_e).items():
                full[pattern] += p * Fraction(1, 16)
    assert dict(full) == dict(reduced)


def test_enumeration_matches_monte_carlo():
    enum = exact_enumeration(8, 2, 2)
    N = 20_000
    stats = collect_stats(ModelConfig(K=8, L=2, B=2, seed=11, blocks=N))
    support = {
        (
            sum(b << i for i, b in enumerate(yl)),
            sum(b << i for i, b in enumerate(ye)),
        ): p
        for (yl, ye), p in enum.law.items()
    }
    assert set(stats.pattern_counts) <= set(support)
    for key, p in support.items():
        if p < Fraction(1, 100):
            continue
        n = stats.pattern_counts.get(key, 0)
        sigma = math.sqrt(N * float(p) * (1 - float(p)))
        assert abs(n - N * float(p)) <= 4 * sigma, (key, n, N * float(p))


@pytest.mark.parametrize("K,B,L", [(8, 2, 3), (8, 2, 4)])
def test_estimator_statistics_on_scaled_exact_law_match_the_oracle(K, B, L):
    # The exact law times the common denominator is a table of integer
    # counts; the Monte Carlo statistics of those counts are the exact ones.
    enum = exact_enumeration(K, B, L)
    scale = math.lcm(*(p.denominator for p in enum.law.values()))
    counts = Counter(
        {(pack_bits(yl), pack_bits(ye)): int(p * scale) for (yl, ye), p in enum.law.items()}
    )
    assert sum(counts.values()) == scale
    assert _plug_in_rate(counts, 0, L) == pytest.approx(enum.main_rate, abs=1e-12)
    assert _plug_in_rate(counts, 1, L) == pytest.approx(enum.leakage, abs=1e-12)
    stats = TranscriptStats(L=L, blocks=scale, pattern_counts=counts)
    for j in range(1, L + 1):
        expected = {}
        for prefix in itertools.product((0, 1), repeat=j - 1):
            mass = enum.prefix_mass(j, prefix)
            if mass:
                flip = enum.prefix_flip(j, prefix)
                expected[pack_bits(prefix)] = [mass * scale, flip * mass * scale]
        assert stats.prefix_stats("eav", j) == expected
