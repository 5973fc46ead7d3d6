"""The benchmark's reference law and closed forms against the package."""

from fractions import Fraction

import pytest

import reference
from bbp_secrecy import bound_point, exact_enumeration
from workloads import enumerable_cases


def test_there_are_62_enumerable_cases():
    assert len(enumerable_cases()) == 62


@pytest.mark.parametrize("case", enumerable_cases())
def test_law_equals_exact_enumeration(case):
    law = reference.law(*case)
    assert law == exact_enumeration(*case).law
    assert sum(law.values()) == 1


def test_acceptance_point_rates():
    main, leak = reference.rates(reference.law(32, 8, 5), 5)
    assert main == pytest.approx(0.9, abs=1e-15)
    assert leak == pytest.approx(0.5532698, abs=1e-7)


def test_two_step_point():
    outer, leak = reference.closed_forms(32, 8, 2)
    assert outer == 0.875
    assert leak == pytest.approx(0.7778139, abs=1e-7)
    assert reference.rates(reference.law(32, 8, 2), 2) == pytest.approx((outer, leak), abs=1e-15)


@pytest.mark.parametrize("K,B,L", [(32, 8, 5), (32, 8, 12), (256, 16, 12), (1024, 0.75, 32), (16, 3.5, 1)])
def test_closed_forms_match_bound_point(K, B, L):
    pt = bound_point(K, B, L)
    assert reference.closed_forms(K, B, L) == pytest.approx((pt.outer, pt.leakage), abs=1e-12)


def test_plug_in_bias_bound_covers_the_bias_of_a_small_sample():
    # One step with flip 1/4: the expected plug-in entropy of n draws is
    # below H(1/4) by less than the bound.
    joint = {((0,), (0,)): Fraction(3, 4), ((1,), (1,)): Fraction(1, 4)}
    n = 8
    from math import comb

    expected = sum(
        comb(n, k) * 0.25**k * 0.75 ** (n - k) * reference.h2(k / n) for k in range(n + 1)
    )
    bias = reference.h2(0.25) - expected
    assert 0 < bias <= reference.plug_in_bias_bound(joint, 0, 1, n)


def test_plug_in_sd_is_zero_for_a_certain_pattern_and_positive_otherwise():
    certain = {((0, 0), (0, 0)): Fraction(1)}
    assert reference.plug_in_sd(certain, 0, 2, 100) == 0
    assert reference.plug_in_sd(reference.law(32, 8, 5), 1, 5, 2500) > 0
