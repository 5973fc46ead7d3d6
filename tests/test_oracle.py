"""Exact-law oracle tests.

The oracle re-implements the probing policy as a lumped Markov chain on
integer weights over one common denominator, so its numbers are exact.  The ground truth here is a
brute-force walk over every probe subset of the policy for fixed receiver
states; the tests check the chain against it on every enumerable case, then
freeze the exact numbers and the closed-form comparisons built on them.
"""

import hashlib
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from bbp_secrecy import oracle
from bbp_secrecy.estimators import TranscriptStats, _plug_in_rate, collect_stats
from bbp_secrecy.model import (
    ModelConfig,
    binary_entropy,
    compute_schedule,
    pack_bits,
    prefix_cells,
    step_entropies,
)
from bbp_secrecy.oracle import (
    MAX_K,
    MAX_L,
    EnumerationResult,
    GuardRailError,
    _lumped_law,
    exact_enumeration,
    verify_against_closed_forms,
)

# Every instance within the guard rails with B in steps of 0.5 (an integer B
# stays an int); 198 of the 280 have a fractional, floored schedule.
ENUMERABLE_CASES = [
    (K, h / 2 if h % 2 else h // 2, L)
    for K in range(2, MAX_K + 1)
    for h in range(1, 2 * K + 1)
    for L in range(1, MAX_L + 1)
]


def _walk_probe_paths(K, c_int, L, s_l, s_e):
    """Joint law of (y_l, y_e) for fixed states, by walking every probe subset."""
    law = defaultdict(lambda: Fraction(0))

    def rec(j, cand, last, det, prev_yl, yl, ye, p):
        if j > L:
            law[(yl, ye)] += p
            return
        if j == 1:
            pool = cand
            q = c_int[0]
            det_next = None
        elif det is None and prev_yl == 0:
            pool = cand - last
            q = c_int[j - 1]
            det_next = None
        else:
            det_next = det if det is not None else j - 1
            pool = last if prev_yl == 1 else cand - last
            q = max(c_int[det_next - 1] >> (j - det_next), 1)
        q = min(q, len(pool))
        total = math.comb(len(pool), q)
        for probe in itertools.combinations(sorted(pool), q):
            pv = frozenset(probe)
            bl = 1 if s_l in pv else 0
            be = 1 if s_e in pv else 0
            rec(j + 1, pool, pv, det_next, bl, yl + (bl,), ye + (be,), p / total)

    rec(1, frozenset(range(1, K + 1)), frozenset(), None, 0, (), (), Fraction(1))
    return dict(law)


def _walked_mixture(K, B, L):
    # Beam labels are exchangeable, so the state average is the coincident
    # pair (1, 1) with weight 1/K and the distinct pair (1, 2) with (K-1)/K.
    c_int = compute_schedule(K, B, L).c_int
    law = defaultdict(lambda: Fraction(0))
    for s_e, weight in ((1, Fraction(1, K)), (2, Fraction(K - 1, K))):
        for pattern, p in _walk_probe_paths(K, c_int, L, 1, s_e).items():
            law[pattern] += weight * p
    return dict(law)


@pytest.mark.parametrize("K,B,L", ENUMERABLE_CASES)
def test_lumped_law_equals_probe_path_walk(K, B, L):
    enum = exact_enumeration(K, B, L)
    assert enum.law == _walked_mixture(K, B, L)
    assert enum.total_mass == 1


@pytest.mark.parametrize(
    "K,B,L,support,main,leak",
    [
        (32, 8, 5, 136, 0.9, 0.5532697915766688),
        (256, 16, 12, 1424, 0.4895833333333333, 0.24532109035614902),
    ],
)
def test_integer_chain_runs_past_the_guard_rails(K, B, L, support, main, leak):
    # The values the C6 Monte Carlo estimates (0.9001 +- 0.0001 and
    # 0.5530 +- 0.0004 at the acceptance point).
    weights, denominator = _lumped_law(K, compute_schedule(K, B, L).c_int)
    assert len(weights) == support
    assert sum(weights.values()) == denominator
    rates = [sum(step_entropies(prefix_cells(weights, s, L), denominator)) / L for s in (0, 1)]
    if (K, B, L) == (32, 8, 5):
        assert rates[0] == 0.9
    assert rates == pytest.approx([main, leak], abs=1e-12)


def test_verify_reports_are_frozen():
    # Digest of every rendered report, measured on the Fraction-weighted chain.
    reports = [verify_against_closed_forms(*case) for case in ENUMERABLE_CASES]
    text = "".join(report.render() + "\n" for report in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "290939ff289beefe0a3f3b4ac4d64ceb068b06b81b78def56905fb63b2e25c5e"
    )
    assert sum(report.ok for report in reports) == 53
    # The exact outputs stay Fraction, the prefix 01 never seen included.
    enum = exact_enumeration(2, 1, 3)
    exact = [*enum.law.values(), enum.total_mass, enum.mixed_mass_10, enum.mixed_mass_01]
    exact += [enum.prefix_mass(3, (1, 1)), enum.prefix_flip(3, (1, 1)), enum.prefix_mass(3, (0, 1))]
    assert all(isinstance(value, Fraction) for value in exact)
    assert enum.prefix_mass(3, (0, 1)) == 0 and enum.prefix_flip(3, (0, 1)) is None


def test_verify_never_builds_the_fraction_law(monkeypatch):
    # The report reads the integer cells; the Fraction law is built only on
    # access, once per result.
    enum = exact_enumeration(8, 2, 4)
    assert enum.law is enum.law

    def refuse(self):
        raise AssertionError("verify_against_closed_forms built the Fraction law")

    monkeypatch.setattr(EnumerationResult, "law", property(refuse))
    reports = [verify_against_closed_forms(*case) for case in ENUMERABLE_CASES]
    text = "".join(report.render() + "\n" for report in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "290939ff289beefe0a3f3b4ac4d64ceb068b06b81b78def56905fb63b2e25c5e"
    )


def test_guard_rails_refuse_large_cases_only():
    with pytest.raises(GuardRailError, match="K <= 8"):
        exact_enumeration(16, 4, 2)
    with pytest.raises(GuardRailError, match="L <= 4"):
        exact_enumeration(8, 2, 5)
    # Refused before any schedule is built: 10^9 steps would take minutes.
    with pytest.raises(GuardRailError, match="L <= 4"):
        exact_enumeration(8, 2, 10**9)
    assert issubclass(GuardRailError, ValueError)
    # A fractional schedule is floored, as in the simulator: c = [3, 2.5].
    enum = exact_enumeration(8, 3, 2)
    assert enum.schedule.c_int == (3, 2)
    assert enum.law == _walked_mixture(8, 3, 2)


def test_fractional_schedule_report_names_the_floored_schedule():
    report = verify_against_closed_forms(2, 1, 2)
    assert report.schedule.c == (1.0, 0.5)
    assert report.notes[-1] == (
        "the schedule is fractional; the exact law uses the floored schedule "
        "[1, 0], as the simulator does"
    )


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


@pytest.mark.parametrize("j,prefix", [(3, (1,)), (0, ()), (4, ()), (2, (0, 0)), (5, (0,) * 4)])
def test_prefix_numbers_refuse_a_prefix_of_another_step(j, prefix):
    # A prefix before step j has j - 1 bits, and j runs over 1..L.
    enum = exact_enumeration(8, 2, 3)
    with pytest.raises(ValueError):
        enum.prefix_mass(j, prefix)
    with pytest.raises(ValueError):
        enum.prefix_flip(j, prefix)


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


@pytest.mark.parametrize("L,passes", [(4, 2), (3, 1)])
def test_verify_makes_one_closed_form_pass_per_t3_variant(monkeypatch, L, passes):
    # The variants differ only from L = 4 on; below that one pass serves.
    calls = Counter()

    def counted(name):
        real = getattr(oracle, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in ("closed_forms", "prefix_probability_table"):
        monkeypatch.setattr(oracle, name, counted(name))
    verify_against_closed_forms(8, 2, L)
    assert calls == {"closed_forms": passes, "prefix_probability_table": passes}


def test_report_render_has_machine_readable_lines():
    text = verify_against_closed_forms(8, 2, 4).render()
    assert "closed_form=" in text and "abs_dev=" in text and "status=" in text
    assert "t3_sum[state_summed]" in text
    assert "t3_matching_variant=state_summed" in text


def test_state_reduction_matches_full_state_enumeration():
    # averaged over all 16 (s_l, s_e) pairs, the probe-path walk must
    # reproduce both the lumped law and the two-case mixture
    full = defaultdict(lambda: Fraction(0))
    for s_l in range(1, 5):
        for s_e in range(1, 5):
            for pattern, p in _walk_probe_paths(4, (1, 1), 2, s_l, s_e).items():
                full[pattern] += p * Fraction(1, 16)
    assert dict(full) == exact_enumeration(4, 1, 2).law == _walked_mixture(4, 1, 2)


def _chi2_upper_tail(x, dof):
    # Wilson-Hilferty: (x/dof)^(1/3) is close to normal with mean 1 - 2/(9 dof)
    # and variance 2/(9 dof).
    v = 2 / (9 * dof)
    z = ((x / dof) ** (1 / 3) - (1 - v)) / math.sqrt(v)
    return 0.5 * math.erfc(z / math.sqrt(2))


@pytest.mark.parametrize(
    "K,B,L", [(8, 2, 2), (8, 2, 4), (7, 3, 3), (8, 1, 4), (2, 1, 2), (5, 2, 4), (8, 3, 3)]
)
def test_enumeration_matches_monte_carlo(K, B, L):
    # G-test of the simulated pattern histogram against the exact law; cells
    # expecting fewer than 5 blocks are pooled into one.
    N = 20_000
    law = {(pack_bits(yl), pack_bits(ye)): p for (yl, ye), p in exact_enumeration(K, B, L).law.items()}
    counts = collect_stats(ModelConfig(K=K, L=L, B=B, seed=11, blocks=N)).pattern_counts
    assert set(counts) <= set(law)
    bins = []  # (observed, expected)
    pooled = [0, 0.0]
    for key, p in law.items():
        cell = (counts.get(key, 0), N * float(p))
        if cell[1] < 5:
            pooled = [pooled[0] + cell[0], pooled[1] + cell[1]]
        else:
            bins.append(cell)
    if pooled[1]:
        bins.append(tuple(pooled))
    g = 2 * sum(n * math.log(n / e) for n, e in bins if n)
    assert _chi2_upper_tail(g, len(bins) - 1) >= 1e-3, (g, len(bins) - 1)


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
