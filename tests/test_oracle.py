"""Exact-law oracle tests.

The oracle re-implements the probing policy as a lumped Markov chain whose
weights count the receiver-state pairs (s_l, s_e) behind each pattern, over
K², so its numbers are exact.  The ground truth here is a brute-force walk
over every probe subset of the policy for fixed receiver states; the tests
check the chain against it on every enumerable case, then freeze the exact
numbers and the closed-form comparisons built on them.
"""

import hashlib
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from bbp_secrecy import oracle
from bbp_secrecy.estimators import _plug_in_rates, collect_stats
from bbp_secrecy.model import (
    ModelConfig,
    binary_entropy,
    compute_schedule,
    left_sum,
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
from helpers import G_TEST_LEVEL, g_test, policy_main_rate

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


PAST_THE_RAIL = [(32, 8, 5), (256, 16, 12), (48, 5.5, 8)]


def _pair_counts(K, c_int):
    """The chain's weights, checked to share out the K² receiver-state pairs."""
    weights, denominator = _lumped_law(K, c_int)
    assert denominator == K * K == sum(weights.values())
    return weights


@pytest.mark.parametrize("K,B,L", ENUMERABLE_CASES + PAST_THE_RAIL)
def test_weights_count_receiver_state_pairs(K, B, L):
    # The beams are independent and uniform, so a pattern's probability is
    # the number of the K² pairs (s_l, s_e) that produce it, over K².
    weights = _pair_counts(K, compute_schedule(K, B, L).c_int)
    if K <= MAX_K and L <= MAX_L:
        walked = _walked_mixture(K, B, L).items()
        assert weights == {(pack_bits(yl), pack_bits(ye)): K * K * p for (yl, ye), p in walked}


def test_over_asking_schedule_weights_count_receiver_state_pairs():
    # After a first miss the second probe asks for 9 of the 5 beams left and
    # takes the whole pool.
    weights = _pair_counts(8, (3, 9))
    walked = defaultdict(int)
    for s_e, pairs in ((1, 8), (2, 8 * 7)):
        for (yl, ye), p in _walk_probe_paths(8, (3, 9), 2, 1, s_e).items():
            walked[pack_bits(yl), pack_bits(ye)] += pairs * p
    assert weights == dict(walked)


@pytest.mark.parametrize(
    "K,B,L,support,main,leak",
    [
        (32, 8, 5, 136, 0.9, 0.5532697915766688),
        (256, 16, 12, 1424, 0.4895833333333333, 0.24532109035614902),
        (48, 5.5, 8, 232, 0.5801926758319563, 0.3520800483579602),
    ],
)
def test_integer_chain_runs_past_the_guard_rails(K, B, L, support, main, leak):
    # The values the C6 Monte Carlo estimates (0.9001 +- 0.0001 and
    # 0.5530 +- 0.0004 at the acceptance point).  Bit for bit: the report
    # digests cover only K <= 8 and L <= 4, this the chain beyond them.
    weights, denominator = _lumped_law(K, compute_schedule(K, B, L).c_int)
    assert len(weights) == support
    assert sum(weights.values()) == denominator
    cells = prefix_cells(weights, L)
    assert [left_sum(step_entropies(c, denominator)) / L for c in cells] == [main, leak]


def test_exact_main_rate_equals_the_closed_formula():
    # L·main = log2 K - (1/K) sum l·log2 l over the cells of beams each y_l
    # pattern leaves; the formula is independent of the chain, so it checks
    # the chain past the guard rails too.
    for K, B, L in ENUMERABLE_CASES:
        enum = exact_enumeration(K, B, L)
        closed = policy_main_rate(K, enum.schedule.c_int)
        assert left_sum(enum.main_steps) / L == pytest.approx(closed, abs=1e-12)
    pinned = [(32, 8, 5, 0.9), (256, 16, 12, 0.4895833333333333), (1024, 64, 16, 0.546875)]
    for K, B, L, main in pinned:
        c_int = compute_schedule(K, B, L).c_int
        weights, denominator = _lumped_law(K, c_int)
        exact = left_sum(step_entropies(prefix_cells(weights, L)[0], denominator)) / L
        assert (exact, policy_main_rate(K, c_int)) == (main, main)


def test_lumped_law_key_order_is_frozen():
    # The order of the law's keys fixes the order in which step_entropies
    # adds floats, so it is part of every report's bits.  Digest of each
    # law's keys with their exact probabilities, which pins the order and
    # every value but not how the weights are scaled; measured on the chain
    # that rescaled every step to the lcm of its denominators.
    cases = [(K, B, L) for K, B, L in ENUMERABLE_CASES if isinstance(B, int)]
    cases = [case for case in cases if compute_schedule(*case).is_integral]
    cases += [(32, 8, 5), (256, 16, 12), (48, 5.5, 8)]
    digest = hashlib.sha256()
    for K, B, L in cases:
        law, denominator = _lumped_law(K, compute_schedule(K, B, L).c_int)
        digest.update(repr([(key, Fraction(w, denominator)) for key, w in law.items()]).encode())
    assert len(cases) == 65
    assert digest.hexdigest() == (
        "36b408bada112234488300dcbff24eb5bb11f72ee451e9ec0e2d7b48c334ab7b"
    )


def _eav_prefix(enum, prefix):
    """Exact (mass, flip) of an eavesdropper prefix, read from the integer cells."""
    weight, ones = enum.eav_cells[len(prefix)].get(pack_bits(prefix), (0, 0))
    return Fraction(weight, enum.denominator), (Fraction(ones, weight) if weight else None)


def test_verify_reports_are_frozen():
    # Digest of every rendered report, measured on the Fraction-weighted chain.
    reports = [verify_against_closed_forms(*case) for case in ENUMERABLE_CASES]
    text = "".join(report.render() + "\n" for report in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "290939ff289beefe0a3f3b4ac4d64ceb068b06b81b78def56905fb63b2e25c5e"
    )
    assert sum(report.ok for report in reports) == 53
    # The law and its total stay Fraction; the rest are integer weights over
    # the denominator, and the prefix 01, never seen, has no cell.
    enum = exact_enumeration(2, 1, 3)
    assert all(isinstance(value, Fraction) for value in [*enum.law.values(), enum.total_mass])
    weights = [*enum.weights.values(), enum.denominator, *enum.mixed]
    weights += [*enum.eav_cells[2][pack_bits((1, 1))]]
    assert all(type(weight) is int for weight in weights)
    assert _eav_prefix(enum, (0, 1)) == (0, None)


def test_mixed_weights_are_zero_on_every_enumerable_case():
    # An eavesdropper whose bit differs from the legitimate one leaves the pool
    # and is never probed again, so no law has a hit after a mixed step.
    assert all(exact_enumeration(*case).mixed == (0, 0) for case in ENUMERABLE_CASES)


def _mixed_by_steps(law, L):
    """Weight of eavesdropper hits after a first (1, 0), resp. (0, 1), step, step by step."""
    mixed = [0, 0]
    for (yl, ye), w in law.items():
        bits = [(yl >> i & 1, ye >> i & 1) for i in range(L)]
        for side, pair in enumerate(((1, 0), (0, 1))):
            if pair in bits:
                mixed[side] += w * sum(e for _, e in bits[bits.index(pair) + 1 :])
    return tuple(mixed)


def test_mixed_weights_count_hits_after_the_first_mixed_step(monkeypatch):
    # The policy's laws have no such hits, so a hand-built law checks the formula.
    law = {
        (0b001, 0b110): 3,  # (1,0) then two hits; (0,1) then one
        (0b010, 0b101): 5,  # (0,1) then a (1,0) step and one hit after each
        (0b011, 0b111): 2,  # a (0,1) step last, with nothing after it
        (0b100, 0b011): 1,  # two (0,1) steps, then a (1,0) step last
        (0b000, 0b000): 6,
    }
    monkeypatch.setattr(oracle, "_lumped_law", lambda K, c_int: (dict(law), 17))
    enum = exact_enumeration(8, 2, 3)
    assert enum.mixed == _mixed_by_steps(law, 3) == (11, 9)
    assert Fraction(enum.mixed[0], enum.denominator) == Fraction(11, 17)


@pytest.mark.usefixtures("compensated_sum")
def test_exact_rates_are_left_to_right_sums():
    # From Python 3.12 sum() of floats is compensated; the exact rates the
    # reports print hold the same bits on every version.
    for case in ENUMERABLE_CASES:
        enum = exact_enumeration(*case)
        rows = verify_against_closed_forms(*case).rows
        for name, steps in (("outer_bound", enum.main_steps), ("leakage_rate", enum.leakage_steps)):
            total = 0.0
            for step in steps:
                total += step
            rates = [row.oracle.hex() for row in rows if row.quantity.startswith(name)]
            assert rates == [(total / case[2]).hex()] * len(rates)
            assert rates or case[2] == 1  # L = 1 has no outer_bound row
    test_verify_reports_are_frozen()


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
    assert _eav_prefix(enum, ()) == (1, Fraction(1, 4))
    assert _eav_prefix(enum, (1,)) == (Fraction(1, 4), Fraction(1, 8))
    assert enum.mixed == (0, 0)

    report = verify_against_closed_forms(8, 2, 2)
    assert report.ok
    assert len(report.rows) == 12
    assert report.notes == []
    assert report.render().endswith("overall: MATCH (12 of 12 quantities within 1e-12)")


def test_single_step_main_rate_is_exact():
    assert exact_enumeration(4, 1, 1).main_steps == [binary_entropy(0.25)]


def test_three_step_case_departs_from_closed_forms():
    # Once the beam is found, later probes are deterministic singletons; the
    # closed forms keep assuming an even split, so step 3 drifts.
    enum = exact_enumeration(8, 2, 3)
    assert _eav_prefix(enum, (0, 0)) == (Fraction(9, 16), Fraction(2, 9))
    assert _eav_prefix(enum, (1, 0)) == (Fraction(7, 32), Fraction(1, 14))
    assert _eav_prefix(enum, (1, 1)) == (Fraction(1, 32), Fraction(1, 2))
    assert left_sum(enum.leakage_steps) / 3 == 0.7399430463420794
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


def test_a_nan_row_fails_the_verdict_and_is_listed():
    # failing() is the one tolerance rule: ok and the overall line read it,
    # so a NaN deviation cannot pass for a match nor drop out of the count.
    rows = [oracle.ReportRow("a", 0.5, 0.5), oracle.ReportRow("b", 0.5, math.nan)]
    report = oracle.VerificationReport(
        compute_schedule(8, 2, 2), oracle.TOL, rows, oracle.T3Adjudication(False), []
    )
    assert not report.ok
    assert report.failing() == rows[1:]
    assert report.render().endswith("overall: MISMATCH (1 of 2 quantities within 1e-12)")


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


@pytest.mark.parametrize(
    "K,B,L", [(8, 2, 2), (8, 2, 4), (7, 3, 3), (8, 1, 4), (2, 1, 2), (5, 2, 4), (8, 3, 3)]
)
def test_enumeration_matches_monte_carlo(K, B, L):
    # G-test of the simulated pattern histogram against the exact law.
    enum = exact_enumeration(K, B, L)
    counts = collect_stats(ModelConfig(K=K, L=L, B=B, seed=11, blocks=20_000)).pattern_counts
    g, dof, p = g_test(counts, enum.weights, enum.denominator)
    assert p >= G_TEST_LEVEL, (g, dof)


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
    rates = [left_sum(steps) / L for steps in (enum.main_steps, enum.leakage_steps)]
    assert _plug_in_rates(counts, L) == pytest.approx(rates, abs=1e-12)
    cells = prefix_cells(counts, L)[1]
    for j in range(1, L + 1):
        expected = defaultdict(lambda: [0, 0])  # [count, ones] per eavesdropper prefix
        for (_, ye), p in enum.law.items():
            cell = expected[pack_bits(ye[: j - 1])]
            cell[0] += p * scale
            cell[1] += p * scale * ye[j - 1]
        assert cells[j - 1] == expected


@pytest.mark.parametrize(
    "K,B,L,total",
    [(32, 8, 7, 5.0), (48, 5.5, 11, 5.261842188), (100, 7, 18, 6.623856190), (256, 16, 20, 8.0)],
)
def test_exact_main_steps_sum_to_the_uncovered_beam_identity(K, B, L, total):
    # Bisection pins every beam a probe ever covers, so the legitimate stream
    # carries log2 K - (u/K) log2 u bits in all, where u = K - sum(c_int)
    # beams are never probed and stay unresolved.
    sched = compute_schedule(K, B, L)
    law, denominator = _lumped_law(K, sched.c_int)
    steps = sum(step_entropies(prefix_cells(law, L)[0], denominator))
    u = K - sum(sched.c_int)
    assert steps == pytest.approx(math.log2(K) - u * math.log2(u) / K, abs=1e-12)
    assert steps == pytest.approx(total, abs=1e-9)
