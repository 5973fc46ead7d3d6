"""Acceptance gate: one test per documented criterion, one PASS/FAIL line each.

Each test prints ``ACCEPTANCE <id> <what>: PASS|FAIL`` before asserting, so a
``pytest -v -rA`` run yields a line-per-criterion report.  Failing tests are
left failing on purpose where the closed forms and the simulated policy
genuinely disagree; see README for the catalogue of known discrepancies.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from bbp_secrecy import channel, cli
from bbp_secrecy.bounds import bound_point, closed_forms, prefix_probability_table
from bbp_secrecy.channel import block_seeds, simulate_block
from bbp_secrecy.estimators import collect_stats, estimate_rates
from bbp_secrecy.model import ModelConfig, compute_schedule, prefix_cells, step_entropies
from bbp_secrecy.oracle import _lumped_law, verify_against_closed_forms
from helpers import G_TEST_LEVEL, g_test, other_eavesdropper_state

LS = (2, 5, 8, 12)


def _report(label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{label}{tail}"


# --- criterion 1: single-use blocks carry no secret bits ---------------------


def test_c1_single_use_degeneracy():
    t0 = time.perf_counter()
    ok = all(
        bound_point(K, B, 1).outer == 0.0 and bound_point(K, B, 1).inner == 0.0
        for K in range(2, 65)
        for B in range(1, K + 1)
    )
    elapsed = time.perf_counter() - t0
    _report("C1 single-use bounds vanish", ok and elapsed < 1.0, f"{elapsed:.2f}s")


# --- criterion 2: hand-derived (32, 8, 2) point ------------------------------


def test_c2_hand_point():
    t0 = time.perf_counter()
    outer = bound_point(32, 8, 2).outer
    leak = closed_forms(compute_schedule(32, 8, 2)).leakage
    inner = bound_point(32, 8, 2).inner
    ok = (
        abs(outer - 0.875) <= 1e-12
        and abs(leak - 0.7778139) <= 1e-6
        and inner == outer - leak
        and time.perf_counter() - t0 < 1.0
    )
    _report("C2 hand-derived two-use point", ok)


# --- criterion 3: monotone in budget, saturating outer -----------------------


@pytest.mark.parametrize("L", LS)
def test_c3_outer_non_decreasing(L):
    vals = [bound_point(32, B, L).outer for B in range(1, 33)]
    ok = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    _report(f"C3 outer non-decreasing in B (L={L})", ok)


@pytest.mark.parametrize("L", LS)
def test_c3_inner_non_decreasing(L):
    vals = [bound_point(32, B, L).inner for B in range(1, 33)]
    bad = [
        (B, a, b) for B, (a, b) in enumerate(zip(vals, vals[1:]), start=1) if b < a - 1e-12
    ]
    _report(
        f"C3 inner non-decreasing in B (L={L})",
        not bad,
        f"first dip at B={bad[0][0]}->{bad[0][0]+1}" if bad else "",
    )


@pytest.mark.parametrize("L", LS)
def test_c3_outer_saturates(L):
    ref = bound_point(32, 16, L).outer
    ok = all(abs(bound_point(32, B, L).outer - ref) <= 1e-12 for B in range(16, 33))
    _report(f"C3 outer constant for B >= K/2 (L={L})", ok)


# --- criterion 4: leakage falls with block length ----------------------------


def test_c4_leakage_decreases_with_block_length():
    vals = [closed_forms(compute_schedule(32, 8, L)).leakage for L in LS]
    ok = all(b < a for a, b in zip(vals, vals[1:]))
    _report("C4 leakage strictly decreasing in L", ok)


# --- criterion 5: exact enumeration vs closed forms --------------------------


@pytest.mark.parametrize("L", [2, 3])
def test_c5_oracle_equivalence(L):
    t0 = time.perf_counter()
    report = verify_against_closed_forms(8, 2, L)
    elapsed = time.perf_counter() - t0
    failing = [row.quantity for row in report.failing()]
    _report(
        f"C5 enumeration matches closed forms (8,2,{L})",
        report.ok and elapsed < 120,
        f"mismatches: {failing}" if failing else f"{elapsed:.2f}s",
    )


def test_c5_exact_all_zero_mass_against_closed():
    # Twin of test_c5_oracle_equivalence[3]: before step 3 at (8, 2, 3) the
    # eavesdropper has seen 00 with exact mass 9/16; the closed form gives 1/2.
    sched = compute_schedule(8, 2, 3)
    law, denominator = _lumped_law(8, sched.c_int)
    exact = Fraction(prefix_cells(law, 3)[1][2][0][0], denominator)
    closed = Fraction(prefix_probability_table(sched)[3, 2].mass)
    _report(
        "C5 exact all-zero mass 9/16 against the closed 1/2 (8,2,3)",
        (exact, closed) == (Fraction(9, 16), Fraction(1, 2)),
        f"exact={exact} closed={closed}",
    )


def test_c5_deep_term_adjudication():
    report = verify_against_closed_forms(8, 2, 4)
    matching = [v for v, row in report.t3.items() if row.abs_dev <= report.tol]
    _report(
        "C5 exactly one deep-term variant matches (8,2,4)",
        matching == ["state_summed"],
        f"matching={matching}",
    )


# --- criterion 6: Monte Carlo vs closed forms at (32, 8, 5) ------------------

MC_CONFIG = ModelConfig(K=32, L=5, B=8, seed=7, blocks=10**6)
MC_SCHEDULE = compute_schedule(32, 8, 5)
MC_TABLE = prefix_probability_table(MC_SCHEDULE)


@pytest.fixture(scope="module")
def mc_run():
    t0 = time.perf_counter()
    main_est, leak_est, stats = estimate_rates(MC_CONFIG, workers=2)
    elapsed = time.perf_counter() - t0
    return main_est, leak_est, stats, elapsed


def test_c6_runtime_budget(mc_run):
    elapsed = mc_run[3]
    _report("C6 10^6-block run under budget", elapsed < 120, f"{elapsed:.1f}s")


def test_c6_main_rate_within_three_sigma(mc_run):
    main_est = mc_run[0]
    closed = bound_point(32, 8, 5).outer
    z = (main_est.value - closed) / main_est.stderr
    _report("C6 main rate within 3 sigma", abs(z) <= 3, f"z={z:+.1f}")


def test_c6_leakage_within_three_sigma(mc_run):
    leak_est = mc_run[1]
    closed = closed_forms(compute_schedule(32, 8, 5)).leakage
    z = (leak_est.value - closed) / leak_est.stderr
    _report("C6 leakage within 3 sigma", abs(z) <= 3, f"z={z:+.1f}")


def _flip_cases():
    for (j, k), entry in sorted(MC_TABLE.items()):
        prefix = "0" * k + "1" * (j - 1 - k)
        yield pytest.param(j, prefix, entry.flip, id=f"j{j}-{prefix or 'empty'}")


@pytest.mark.parametrize("j,prefix,closed", list(_flip_cases()))
def test_c6_prefix_flip_within_three_sigma(mc_run, j, prefix, closed):
    stats = mc_run[2]
    seen = prefix_cells(stats.pattern_counts, stats.L)[1][j - 1]
    bits = int(prefix[::-1], 2) if prefix else 0
    n, ones = seen[bits]
    phat = ones / n
    sigma = math.sqrt(closed * (1 - closed) / n)
    z = (phat - closed) / sigma
    _report(
        f"C6 flip after '{prefix or '-'}' (step {j}) within 3 sigma",
        abs(z) <= 3,
        f"z={z:+.1f} n={n}",
    )


# --- criterion 6, exact: the simulator against the exact law at (32, 8, 5) --
#
# The lumped chain gives the exact joint law of the C6 policy (136 patterns,
# counts of receiver-state pairs over K²).  The simulated blocks follow it, so
# each C6 failure above is the distance between that law and the closed forms;
# the exact twins state that distance without sampling error.

C6_LAW, C6_DENOMINATOR = _lumped_law(32, MC_SCHEDULE.c_int)


def test_c6_simulated_patterns_follow_the_exact_law(mc_run):
    # G-test of the fixture's pattern counts.
    g, dof, p = g_test(mc_run[2].pattern_counts, C6_LAW, C6_DENOMINATOR)
    _report(
        f"C6 simulated patterns follow the exact law (G-test, p >= {G_TEST_LEVEL:g})",
        p >= G_TEST_LEVEL,
        f"G={g:.1f} dof={dof} p={p:.3f}",
    )


def test_wide_simulated_patterns_follow_the_exact_law():
    # A short run at (256, 16, 12), where pools are large enough for the
    # sampler's redraw-into-a-set branch; seed and level fixed before the
    # first run.
    config = ModelConfig(K=256, L=12, B=16, seed=2201, blocks=2 * 10**4)
    law, denominator = _lumped_law(256, compute_schedule(256, 16, 12).c_int)
    g, dof, p = g_test(collect_stats(config, workers=1).pattern_counts, law, denominator)
    _report(
        f"(256,16,12) simulated patterns follow the exact law (G-test, p >= {G_TEST_LEVEL:g})",
        p >= G_TEST_LEVEL,
        f"G={g:.1f} dof={dof} p={p:.3f}",
    )


def _c6_exact_steps(stream: int) -> list[float]:
    return step_entropies(prefix_cells(C6_LAW, MC_CONFIG.L)[stream], C6_DENOMINATOR)


def test_c6_exact_main_rate_against_closed():
    # Twin of test_c6_main_rate_within_three_sigma.  The step entropies agree
    # through step 4; at step 5 the exact one is 0.75 bits, the closed one 1.
    exact, closed = _c6_exact_steps(0), closed_forms(MC_SCHEDULE).main_steps
    assert exact[:4] == pytest.approx(closed[:4], abs=1e-15)
    assert (exact[4], closed[4]) == (0.75, 1.0)
    rate, outer = sum(exact) / 5, bound_point(32, 8, 5).outer
    _report(
        "C6 exact main rate 0.9 against the closed 0.95",
        rate == pytest.approx(0.9, abs=1e-15) and outer == pytest.approx(0.95, abs=1e-15),
        f"exact={rate!r} closed={outer!r}",
    )


def test_c6_exact_leakage_against_closed():
    # Twin of test_c6_leakage_within_three_sigma.
    exact = sum(_c6_exact_steps(1)) / 5
    closed = closed_forms(MC_SCHEDULE).leakage
    _report(
        "C6 exact leakage 0.5532697916 against the closed 0.4780315873",
        exact == pytest.approx(0.5532697916, abs=1e-10)
        and closed == pytest.approx(0.4780315873, abs=1e-10),
        f"exact={exact!r} closed={closed!r}",
    )


# Exact (eavesdropper flip, closed flip) after each tabulated prefix that the
# C6 flip tests above test against the simulation.
C6_EXACT_FLIPS = {
    "j3-00": (Fraction(2, 9), Fraction(1, 4)),
    "j4-000": (Fraction(1, 14), Fraction(1, 8)),
    "j5-0000": (Fraction(1, 52), Fraction(1, 16)),
    "j3-11": (Fraction(1, 4), Fraction(1, 2)),
    "j4-111": (Fraction(1, 4), Fraction(1, 2)),
    "j4-011": (Fraction(1, 4), Fraction(1, 2)),
    "j5-0111": (Fraction(1, 4), Fraction(1, 2)),
    "j5-0011": (Fraction(1, 4), Fraction(1, 2)),
    "j5-1111": (Fraction(1, 2), Fraction(1, 2)),
}


@pytest.mark.parametrize("case", list(C6_EXACT_FLIPS))
def test_c6_exact_flip_against_closed(case):
    # Twin of test_c6_prefix_flip_within_three_sigma[case].
    step, prefix = case.split("-")
    j, k = int(step[1:]), prefix.count("0")
    mass, ones = prefix_cells(C6_LAW, j)[1][j - 1][int(prefix[::-1], 2)]
    exact, closed = Fraction(ones, mass), Fraction(MC_TABLE[j, k].flip)
    want_exact, want_closed = C6_EXACT_FLIPS[case]
    _report(
        f"C6 exact flip after '{prefix}' (step {j}) {want_exact} against the closed {want_closed}",
        (exact, closed) == (want_exact, want_closed),
        f"exact={exact} closed={closed}",
    )


# --- criterion 7: structural invariants on random blocks ---------------------

C7_GRID = [(4, 1, 3), (8, 2, 4), (16, 4, 3), (32, 8, 5), (64, 16, 2)]
C7_BLOCKS = 20_000  # per grid point; 10^5 in total


@pytest.fixture(scope="module")
def structural_scan():
    t0 = time.perf_counter()
    cost_bad = replay_bad = mixed_bad = 0
    for K, B, L in C7_GRID:
        sched = compute_schedule(K, B, L)
        budget = int(B)
        words = list(block_seeds(29, 0, C7_BLOCKS))
        blocks = [simulate_block(sched, random.Random(word)) for word in words]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "draw_states", other_eavesdropper_state)
            replays = [simulate_block(sched, random.Random(word)) for word in words]
        for tr, rep in zip(blocks, replays):
            if any(p.card > budget for p in tr.probes):
                cost_bad += 1
            if [p.mask for p in rep.probes] != [p.mask for p in tr.probes]:
                replay_bad += 1
            saw_10 = False
            for yl, ye in zip(tr.y_l, tr.y_e):
                if saw_10 and ye == 1:
                    mixed_bad += 1
                    break
                if (yl, ye) == (1, 0):
                    saw_10 = True
    return cost_bad, replay_bad, mixed_bad, time.perf_counter() - t0


def test_c7_cost_never_exceeds_budget(structural_scan):
    cost_bad, _, _, elapsed = structural_scan
    _report(
        "C7 cost within floor(B) on 10^5 blocks",
        cost_bad == 0 and elapsed < 60,
        f"violations={cost_bad} {elapsed:.1f}s",
    )


def test_c7_probes_independent_of_eavesdropper(structural_scan):
    replay_bad = structural_scan[1]
    _report("C7 probes unchanged under eavesdropper replay", replay_bad == 0)


def test_c7_no_eavesdropper_hits_after_10_history(structural_scan):
    mixed_bad = structural_scan[2]
    _report("C7 no Y^e=1 after a (1,0) joint step", mixed_bad == 0)


# --- criterion 8: scale invariance under (K, B) -> (mK, mB) ------------------


def test_c8_exact_pair():
    a = bound_point(4, 1, 2)
    b = bound_point(32, 8, 2)
    dev = max(
        abs(x - y)
        for x, y in (
            (a.outer, b.outer),
            (a.leakage, b.leakage),
            (a.inner_raw, b.inner_raw),
            (a.inner, b.inner),
        )
    )
    _report("C8 (4,1,2) equals (32,8,2)", dev <= 1e-12, f"max_dev={dev:.3g}")


C8_GRID = [(4, 2, 2, 8), (5, 2, 3, 4), (2, 1, 4, 16), (4, 1, 5, 8), (8, 2, 6, 4), (16, 4, 12, 2)]


@pytest.mark.parametrize("K,B,L,m", C8_GRID, ids=[f"K{K}-B{B}-L{L}-m{m}" for K, B, L, m in C8_GRID])
def test_c8_general_scale_invariance(K, B, L, m):
    a = bound_point(K, B, L)
    b = bound_point(m * K, m * B, L)
    dev = max(
        abs(x - y)
        for x, y in (
            (a.outer, b.outer),
            (a.leakage, b.leakage),
            (a.inner_raw, b.inner_raw),
            (a.inner, b.inner),
        )
    )
    _report(
        f"C8 ({K},{B},{L}) scales to ({m * K},{m * B},{L})",
        dev <= 1e-12,
        f"max_dev={dev:.3g}",
    )


@pytest.mark.parametrize("K,B,L,m", C8_GRID, ids=[f"K{K}-B{B}-L{L}-m{m}" for K, B, L, m in C8_GRID])
def test_c8_exact_scale_invariance_twin(K, B, L, m):
    # Twin of test_c8_general_scale_invariance.  The schedule scales with K,
    # so every term is invariant but the as_printed T3 sum S/K: the
    # state_summed bounds are bit-identical at K and mK, and the as_printed
    # leakage drops by S (1/K - 1/(mK)) = (m-1)/(m(K-1)) of the gap between
    # the two variants at K.
    small, large = compute_schedule(K, B, L), compute_schedule(m * K, m * B, L)
    summed = closed_forms(small, "state_summed").prefix(L)
    summed_m = closed_forms(large, "state_summed").prefix(L)
    printed, printed_m = closed_forms(small).leakage, closed_forms(large).leakage
    drop = printed - printed_m
    predicted = (m - 1) / (m * (K - 1)) * (summed[1] - printed)
    _report(
        f"C8 exact: ({K},{B},{L}) state_summed equals ({m * K},{m * B},{L}), "
        "as_printed drops by the T3 share",
        [x.hex() for x in summed] == [x.hex() for x in summed_m]
        and abs(drop - predicted) <= 1e-12,
        f"drop={drop:.4g} off_by={abs(drop - predicted):.3g}",
    )


# --- criterion 9: deterministic sweep artifact -------------------------------


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    t0 = time.perf_counter()
    rc = cli.main(["sweep", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    rows = []
    for line in out.read_text().splitlines()[1:]:
        K, L, B, outer, leak, inner_raw, inner = line.split(",")
        rows.append((int(K), int(L), int(B), float(outer), float(leak), float(inner_raw), float(inner)))
    return out, rows, elapsed


def test_c9_shape_and_runtime(sweep_csv):
    out, rows, elapsed = sweep_csv
    header = out.read_text().splitlines()[0]
    ok = len(rows) == 128 and header == "K,L,B,outer,leakage,inner_raw,inner" and elapsed < 1.0
    _report("C9 sweep emits 128-row CSV", ok, f"{elapsed:.2f}s")


def test_c9_byte_identical_across_runs_and_threads(sweep_csv, tmp_path, monkeypatch):
    out = sweep_csv[0]
    again = tmp_path / "again.csv"
    assert cli.main(["sweep", "--out", str(again)]) == 0
    monkeypatch.setenv("BBP_THREADS", "4")
    threaded = tmp_path / "threaded.csv"
    assert cli.main(["sweep", "--out", str(threaded)]) == 0
    ok = out.read_bytes() == again.read_bytes() == threaded.read_bytes()
    _report("C9 sweep byte-identical across runs/threads", ok)


@pytest.mark.parametrize("L", LS)
def test_c9_rows_outer_monotone_and_saturating(sweep_csv, L):
    rows = [r for r in sweep_csv[1] if r[1] == L]
    outers = [r[3] for r in rows]
    ok = (
        all(b >= a - 1e-12 for a, b in zip(outers, outers[1:]))
        and max(outers[15:]) - min(outers[15:]) <= 1e-12
    )
    _report(f"C9 row-wise outer monotone+saturating (L={L})", ok)


@pytest.mark.parametrize("L", LS)
def test_c9_rows_inner_monotone(sweep_csv, L):
    rows = [r for r in sweep_csv[1] if r[1] == L]
    inners = [r[6] for r in rows]
    bad = [B for B, (a, b) in enumerate(zip(inners, inners[1:]), start=1) if b < a - 1e-12]
    _report(
        f"C9 row-wise inner monotone (L={L})",
        not bad,
        f"dips after B={bad}" if bad else "",
    )


def test_c9_rows_leakage_decreasing_in_l(sweep_csv):
    at_b8 = {r[1]: r[4] for r in sweep_csv[1] if r[2] == 8}
    vals = [at_b8[L] for L in LS]
    ok = all(b < a for a, b in zip(vals, vals[1:]))
    _report("C9 row-wise leakage decreasing in L at B=8", ok)
