"""Exact transcript law of the probing policy and closed-form verification.

``exact_enumeration`` computes the joint law of the feedback pair (y_l, y_e)
in one forward pass over a lumped Markov chain whose weights count the
receiver-state pairs (s_l, s_e) behind each pattern, over K² in all, each
pattern packed into an integer; ``law`` exposes them as exact
``fractions.Fraction`` probabilities, built on first access.
Probes are uniform subsets of the pool, so beam labels are exchangeable: a
state is the feedback so far, the pool size, the step of the first
legitimate hit (0 while exploring) and where the eavesdropper sits
(coincident, elsewhere in the pool, or outside it).  Each step branches a
state hypergeometrically on which receivers the probe holds, written out as
hit/miss branches for each place of the eavesdropper, whose order fixes the
order of the law.  Lumping is exact (Kemeny & Snell, *Finite Markov Chains*,
6.3).  The policy transition is re-implemented here on purpose — the law
must stay independent of the simulator it is used to check.  The statistics
of the law (prefix cells, step entropies) are not: they come from ``model``,
shared with the Monte Carlo estimators.

``verify_against_closed_forms`` compares the exact law against the
closed-form per-step entropies, every tabulated prefix mass/flip
probability, and the leakage rate under both T3 coefficient variants,
declaring which variant reproduces the exact deep-prefix contribution.

The law runs on the floored schedule ``c_int``, the probe sizes the
simulator uses, so any budget B is accepted; a fractional schedule only
adds a report note.  Guard rails: K <= 8 and L <= 4, checked before any
schedule is built; anything larger is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .bounds import T3_VARIANTS, closed_forms, prefix_probability_table
from .model import ExplorationSchedule, binary_entropy, compute_schedule
from .model import left_sum, prefix_cells, step_entropies

MAX_K = 8
MAX_L = 4
TOL = 1e-12  # largest |closed - oracle| a matching quantity may show

# Where the eavesdropper's beam sits relative to the legitimate one's pool.
COINCIDENT, IN_POOL, OUT_OF_POOL = 0, 1, 2


class GuardRailError(ValueError):
    """Instance too large for the exact law (K > MAX_K or L > MAX_L)."""


def _lumped_law(K: int, c_int: tuple[int, ...]) -> tuple[dict, int]:
    """Joint law of packed (y_l, y_e) over len(c_int) uses, as receiver-state pair counts over K².

    The beams (s_l, s_e) are independent and uniform, so a pattern's
    probability is the number of the K² ordered pairs that produce it, over
    K².  Probe sizes depend only on y_l and every probe lies in the pool, so
    for any draw of the probes a state of pool size n holds n(n - 1) pairs
    with the eavesdropper elsewhere in the pool, n with the beams coincident
    and n·e once the eavesdropper has left the pool with e possible beams.

    A probe takes q of the n pool beams: c_j while exploring, and after a
    first hit at step det, c_det halved once per step since (at least 1).
    The next pool is the probe after a legitimate hit and the other m = n - q
    beams after a miss.  A state branches by where the eavesdropper sits:

    - coincident (n pairs): both hit (q) or both miss (m);
    - in the pool (n(n - 1) pairs): both hit (q(q - 1)) and it stays in;
      only the legitimate receiver hits (qm) or only the eavesdropper (mq),
      and it leaves; both miss (m(m - 1)) and it stays in;
    - outside the pool (n·e pairs): the legitimate receiver hits (q·e) or
      misses (m·e).

    The branches come in that order, which fixes the order of the law's keys,
    and one of weight 0 is skipped.  Each key is reached from one state only,
    so each is set once.  Patterns are packed as by ``model.pack_bits``, step
    j in bit j-1.  Returns the law and its denominator K²: P = count / K².
    """
    frontier = {(0, 0, K, 0, COINCIDENT): K, (0, 0, K, 0, IN_POOL): K * (K - 1)}
    for j, c in enumerate(c_int, 1):
        step: dict = {}
        bit = 1 << (j - 1)
        for (yl, ye, n, det, place), w in frontier.items():
            q = (c_int[det - 1] >> (j - det) or 1) if det else c
            if q > n:
                q = n
            m = n - q
            hl, hd = yl | bit, det or j  # y_l and det after a hit
            if place == IN_POOL:  # w = n(n - 1), shared out among the four branches
                if q > 1:
                    step[hl, ye | bit, q, hd, IN_POOL] = q * (q - 1)
                if q and m:
                    step[hl, ye, q, hd, OUT_OF_POOL] = q * m
                    step[yl, ye | bit, m, det, OUT_OF_POOL] = m * q
                if m > 1:
                    step[yl, ye, m, det, IN_POOL] = m * (m - 1)
            else:
                w //= n
                if q:
                    step[hl, (ye | bit if place == COINCIDENT else ye), q, hd, place] = w * q
                if m:
                    step[yl, ye, m, det, place] = w * m
        frontier = step
    law: dict[tuple[int, int], int] = {}
    for (yl, ye, _, _, _), w in frontier.items():
        law[yl, ye] = law.get((yl, ye), 0) + w
    return law, K * K


@dataclass
class EnumerationResult:
    """Exact transcript law of the instance ``schedule`` carries, plus its step entropies.

    Each weight counts receiver-state pairs (s_l, s_e), a probability times
    ``denominator`` = K²: of each packed (y_l, y_e) pattern (``weights``),
    each eavesdropper prefix cell (``eav_cells``, as ``model.prefix_cells``)
    and the two ``flip_mass_after_joint_*`` rows.  The main rate and the
    leakage are ``left_sum(steps) / L`` of ``main_steps`` and ``leakage_steps``.
    """

    schedule: ExplorationSchedule
    main_steps: list[float]
    leakage_steps: list[float]
    weights: dict[tuple[int, int], int]
    denominator: int
    eav_cells: list[dict[int, list[int]]]
    mixed: tuple[int, int]

    @cached_property
    def law(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
        """The chain's pair counts as ``Fraction`` probabilities, built on first access."""
        L, d = self.schedule.L, self.denominator
        bits = [tuple(p >> i & 1 for i in range(L)) for p in range(1 << L)]
        return {(bits[yl], bits[ye]): Fraction(w, d) for (yl, ye), w in self.weights.items()}

    total_mass = property(lambda self: Fraction(sum(self.weights.values()), self.denominator))


def exact_enumeration(K: int, B: float, L: int) -> EnumerationResult:
    """Exact joint feedback law for one instance, with its step entropies.

    The law is that of the floored schedule ``c_int``, as simulated.  The
    statistics run on the chain's pair counts over K²; ``int / int`` rounds
    correctly, as ``float(Fraction)`` does, and only the returned masses
    become ``Fraction``.  The mixed weights of the
    ``flip_mass_after_joint_*`` rows are 0 on every law of the policy: an
    eavesdropper whose bit differs from the legitimate one leaves the pool for good.

    Raises
    ------
    GuardRailError
        If K > 8 or L > 4.
    """
    if K > MAX_K or L > MAX_L:
        raise GuardRailError(f"exact law limited to K <= {MAX_K}, L <= {MAX_L}; got K={K}, L={L}")
    sched = compute_schedule(K, B, L)
    weights, denominator = _lumped_law(K, sched.c_int)
    main_cells, eav_cells = prefix_cells(weights, L)

    # Eavesdropper hits after a first (y_l, y_e) = (1, 0), resp. (0, 1), step: a pattern's
    # weight once per bit of ye above the lowest bit of yl & ~ye, resp. ye & ~yl.
    mixed = [0, 0]
    for (yl, ye), w in weights.items():
        if first := yl & ~ye:
            mixed[0] += w * (ye & -((first & -first) << 1)).bit_count()
        if first := ye & ~yl:
            mixed[1] += w * (ye & -((first & -first) << 1)).bit_count()

    return EnumerationResult(sched, step_entropies(main_cells, denominator),
                             step_entropies(eav_cells, denominator),
                             weights, denominator, eav_cells, tuple(mixed))


@dataclass
class ReportRow:
    quantity: str
    closed: float
    oracle: float
    informational: bool = False

    abs_dev = property(lambda self: abs(self.closed - self.oracle))


@dataclass
class T3Adjudication:
    applicable: bool
    oracle_value: float = 0.0
    variant_values: dict[str, float] = field(default_factory=dict)
    matching: list[str] = field(default_factory=list)
    closest: str | None = None


@dataclass
class VerificationReport:
    """Closed-form vs exact-law comparison for the instance ``schedule`` carries."""

    schedule: ExplorationSchedule
    tol: float
    rows: list[ReportRow]
    t3: T3Adjudication
    notes: list[str]

    def failing(self) -> list[ReportRow]:
        """The non-informational rows not within tol, a NaN deviation among them."""
        return [r for r in self.rows if not r.informational and not r.abs_dev <= self.tol]

    ok = property(lambda self: not self.failing())

    def render(self) -> str:
        s = self.schedule
        lines = [
            f"verification: K={s.K} B={s.B:g} L={s.L} "
            f"schedule={[int(c) if c == int(c) else c for c in s.c]}",
            "",
        ]
        for r in self.rows:
            status = "ok" if r.abs_dev <= self.tol else "MISMATCH"
            if r.informational:
                status += " (informational)"
            lines.append(
                f"quantity={r.quantity} closed_form={r.closed:.12g} "
                f"oracle={r.oracle:.12g} abs_dev={r.abs_dev:.3g} status={status}"
            )
        lines.append("")
        if self.t3.applicable:
            for name, val in self.t3.variant_values.items():
                lines.append(
                    f"quantity=t3_sum[{name}] closed_form={val:.12g} "
                    f"oracle={self.t3.oracle_value:.12g} "
                    f"abs_dev={abs(val - self.t3.oracle_value):.3g} status=adjudication"
                )
            if self.t3.matching:
                lines.append(f"t3_matching_variant={','.join(self.t3.matching)}")
            else:
                lines.append(f"t3_matching_variant=none (closest: {self.t3.closest})")
        else:
            lines.append("t3_matching_variant=not_applicable (no deep prefixes for L <= 3)")
        if self.notes:
            lines += ["", "notes:", *(f"- {n}" for n in self.notes)]
        lines.append("")
        n_bad = len(self.failing())
        n_core = sum(1 for r in self.rows if not r.informational)
        verdict = "MISMATCH" if n_bad else "MATCH"
        lines.append(
            f"overall: {verdict} ({n_core - n_bad} of {n_core} quantities within {self.tol:g})"
        )
        return "\n".join(lines)


def _degeneracy_notes(sched: ExplorationSchedule, step_bad: bool, mass_bad: bool) -> list:
    notes = []
    L, c_int = sched.L, sched.c_int
    singleton_dets = [k for k in range(1, L) if c_int[k - 1] < 1 << (L - k)] if step_bad else []
    if singleton_dets:
        notes.append(
            "detection at step(s) %s narrows the probe set to a single beam inside the block; "
            "probing then becomes deterministic, while the closed-form per-step entropies "
            "assume an even split at every depth" % singleton_dets
        )
    if mass_bad:
        notes.append(
            "exploration stops once the legitimate beam is detected, so long all-zero "
            "eavesdropper prefixes are more likely than the closed-form masses, which assume "
            "exploration continues for the full block"
        )
    if 1 in c_int[:-1]:
        notes.append(
            "schedule entries equal to 1 cannot be halved after detection; "
            "closed-form 1/2 factors do not describe those steps"
        )
    return notes


# Each prefix 0^k 1^(j-1-k) the closed-form table lists, in (j, k) order: its
# key (j, k), packed bits and row names; the first L(L + 1)/2 serve L uses.
_PREFIX_ROWS = [
    (j, k, ((1 << (j - 1 - k)) - 1) << k, f"prefix_mass_j{j}_p{p}", f"prefix_flip_j{j}_p{p}")
    for j in range(1, MAX_L + 1)
    for k in range(j)
    for p in ["0" * k + "1" * (j - 1 - k) or "empty"]
]


def verify_against_closed_forms(K: int, B: float, L: int) -> VerificationReport:
    """Compare exact-law values against every closed-form quantity.

    Mismatches are report content, not errors.  The T3 coefficient
    comparison is informational: the report states which variant matches the
    exact deep-prefix contribution (within ``TOL``).
    """
    enum = exact_enumeration(K, B, L)
    sched, cells, denominator = enum.schedule, enum.eav_cells, enum.denominator
    rows: list[ReportRow] = []
    step_bad = mass_bad = False

    # The T3 variants differ only on the deep prefixes 0^k 1^(j-1-k), k >= 1,
    # post-detection entries that first occur at j = 4.
    applicable = L >= 4
    variants = T3_VARIANTS if applicable else T3_VARIANTS[:1]
    closed = [closed_forms(sched, v) for v in variants]
    tables = [prefix_probability_table(sched, t3_variant=v) for v in variants]
    for j, (step, exact) in enumerate(zip(closed[0].main_steps, enum.main_steps), 1):
        rows.append(ReportRow(f"main_step_entropy_j{j}", step, exact))
        step_bad = step_bad or abs(step - exact) > TOL
    if L >= 2:
        rows.append(ReportRow("outer_bound", closed[0].prefix(L)[0], left_sum(enum.main_steps) / L))

    deep, oracle_value = [], 0.0
    for j, k, prefix, mass_name, flip_name in _PREFIX_ROWS[: L * (L + 1) // 2]:
        e = tables[0][j, k]
        informational = j - 1 - k >= 2  # post-detection: two or more trailing ones
        # int / int rounds correctly, so each value is float() of the Fraction.
        weight, ones = cells[j - 1].get(prefix, (0, 0))
        mass = weight / denominator
        rows.append(ReportRow(mass_name, e.mass, mass, informational))
        mass_bad = mass_bad or (not informational and abs(e.mass - mass) > TOL)
        if weight:
            flip = ones / weight
            rows.append(ReportRow(flip_name, e.flip, flip))
        if informational and k >= 1:
            deep.append((j, k))
            if weight:
                oracle_value += mass * binary_entropy(flip)
    rows.append(ReportRow("flip_mass_after_joint_10", 0.0, enum.mixed[0] / denominator))
    rows.append(ReportRow("flip_mass_after_joint_01", 0.0, enum.mixed[1] / denominator))

    leakage = left_sum(enum.leakage_steps) / L
    for variant, pt in zip(variants, closed):  # the variants coincide for L <= 3
        name = f"leakage_rate[t3={variant}]" if applicable else "leakage_rate"
        rows.append(ReportRow(name, pt.prefix(L)[1], leakage, applicable))

    if applicable:
        # Deep flips are 1/2 and H(1/2) = 1, so each adds its mass.
        values = {v: left_sum(table[jk].mass for jk in deep) for v, table in zip(variants, tables)}
        devs = {v: abs(value - oracle_value) for v, value in values.items()}
        matching = [v for v, dev in devs.items() if dev <= TOL]
        t3 = T3Adjudication(True, oracle_value, values, matching, min(devs, key=devs.get))
    else:
        t3 = T3Adjudication(False)

    notes = _degeneracy_notes(sched, step_bad, mass_bad)
    if not sched.is_integral:
        notes.append(
            f"the schedule is fractional; the exact law uses the floored schedule "
            f"{list(sched.c_int)}, as the simulator does"
        )
    return VerificationReport(schedule=sched, tol=TOL, rows=rows, t3=t3, notes=notes)
