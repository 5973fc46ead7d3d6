"""Exact transcript law of the probing policy and closed-form verification.

``exact_enumeration`` computes the joint law of the feedback pair (y_l, y_e)
in one forward pass over a lumped Markov chain on integer weights over one
common denominator, each pattern packed into an integer; ``law`` exposes them
as exact ``fractions.Fraction`` probabilities, built on first access.
Probes are uniform subsets of the pool, so beam labels are exchangeable: a
state is the feedback so far, the pool size, the step of the first
legitimate hit (0 while exploring) and where the eavesdropper sits
(coincident, elsewhere in the pool, or outside it), and each step branches
hypergeometrically.  Lumping is exact (Kemeny & Snell, *Finite Markov
Chains*, 6.3).  The policy transition is re-implemented here on purpose —
the law must stay independent of the simulator it is used to check.  The
statistics of the law (prefix cells, step entropies) are not: they come from
``model``, shared with the Monte Carlo estimators.

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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .bounds import T3_VARIANTS, closed_forms, prefix_probability_table
from .model import ExplorationSchedule, binary_entropy, compute_schedule
from .model import left_sum, pack_bits, prefix_cells, step_entropies

MAX_K = 8
MAX_L = 4
TOL = 1e-12  # largest |closed - oracle| a matching quantity may show

# Where the eavesdropper's beam sits relative to the legitimate one's pool.
COINCIDENT, IN_POOL, OUT_OF_POOL = 0, 1, 2


class GuardRailError(ValueError):
    """Instance too large for the exact law (K > MAX_K or L > MAX_L)."""


def _lumped_law(K: int, c_int: tuple[int, ...]) -> tuple[dict, int]:
    """Joint law of packed (y_l, y_e) over len(c_int) uses, averaged over uniform receiver states.

    A probe takes q of the n pool beams: c_j while exploring, and after a
    first hit at step det, c_det halved once per step since (at least 1).  It
    holds the legitimate beam, always in the pool, with probability q/n, and
    an eavesdropper elsewhere in the pool with probability (q - 1)/(n - 1)
    after that hit or q/(n - 1) after a miss.  The next pool is the probe
    after a hit and the rest after a miss; the eavesdropper stays in it only
    when its bit equals the legitimate one.

    Patterns are packed as by ``model.pack_bits``, step j in bit j-1, in the
    states and the law's keys.  Weights are integers over one common
    denominator D, returned with the law: each step brings every state to
    the lcm of the step's branch denominators, n(n - 1) with an in-pool
    eavesdropper and n otherwise, so the probabilities are exactly weight / D.
    """
    frontier = {
        (0, 0, K, 0, COINCIDENT): 1,
        (0, 0, K, 0, IN_POOL): K - 1,
    }
    denominator = K
    for j in range(1, len(c_int) + 1):
        # Every kept state has n >= 2 with an in-pool eavesdropper (n >= 1
        # otherwise): the zero-weight branches that would reach n = 1 with it
        # in the pool, or n = 0, are skipped below.  A zero denominator would
        # make the lcm, and so every weight, 0.
        dens = {
            (n, place): n * (n - 1) if place == IN_POOL else n
            for _, _, n, _, place in frontier
        }
        scale = math.lcm(*dens.values())
        denominator *= scale
        step: dict = {}
        bit = 1 << (j - 1)
        for (yl, ye, n, det, place), w in frontier.items():
            q = min(max(c_int[det - 1] >> (j - det), 1) if det else c_int[j - 1], n)
            w *= scale // dens[n, place]
            for bl, w_l in ((1, q), (0, n - q)):
                if not w_l:
                    continue
                if place == IN_POOL:
                    hits_e = q - bl
                    eav = (
                        (1, hits_e, IN_POOL if bl else OUT_OF_POOL),
                        (0, n - 1 - hits_e, OUT_OF_POOL if bl else IN_POOL),
                    )
                else:
                    eav = ((bl if place == COINCIDENT else 0, 1, place),)
                for be, w_e, where in eav:
                    if w_e:
                        key = (yl | bl * bit, ye | be * bit, q if bl else n - q,
                               det or bl * j, where)
                        step[key] = step.get(key, 0) + w * w_l * w_e
        frontier = step
    law: dict[tuple[int, int], int] = {}
    for (yl, ye, *_), w in frontier.items():
        law[(yl, ye)] = law.get((yl, ye), 0) + w
    return law, denominator


@dataclass
class EnumerationResult:
    """Exact transcript law of the instance ``schedule`` carries, plus its rates."""

    schedule: ExplorationSchedule
    main_steps: list[float]
    leakage_steps: list[float]
    _weights: dict = field(repr=False, default_factory=dict)
    _denominator: int = field(repr=False, default=1)
    _eav_cells: list[dict] = field(repr=False, default_factory=list)
    _mixed: tuple[int, int] = field(repr=False, default=(0, 0))

    @cached_property
    def law(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
        """The chain's integer weights as ``Fraction`` probabilities, built on first access."""
        L, d = self.schedule.L, self._denominator
        bits = [tuple(p >> i & 1 for i in range(L)) for p in range(1 << L)]
        return {(bits[yl], bits[ye]): Fraction(w, d) for (yl, ye), w in self._weights.items()}

    total_mass = property(lambda self: Fraction(sum(self._weights.values()), self._denominator))
    mixed_mass_10 = property(lambda self: Fraction(self._mixed[0], self._denominator))
    mixed_mass_01 = property(lambda self: Fraction(self._mixed[1], self._denominator))

    @property
    def main_rate(self) -> float:
        return left_sum(self.main_steps) / self.schedule.L

    @property
    def leakage(self) -> float:
        return left_sum(self.leakage_steps) / self.schedule.L

    def _eav_cell(self, j: int, prefix: tuple[int, ...]) -> tuple[int, int]:
        if not 1 <= j <= self.schedule.L or len(prefix) != j - 1:
            raise ValueError(f"no {len(prefix)}-bit prefix before step {j} of {self.schedule.L}")
        return self._eav_cells[j - 1].get(pack_bits(prefix), (0, 0))

    def prefix_mass(self, j: int, prefix: tuple[int, ...]) -> Fraction:
        return Fraction(self._eav_cell(j, prefix)[0], self._denominator)

    def prefix_flip(self, j: int, prefix: tuple[int, ...]) -> Fraction | None:
        weight, ones = self._eav_cell(j, prefix)
        return Fraction(ones, weight) if weight else None


def exact_enumeration(K: int, B: float, L: int) -> EnumerationResult:
    """Exact joint feedback law for one instance, with its derived rates.

    The law is that of the floored schedule ``c_int``, as simulated.  The
    statistics run on the chain's integer weights over their common
    denominator; ``int / int`` rounds correctly, as ``float(Fraction)`` does,
    and only the returned masses become ``Fraction``.

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

    # Weight of eavesdropper hits at a step j after an earlier step with
    # (y_l, y_e) = (1, 0), resp. (0, 1): bits of yl & ~ye, resp. ye & ~yl,
    # below bit j.
    mixed = [0, 0]
    for (yl, ye), w in weights.items():
        for j in range(1, L):
            if ye >> j & 1:
                mixed[0] += w if yl & ~ye & ((1 << j) - 1) else 0
                mixed[1] += w if ye & ~yl & ((1 << j) - 1) else 0

    return EnumerationResult(
        schedule=sched,
        main_steps=step_entropies(main_cells, denominator),
        leakage_steps=step_entropies(eav_cells, denominator),
        _weights=weights,
        _denominator=denominator,
        _eav_cells=eav_cells,
        _mixed=tuple(mixed),
    )


@dataclass(frozen=True)
class ReportRow:
    quantity: str
    closed: float
    oracle: float
    informational: bool = False

    @property
    def abs_dev(self) -> float:
        return abs(self.closed - self.oracle)


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

    @property
    def ok(self) -> bool:
        """True when every non-informational quantity matches within tol."""
        return all(r.abs_dev <= self.tol for r in self.rows if not r.informational)

    def failing(self) -> list[ReportRow]:
        return [r for r in self.rows if not r.informational and r.abs_dev > self.tol]

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
            lines.append("")
            lines.append("notes:")
            for n in self.notes:
                lines.append(f"- {n}")
        lines.append("")
        n_bad = len(self.failing())
        n_core = sum(1 for r in self.rows if not r.informational)
        verdict = "MATCH" if self.ok else "MISMATCH"
        lines.append(
            f"overall: {verdict} ({n_core - n_bad} of {n_core} quantities within {self.tol:g})"
        )
        return "\n".join(lines)


def _degeneracy_notes(sched: ExplorationSchedule, step_bad: bool, mass_bad: bool) -> list:
    notes = []
    singleton_dets = [k for k in range(1, sched.L) if sched.c_int[k - 1] < 2 ** (sched.L - k)]
    if singleton_dets and step_bad:
        notes.append(
            "detection at step(s) %s narrows the probe set to a single beam "
            "inside the block; probing then becomes deterministic, while the "
            "closed-form per-step entropies assume an even split at every "
            "depth" % singleton_dets
        )
    if mass_bad:
        notes.append(
            "exploration stops once the legitimate beam is detected, so long "
            "all-zero eavesdropper prefixes are more likely than the "
            "closed-form masses, which assume exploration continues for the "
            "full block"
        )
    if any(c == 1 for c in sched.c_int[:-1]):
        notes.append(
            "schedule entries equal to 1 cannot be halved after detection; "
            "closed-form 1/2 factors do not describe those steps"
        )
    return notes


def verify_against_closed_forms(K: int, B: float, L: int) -> VerificationReport:
    """Compare exact-law values against every closed-form quantity.

    Mismatches are report content, not errors.  The T3 coefficient
    comparison is informational: the report states which variant matches the
    exact deep-prefix contribution (within ``TOL``).
    """
    enum = exact_enumeration(K, B, L)
    sched = enum.schedule
    rows: list[ReportRow] = []
    step_bad = mass_bad = False

    # The T3 variants differ only on the deep prefixes 0^k 1^(j-1-k), k >= 1,
    # post-detection entries that first occur at j = 4.
    t3 = T3Adjudication(applicable=L >= 4)
    variants = T3_VARIANTS if t3.applicable else T3_VARIANTS[:1]
    closed = {v: closed_forms(sched, v) for v in variants}
    tables = {v: prefix_probability_table(sched, t3_variant=v) for v in variants}
    for j, (step, exact) in enumerate(zip(closed["as_printed"].main_steps, enum.main_steps), 1):
        rows.append(ReportRow(f"main_step_entropy_j{j}", step, exact))
        step_bad = step_bad or rows[-1].abs_dev > TOL
    ends = {v: pt.prefix(L)[:2] for v, pt in closed.items()}  # (outer, leakage) at L uses
    if L >= 2:
        rows.append(ReportRow("outer_bound", ends["as_printed"][0], enum.main_rate))

    deep_closed = dict.fromkeys(tables, 0.0)
    for (j, k), e in sorted(tables["as_printed"].items()):
        label = "0" * k + "1" * (j - 1 - k) or "empty"
        informational = j - 1 - k >= 2  # post-detection: two or more trailing ones
        # int / int rounds correctly, so each value is float() of the Fraction.
        weight, ones = enum._eav_cells[j - 1].get(((1 << (j - 1 - k)) - 1) << k, (0, 0))
        mass = weight / enum._denominator
        rows.append(ReportRow(f"prefix_mass_j{j}_p{label}", e.mass, mass, informational))
        mass_bad = mass_bad or (not informational and rows[-1].abs_dev > TOL)
        if weight:
            flip = ones / weight
            rows.append(ReportRow(f"prefix_flip_j{j}_p{label}", e.flip, flip))
        if informational and k >= 1:
            if weight:
                t3.oracle_value += mass * binary_entropy(flip)
            # Deep flips are 1/2 and H(1/2) = 1, so each adds its mass.
            for v, entries in tables.items():
                deep_closed[v] += entries[j, k].mass
    for name, mixed in zip(("10", "01"), enum._mixed):
        rows.append(ReportRow(f"flip_mass_after_joint_{name}", 0.0, mixed / enum._denominator))

    for variant, (_, leak) in ends.items():  # the variants coincide for L <= 3
        name = f"leakage_rate[t3={variant}]" if t3.applicable else "leakage_rate"
        rows.append(ReportRow(name, leak, enum.leakage, informational=t3.applicable))

    if t3.applicable:
        t3.variant_values = deep_closed
        devs = {v: abs(val - t3.oracle_value) for v, val in t3.variant_values.items()}
        t3.matching = [v for v, d in devs.items() if d <= TOL]
        t3.closest = min(devs, key=devs.get)

    notes = _degeneracy_notes(sched, step_bad, mass_bad)
    if not sched.is_integral:
        notes.append(
            f"the schedule is fractional; the exact law uses the floored schedule "
            f"{list(sched.c_int)}, as the simulator does"
        )
    return VerificationReport(schedule=sched, tol=TOL, rows=rows, t3=t3, notes=notes)
