"""Exact transcript law of the probing policy and closed-form verification.

``exact_enumeration`` returns the full joint law of the feedback pair
(y_l, y_e) with exact ``fractions.Fraction`` probabilities, from one forward
pass over a lumped Markov chain whose weights are plain integers over one
common denominator.  Probes are uniform subsets of the pool, so beam labels
are exchangeable: a state is the feedback so far, the pool size, the step of
the first legitimate hit (0 while exploring) and where the eavesdropper sits
(coincident, elsewhere in the pool, or outside it), and each step branches
hypergeometrically.  Lumping is exact (Kemeny & Snell,
*Finite Markov Chains*, 6.3).  The policy transition is re-implemented here
on purpose — the law must stay independent of the simulator it is used to
check.  The statistics of the law (prefix cells, step entropies) are not:
they come from ``model``, shared with the Monte Carlo estimators.

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

from .bounds import (
    T3_VARIANTS,
    leakage_rate,
    main_step_entropies,
    prefix_probability_table,
)
from .model import ExplorationSchedule, binary_entropy, compute_schedule
from .model import pack_bits, prefix_cells, step_entropies

MAX_K = 8
MAX_L = 4
TOL = 1e-12  # largest |closed - oracle| a matching quantity may show

# Where the eavesdropper's beam sits relative to the legitimate one's pool.
COINCIDENT, IN_POOL, OUT_OF_POOL = 0, 1, 2


class GuardRailError(ValueError):
    """Instance too large for the exact law (K > MAX_K or L > MAX_L)."""


def _lumped_law(K: int, c_int: tuple[int, ...], L: int) -> tuple[dict, int]:
    """Joint law of (y_l, y_e), averaged over uniform receiver states.

    A probe takes q of the n pool beams: c_j while exploring, and after a
    first hit at step det, c_det halved once per step since (at least 1).  It
    holds the legitimate beam, always in the pool, with probability q/n, and
    an eavesdropper elsewhere in the pool with probability (q - 1)/(n - 1)
    after that hit or q/(n - 1) after a miss.  The next pool is the probe
    after a hit and the rest after a miss; the eavesdropper stays in it only
    when its bit equals the legitimate one.

    Weights are integers over one common denominator D, returned with the
    law: each step brings every state to the lcm of the step's branch
    denominators, n(n - 1) with an in-pool eavesdropper and n otherwise, so
    the probabilities are exactly weight / D.
    """
    frontier = {
        ((), (), K, 0, COINCIDENT): 1,
        ((), (), K, 0, IN_POOL): K - 1,
    }
    denominator = K
    for j in range(1, L + 1):
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
                        key = (yl + (bl,), ye + (be,), q if bl else n - q, det or bl * j, where)
                        step[key] = step.get(key, 0) + w * w_l * w_e
        frontier = step
    law: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for (yl, ye, *_), w in frontier.items():
        law[(yl, ye)] = law.get((yl, ye), 0) + w
    return law, denominator


@dataclass
class EnumerationResult:
    """Exact transcript law of the instance ``schedule`` carries, plus its rates."""

    schedule: ExplorationSchedule
    law: dict
    total_mass: Fraction
    main_steps: list[float]
    leakage_steps: list[float]
    mixed_mass_10: Fraction
    mixed_mass_01: Fraction
    _eav_cells: list[dict] = field(repr=False, default_factory=list)
    _denominator: int = field(repr=False, default=1)

    @property
    def main_rate(self) -> float:
        return sum(self.main_steps) / self.schedule.L

    @property
    def leakage(self) -> float:
        return sum(self.leakage_steps) / self.schedule.L

    def prefix_mass(self, j: int, prefix: tuple[int, ...]) -> Fraction:
        mass = self._eav_cells[j - 1].get(pack_bits(prefix), (0,))[0]
        return Fraction(mass, self._denominator)

    def prefix_flip(self, j: int, prefix: tuple[int, ...]) -> Fraction | None:
        cell = self._eav_cells[j - 1].get(pack_bits(prefix))
        if cell is None:
            return None
        return Fraction(cell[1], cell[0])


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
    weights, denominator = _lumped_law(K, sched.c_int, L)

    packed = {(pack_bits(yl), pack_bits(ye)): w for (yl, ye), w in weights.items()}
    eav_cells = prefix_cells(packed, 1, L)

    # Weight of eavesdropper hits at a step j after an earlier step with
    # (y_l, y_e) = (1, 0), resp. (0, 1): bits of yl & ~ye, resp. ye & ~yl,
    # below bit j.
    mixed_10 = 0
    mixed_01 = 0
    for (yl, ye), w in packed.items():
        for j in range(L):
            if ye >> j & 1:
                below = (1 << j) - 1
                if yl & ~ye & below:
                    mixed_10 += w
                if ye & ~yl & below:
                    mixed_01 += w

    return EnumerationResult(
        schedule=sched,
        law={pattern: Fraction(w, denominator) for pattern, w in weights.items()},
        total_mass=Fraction(sum(weights.values()), denominator),
        main_steps=step_entropies(prefix_cells(packed, 0, L), denominator),
        leakage_steps=step_entropies(eav_cells, denominator),
        mixed_mass_10=Fraction(mixed_10, denominator),
        mixed_mass_01=Fraction(mixed_01, denominator),
        _eav_cells=eav_cells,
        _denominator=denominator,
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


def _degeneracy_notes(sched: ExplorationSchedule, L: int, rows: list[ReportRow]) -> list[str]:
    notes = []
    singleton_dets = [k for k in range(1, L) if sched.c_int[k - 1] < 2 ** (L - k)]
    mass_bad = any(
        r.quantity.startswith("prefix_mass") and r.abs_dev > TOL and not r.informational
        for r in rows
    )
    step_bad = any(
        r.quantity.startswith("main_step") and r.abs_dev > TOL for r in rows
    )
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
    if any(c == 1 for c in sched.c_int[: L - 1]):
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

    closed_steps = main_step_entropies(sched)
    for j, closed in enumerate(closed_steps, start=1):
        rows.append(ReportRow(f"main_step_entropy_j{j}", closed, enum.main_steps[j - 1]))
    if L >= 2:
        # bound_point(K, B, L).outer, without computing the steps again
        rows.append(ReportRow("outer_bound", sum(closed_steps) / L, enum.main_rate))

    # The T3 variants differ only on the deep prefixes 0^k 1^(j-1-k), k >= 1,
    # post-detection entries that first occur at j = 4.
    t3 = T3Adjudication(applicable=L >= 4)
    tables = {
        v: prefix_probability_table(sched, t3_variant=v)
        for v in (T3_VARIANTS if t3.applicable else T3_VARIANTS[:1])
    }
    deep_closed = dict.fromkeys(tables, 0.0)
    for (j, k), e in sorted(tables["as_printed"].items()):
        prefix = (0,) * k + (1,) * (j - 1 - k)
        label = "0" * k + "1" * (j - 1 - k) or "empty"
        informational = j - 1 - k >= 2  # post-detection: two or more trailing ones
        mass = float(enum.prefix_mass(j, prefix))
        rows.append(ReportRow(f"prefix_mass_j{j}_p{label}", e.mass, mass, informational))
        flip = enum.prefix_flip(j, prefix)
        if flip is not None:
            rows.append(ReportRow(f"prefix_flip_j{j}_p{label}", e.flip, float(flip)))
        if informational and k >= 1:
            if flip is not None:
                t3.oracle_value += mass * binary_entropy(float(flip))
            # Deep flips are 1/2 and H(1/2) = 1, so each adds its mass.
            for v, entries in tables.items():
                deep_closed[v] += entries[j, k].mass
    rows.append(ReportRow("flip_mass_after_joint_10", 0.0, float(enum.mixed_mass_10)))
    rows.append(ReportRow("flip_mass_after_joint_01", 0.0, float(enum.mixed_mass_01)))

    for variant in tables:  # the variants coincide for L <= 3; one row is enough
        name = f"leakage_rate[t3={variant}]" if t3.applicable else "leakage_rate"
        leak = leakage_rate(sched, t3_variant=variant)
        rows.append(ReportRow(name, leak, enum.leakage, informational=t3.applicable))

    if t3.applicable:
        t3.variant_values = deep_closed
        devs = {v: abs(val - t3.oracle_value) for v, val in t3.variant_values.items()}
        t3.matching = [v for v, d in devs.items() if d <= TOL]
        t3.closest = min(devs, key=devs.get)

    notes = _degeneracy_notes(sched, L, rows)
    if not sched.is_integral:
        notes.append(
            f"the schedule is fractional; the exact law uses the floored schedule "
            f"{list(sched.c_int)}, as the simulator does"
        )
    return VerificationReport(schedule=sched, tol=TOL, rows=rows, t3=t3, notes=notes)
