"""The benchmark's workloads: inputs made from a seed, timed rounds, checks.

A workload is a closed loop in one process: ``round()`` makes one set of
calls into the package, times them, and checks their outputs (outside the
timed region).  Constructing a workload builds only what the package needs
as input, which is what the set-up time covers; ``prepare()`` builds the
expected values from ``reference``, which shares no code with the package.

The package is called through module attributes (``estimators.estimate_rates``
and so on) so that a traced run can wrap those attributes; see ``spans``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from bbp_secrecy import cli, estimators, model, oracle

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Monte Carlo estimates must lie within this many standard deviations of
# the exact rate, after allowing for the plug-in bias.
Z_LIMIT = 5.0
TOL = 1e-12


def calibrate() -> float:
    """Seconds one fixed piece of pure-Python work takes at this moment.

    On a shared virtual machine the speed can drift by a factor of two
    over tens of seconds.  Time measured in units of this kernel, run just before and
    just after the timed call, drifts by a few per cent.
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(40_000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0.0) + (i >> 3) * 0.5
    return time.perf_counter() - t0


def timed(fn, *args):
    """Call ``fn(*args)``; return (result, time it took in calibration units)."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return result, seconds * 2 / (before + calibrate())


class Workload:
    """Common bookkeeping: operations attempted and failed, check problems."""

    name = ""
    LAYERS: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def prepare(self) -> None:
        """Compute the expected values the checks compare against."""

    def round(self) -> tuple[int, float]:
        """Run one round; return (work items done, calibration units spent in the package)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once per run, and clean-up."""

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{self.name}: {text}")

    def layer_metrics(self, layers: dict, rounds: int) -> dict[str, tuple[float, str]]:
        """The metrics named in ``LAYERS`` from traced rounds; ``layers``
        maps span name to ``spans.Totals``."""
        raise NotImplementedError


def _bits(bits: tuple[int, ...]) -> int:
    return sum(b << i for i, b in enumerate(bits))


class MonteCarlo(Workload):
    """``estimators.estimate_rates`` on fresh seeds, ``blocks`` blocks per call."""

    LAYERS = (
        "channel.simulate_block_us",
        "channel.jcas_step_us",
        "channel.probed_beams_per_block",
        "estimators.collect_stats_us_per_block",
        "estimators.count_overhead_us_per_block",
        "estimators.rate_estimation_ms",
        "estimators.distinct_patterns",
    )
    K = L = blocks = 0
    B = 0.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.schedule = model.compute_schedule(self.K, self.B, self.L)
        self.config = self._next_config()

    def _next_config(self) -> model.ModelConfig:
        return model.ModelConfig(
            K=self.K, L=self.L, B=self.B, seed=self.rng.getrandbits(64), blocks=self.blocks
        )

    def prepare(self) -> None:
        self.joint = reference.law(self.K, self.B, self.L)
        self.support = {(_bits(yl), _bits(ye)) for yl, ye in self.joint}
        self.expected = reference.rates(self.joint, self.L)
        self.merged: dict[tuple[int, int], int] = {}
        self.calls = 0
        self.window: dict[tuple[int, int], tuple[float, float]] = {}

    def round(self) -> tuple[int, float]:
        self.attempted += 1
        (main, leak, stats), units = timed(estimators.estimate_rates, self.config, self.schedule)
        self._check(main, leak, stats)
        self.config = self._next_config()
        return self.blocks, units

    def _check(self, main, leak, stats) -> None:
        counts = dict(stats.pattern_counts)
        groups = [dict(g) for g in stats.group_counts]
        n = self.blocks
        if stats.blocks != n or sum(counts.values()) != n:
            self.problem(f"counted {sum(counts.values())} of {n} blocks")
        if sum(sum(g.values()) for g in groups) != n:
            self.problem("batch-means groups do not add up to the blocks")
        if stats.clamped_probes or stats.cost_violations:
            self.problem(
                f"clamped_probes={stats.clamped_probes} cost_violations={stats.cost_violations}"
            )
        impossible = set(counts) - self.support
        if impossible:
            self.problem(f"{len(impossible)} patterns the policy cannot produce, e.g. {min(impossible)}")
        for key, c in counts.items():
            self.merged[key] = self.merged.get(key, 0) + c
        self.calls += 1
        for stream, est in ((0, main), (1, leak)):
            value = reference.plug_in_rate(counts, stream, self.L)
            group_rates = [reference.plug_in_rate(g, stream, self.L) for g in groups if g]
            stderr = statistics.stdev(group_rates) / math.sqrt(len(group_rates))
            if abs(value - est.value) > 1e-9 or abs(stderr - est.stderr) > 1e-9:
                self.problem(
                    f"stream {stream}: estimate {est.value}±{est.stderr} but the counts "
                    f"give {value}±{stderr}"
                )
            self._check_rate(stream, est.value, n)

    def _check_rate(self, stream: int, value: float, blocks: int) -> None:
        """``value`` is the plug-in rate of ``blocks`` blocks.

        The yardstick is the standard deviation computed from the exact law,
        not the package's batch-means standard error: with groups of 10 to
        25 blocks that one is off by a factor of 0.6 to 2.
        """
        exact = self.expected[stream]
        if (stream, blocks) not in self.window:
            sd = reference.plug_in_sd(self.joint, stream, self.L, blocks)
            bias = reference.plug_in_bias_bound(self.joint, stream, self.L, blocks)
            self.window[stream, blocks] = (exact - bias - Z_LIMIT * sd, exact + Z_LIMIT * sd)
        lo, hi = self.window[stream, blocks]
        if not lo <= value <= hi:
            self.problem(
                f"stream {stream}: {blocks} blocks give {value}, outside "
                f"[{lo}, {hi}] around the exact rate {exact}"
            )

    def finish(self) -> None:
        """The same test on the counts of all calls together, which is tighter."""
        for stream in (0, 1) if self.calls > 1 else ():
            value = reference.plug_in_rate(self.merged, stream, self.L)
            self._check_rate(stream, value, self.calls * self.blocks)

    def layer_metrics(self, layers: dict, rounds: int) -> dict[str, tuple[float, str]]:
        blocks = rounds * self.blocks
        rates = layers["estimators.estimate_rates"]
        collect = layers["estimators.collect_stats"]
        block = layers["channel.simulate_block"]
        step = layers["channel.jcas_step"]
        return {
            "channel.simulate_block_us": (block.seconds / block.calls * 1e6, "us"),
            "channel.jcas_step_us": (step.seconds / step.calls * 1e6, "us"),
            "channel.probed_beams_per_block": (step.count / blocks, "count"),
            "estimators.collect_stats_us_per_block": (collect.seconds / blocks * 1e6, "us/block"),
            "estimators.count_overhead_us_per_block": (
                (collect.seconds - block.seconds) / blocks * 1e6,
                "us/block",
            ),
            "estimators.rate_estimation_ms": (
                (rates.seconds - collect.seconds) / rates.calls * 1e3,
                "ms",
            ),
            "estimators.distinct_patterns": (rates.count / rates.calls, "count"),
        }


class McAcceptance(MonteCarlo):
    name = "mc_acceptance"
    K, B, L, blocks = 32, 8.0, 5, 2_500


class McWideLong(MonteCarlo):
    name = "mc_wide_long"
    K, B, L, blocks = 256, 16.0, 12, 1_000


def enumerable_cases() -> list[tuple[int, int, int]]:
    """Every (K, B, L) with integer B that ``exact_enumeration`` accepts."""
    return [
        (K, B, L)
        for K in range(2, oracle.MAX_K + 1)
        for B in range(1, K + 1)
        for L in range(1, oracle.MAX_L + 1)
        if model.compute_schedule(K, B, L).is_integral
    ]


class ExactVerify(Workload):
    """``oracle.verify_against_closed_forms`` over every enumerable case, in passes."""

    name = "exact_verify"
    LAYERS = (
        "oracle.exact_enumeration_ms",
        "oracle.largest_case_ms",
        "oracle.verify_report_ms",
        "oracle.law_support",
        "bounds.prefix_probability_table_us",
    )
    LARGEST = (8, 2, 4)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = enumerable_cases()
        self.largest_s: list[float] = []

    def prepare(self) -> None:
        self.laws = {case: reference.law(*case) for case in self.cases}
        self.expected = {case: _expected_rows(case, self.laws[case]) for case in self.cases}

    def round(self) -> tuple[int, float]:
        order = self.cases[:]
        self.rng.shuffle(order)
        self.attempted += len(order)
        reports, units = timed(self._pass, order)
        for case, report in zip(order, reports):
            self._check(case, report)
        return len(order), units

    def _pass(self, order):
        reports = []
        for case in order:
            t0 = time.perf_counter()
            reports.append(oracle.verify_against_closed_forms(*case))
            if case == self.LARGEST:
                self.largest_s.append(time.perf_counter() - t0)
        return reports

    def _check(self, case, report) -> None:
        expected = self.expected[case]
        names = [row.quantity for row in report.rows]
        if sorted(names) != sorted(expected):
            self.problem(f"{case}: report rows {names} differ from {sorted(expected)}")
            return
        for row in report.rows:
            closed, exact = expected[row.quantity]
            if abs(row.oracle - exact) > TOL:
                self.problem(f"{case} {row.quantity}: exact value {row.oracle}, reference {exact}")
            if closed is not None and abs(row.closed - closed) > TOL:
                self.problem(f"{case} {row.quantity}: closed form {row.closed}, reference {closed}")
        ok = all(abs(r.closed - r.oracle) <= report.tol for r in report.rows if not r.informational)
        if report.ok != ok:
            self.problem(f"{case}: report.ok={report.ok} disagrees with its own rows")

    def finish(self) -> None:
        for case in self.cases:
            enum = oracle.exact_enumeration(*case)
            if enum.total_mass != 1:
                self.problem(f"{case}: total mass {enum.total_mass}")
            if enum.law != self.laws[case]:
                self.problem(f"{case}: enumerated law differs from the reference law")

    def layer_metrics(self, layers: dict, rounds: int) -> dict[str, tuple[float, str]]:
        enum = layers["oracle.exact_enumeration"]
        verify = layers["oracle.verify_against_closed_forms"]
        table = layers["bounds.prefix_probability_table"]
        return {
            "oracle.exact_enumeration_ms": (enum.seconds / rounds * 1e3, "ms"),
            "oracle.largest_case_ms": (statistics.median(self.largest_s[-rounds:]) * 1e3, "ms"),
            "oracle.verify_report_ms": ((verify.seconds - enum.seconds) / rounds * 1e3, "ms"),
            "oracle.law_support": (enum.count / rounds, "count"),
            "bounds.prefix_probability_table_us": (table.seconds / table.calls * 1e6, "us"),
        }


def _expected_rows(case, joint) -> dict[str, tuple[float | None, float]]:
    """Report row name -> (closed form or None if unchecked, exact value)."""
    K, B, L = case
    main_steps = reference.step_entropies(joint, 0, L)
    eav_steps = reference.step_entropies(joint, 1, L)
    closed_steps = reference.closed_main_steps(K, B, L)
    outer, leak = reference.closed_forms(K, B, L)
    rows: dict[str, tuple[float | None, float]] = {}
    for j in range(1, L + 1):
        rows[f"main_step_entropy_j{j}"] = (closed_steps[j - 1], main_steps[j - 1])
    if L >= 2:
        rows["outer_bound"] = (outer, sum(main_steps) / L)
    cells = reference.prefix_cells(joint, 1, L)
    for j in range(1, L + 1):
        for k in range(j - 1, -1, -1):
            prefix = (0,) * k + (1,) * (j - 1 - k)
            label = "".join(map(str, prefix)) or "empty"
            mass, ones = cells[j - 1].get(prefix, (0, 0))
            rows[f"prefix_mass_j{j}_p{label}"] = (None, float(mass))
            if mass:
                rows[f"prefix_flip_j{j}_p{label}"] = (None, float(ones / mass))
    after_10, after_01 = reference.hits_after_split(joint, L)
    rows["flip_mass_after_joint_10"] = (0.0, float(after_10))
    rows["flip_mass_after_joint_01"] = (0.0, float(after_01))
    leakage = sum(eav_steps) / L
    if L >= 4:
        rows["leakage_rate[t3=as_printed]"] = (leak, leakage)
        rows["leakage_rate[t3=state_summed]"] = (
            reference.closed_forms(K, B, L, state_summed=True)[1],
            leakage,
        )
    else:
        rows["leakage_rate"] = (leak, leakage)
    return rows


class BoundGrid(Workload):
    """``bbp-secrecy sweep`` over a wide grid, one CSV per sweep, in rounds.

    For every K the grid runs B from ``b_start`` (in (0, 1/2], from the seed)
    to K in steps of 1/2, for every L in ``LS``.  A sweep covers at most
    ``B_SPAN`` of that range, so that every timed call is short: the
    calibration around a call then follows the machine's speed.
    """

    name = "bound_grid"
    LAYERS = (
        "model.compute_schedule_us",
        "bounds.bound_point_us",
        "cli.sweep_overhead_ms",
        "cli.csv_bytes",
    )
    KS = (64, 256, 1024)
    LS = (2, 4, 8, 16, 32)
    B_STEP = 0.5
    B_SPAN = 128

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.b_start = self.rng.randint(1, 64) / 128
        self.tmp = OUT_DIR / f"bound_grid-{seed}"
        self.sweeps = []  # (K, first B, number of B values, argv)
        for K in self.KS:
            span = min(K, self.B_SPAN)
            for lo in range(0, K, span):
                first = self.b_start + lo
                n = int(span / self.B_STEP)
                argv = [
                    "sweep", "--K", str(K), "--L", ",".join(map(str, self.LS)),
                    "--B-start", repr(first), "--B-stop", repr(first + (n - 1) * self.B_STEP),
                    "--B-step", repr(self.B_STEP), "--out", f"K{K}-B{lo}.csv",
                ]
                self.sweeps.append((K, first, n, argv))
        self.first: dict[str, bytes] = {}
        self.csv_bytes = 0

    def prepare(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=self.tmp.name + "-", dir=OUT_DIR))
        for *_, argv in self.sweeps:
            argv[-1] = str(self.tmp / argv[-1])

    def round(self) -> tuple[int, float]:
        points = 0
        units = 0.0
        self.csv_bytes = 0
        outer: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for K, first, n, argv in self.sweeps:
            self.attempted += 1
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code, u = timed(cli.main, argv)
            units += u
            rows = n * len(self.LS)
            points += rows
            path = argv[-1]
            if code != 0 or out.getvalue() != f"wrote {rows} rows to {path}\n":
                self.problem(f"sweep {argv} exited {code} and printed {out.getvalue()!r}")
                continue
            data = Path(path).read_bytes()
            self.csv_bytes += len(data)
            if path not in self.first:
                self.first[path] = data
                self._check_csv(K, first, n, data.decode("utf-8"), outer)
            elif data != self.first[path]:
                self.problem(f"{argv}: sweep output differs between rounds")
        for (K, L), points_b in outer.items():
            self._check_outer_shape(K, L, sorted(points_b))
        return points, units

    def _check_csv(self, K: int, first: float, n: int, text: str, outer: dict) -> None:
        lines = text.splitlines()
        if lines[0] != "K,L,B,outer,leakage,inner_raw,inner":
            self.problem(f"K={K}: header {lines[0]!r}")
        expected = [(L, first + i * self.B_STEP) for L in self.LS for i in range(n)]
        if len(lines) - 1 != len(expected):
            self.problem(f"K={K}: {len(lines) - 1} rows, expected {len(expected)}")
            return
        for line, (L, B) in zip(lines[1:], expected):
            fields = line.split(",")
            k, l, b = int(fields[0]), int(fields[1]), float(fields[2])
            out, leak, raw, inner = map(float, fields[3:])
            if (k, l, b) != (K, L, B):
                self.problem(f"row {line!r}: expected K={K} L={L} B={B}")
                return
            want_outer, want_leak = reference.closed_forms(K, B, L)
            if abs(out - want_outer) > TOL or abs(leak - want_leak) > TOL:
                self.problem(f"row {line!r}: reference outer={want_outer} leakage={want_leak}")
            if abs(raw - (out - leak)) > TOL or abs(inner - max(0.0, out - leak)) > TOL:
                self.problem(f"row {line!r}: inner is not max(0, outer - leakage)")
            outer.setdefault((K, L), []).append((B, out))

    def _check_outer_shape(self, K: int, L: int, points: list[tuple[float, float]]) -> None:
        """The outer bound is non-decreasing in B and constant for B >= K/2."""
        for (b0, o0), (b1, o1) in zip(points, points[1:]):
            if o1 < o0 - TOL:
                self.problem(f"K={K} L={L}: outer bound falls from {o0} at B={b0} to {o1} at B={b1}")
        saturated = [o for b, o in points if b >= K / 2]
        if saturated and max(saturated) - min(saturated) > TOL:
            self.problem(f"K={K} L={L}: outer bound not constant for B >= K/2")

    def finish(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def layer_metrics(self, layers: dict, rounds: int) -> dict[str, tuple[float, str]]:
        schedule = layers["model.compute_schedule"]
        point = layers["bounds.bound_point"]
        main = layers["cli.main"]
        return {
            "model.compute_schedule_us": (schedule.seconds / schedule.calls * 1e6, "us"),
            "bounds.bound_point_us": (point.seconds / point.calls * 1e6, "us"),
            "cli.sweep_overhead_ms": ((main.seconds - point.seconds) / rounds * 1e3, "ms"),
            "cli.csv_bytes": (self.csv_bytes, "bytes"),
        }


WORKLOADS = {w.name: w for w in (McAcceptance, McWideLong, ExactVerify, BoundGrid)}
# Where a traced run of another workload takes the layers it does not call.
LAYER_HOMES = (McAcceptance, ExactVerify, BoundGrid)
