"""Command-line front end: bound queries, sweeps, simulation, verification.

Subcommands
-----------
bounds    print outer/leakage/inner for one (K, B, L) point
sweep     write a CSV of bound points over a B range for several L values
simulate  Monte Carlo rate estimates with z-scores against the closed forms
verify    exact-law cross-check of every closed form (small instances)

Exit codes: 0 success, 1 usage error (including guard-rail refusals),
2 runtime/I-O error, 3 verification mismatch.

Options may also be supplied through ``--config FILE`` holding ``key=value``
lines (``#`` comments allowed); explicit flags override file values.  The
``BBP_THREADS`` environment variable caps Monte Carlo worker processes.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bounds import bound_point, closed_forms
from .estimators import estimate_rates, unseen_table_prefixes
from .model import ModelConfig, check_instance, compute_schedule
from .oracle import GuardRailError, verify_against_closed_forms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_MISMATCH = 3

MAX_SWEEP_ROWS = 10**6


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_l_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad L list: {raw!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty L list")
    return values


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _fmt_schedule(sched) -> str:
    return "[" + ", ".join(f"{c:g}" for c in sched.c) + "]"


def cmd_bounds(args: argparse.Namespace) -> int:
    pt = bound_point(args.K, args.B, args.L)
    print(f"K={args.K} B={args.B:g} L={args.L} schedule={_fmt_schedule(pt.schedule)}")
    print(f"outer     = {pt.outer:.10g}")
    print(f"leakage   = {pt.leakage:.10g}")
    print(f"inner_raw = {pt.inner_raw:.10g}")
    print(f"inner     = {pt.inner:.10g}")
    return EXIT_OK


def _fmt_b(B: float) -> str:
    return str(int(B)) if B == int(B) else repr(B)


def cmd_sweep(args: argparse.Namespace) -> int:
    L_values = sorted(set(args.L))
    for L in L_values:
        check_instance(args.K, 1, L)  # K and L limits, before any grid is built
    B_stop = float(args.K) if args.B_stop is None else args.B_stop
    if not all(map(math.isfinite, (args.B_start, B_stop, args.B_step))):
        raise ValueError("B start, stop and step must be finite")
    if args.B_step <= 0:
        raise ValueError("B step must be positive")
    if B_stop < args.B_start:
        raise ValueError("empty B range")
    n_b = int(min((B_stop - args.B_start) / args.B_step + 1e-9, MAX_SWEEP_ROWS)) + 1
    if n_b * len(L_values) > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep grid exceeds {MAX_SWEEP_ROWS} rows; use a coarser B step")
    # Rounding can carry the last B past B_stop (which may be K itself).
    b_grid = [min(args.B_start + i * args.B_step, B_stop) for i in range(n_b)]
    for B in (b_grid[0], b_grid[-1]):  # the B range, before any row is built
        check_instance(args.K, B, L_values[0])
    # One pass per effective budget min(B, K/2) at the longest L gives every
    # row of that budget: c_j <= K/2, so every B >= K/2 has the same schedule,
    # and the recursion runs forward, so every shorter L is a prefix of the
    # pass.  Rows are written L-major, as they are listed, a column per L.
    tails = {}  # effective budget -> ",outer,leakage,inner_raw,inner\n" per L
    b_rows = []  # (B text, its budget's tails) per B
    for B in b_grid:
        b_eff = min(B, args.K / 2)
        tail = tails.get(b_eff)
        if tail is None:
            pt = bound_point(args.K, b_eff, L_values[-1])
            tails[b_eff] = tail = []
            for L in L_values:  # inner = max(0.0, raw), so its text is raw's or "0.0"
                outer, leak, raw, _ = pt.prefix(L)
                text = repr(raw)
                tail.append(f",{outer!r},{leak!r},{text},{text if raw > 0.0 else '0.0'}\n")
        b_rows.append((_fmt_b(B), tail))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("K,L,B,outer,leakage,inner_raw,inner\n")
        for i, L in enumerate(L_values):
            head = f"{args.K},{L},"
            fh.writelines([head + b_text + tail[i] for b_text, tail in b_rows])
    print(f"wrote {n_b * len(L_values)} rows to {args.out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.blocks < 1:
        raise ValueError("blocks must be >= 1")
    config = ModelConfig(
        K=args.K, L=args.L, B=args.B, seed=args.seed, blocks=args.blocks
    )
    sched = compute_schedule(args.K, args.B, args.L)
    if not sched.is_integral:
        print(
            f"warning: fractional schedule {_fmt_schedule(sched)} is floored to "
            f"{list(sched.c_int)} for simulation; closed-form agreement is "
            "only approximate",
            file=sys.stderr,
        )
    main_est, leak_est, stats = estimate_rates(
        config, sched, dump_path=args.dump_transcripts
    )
    closed = closed_forms(sched)
    # The main entropy rate, not .outer: the outer bound is 0 at L = 1.
    closed_main = closed.main_totals[-1] / args.L
    closed_leak = closed.leakage

    def z(est, closed):
        if est.stderr == 0.0:
            return 0.0 if est.value == closed else math.copysign(math.inf, est.value - closed)
        return (est.value - closed) / est.stderr

    print(
        f"K={args.K} B={args.B:g} L={args.L} blocks={args.blocks} "
        f"seed={args.seed} schedule={_fmt_schedule(sched)}"
    )
    print(
        f"main_rate estimate={main_est.value:.10g} stderr={main_est.stderr:.4g} "
        f"closed={closed_main:.10g} z={z(main_est, closed_main):+.3f}"
    )
    print(
        f"leakage   estimate={leak_est.value:.10g} stderr={leak_est.stderr:.4g} "
        f"closed={closed_leak:.10g} z={z(leak_est, closed_leak):+.3f}"
    )
    print(
        f"clamped_probes={stats.clamped_probes} "
        f"cost_violations={stats.cost_violations} "
        f"unseen_table_prefixes={len(unseen_table_prefixes(stats))}"
    )
    if args.dump_transcripts:
        print(f"transcripts written to {args.dump_transcripts}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    check_instance(args.K, args.B, args.L)
    report = verify_against_closed_forms(args.K, args.B, args.L)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_MISMATCH


def build_parser() -> _Parser:
    """Build the CLI parser.

    No option is argparse-required, so that a ``--config`` file may supply
    K/B/L; ``main`` checks a subcommand's ``_required`` options after the
    file is merged.  The terminal width is read once, as ``HelpFormatter``
    reads it, instead of once per formatter argparse builds.
    """
    import shutil
    from functools import partial

    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="bbp-secrecy", description=__doc__.split("\n")[0], formatter_class=fmt)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, summary, point=True):
        p = sub.add_parser(name, help=summary, formatter_class=fmt)
        if point:
            p.add_argument("--K", type=int, help="number of beams")
            p.add_argument("--B", type=float, help="per-symbol cost budget")
            p.add_argument("--L", type=int, help="channel uses per block")
        p.add_argument("--config", help="key=value file; flags take precedence")
        p.set_defaults(_func=func, _required=("K", "B", "L") if point else (), _parser=p)
        return p

    add_command("bounds", cmd_bounds, "closed-form bounds at one (K, B, L)")

    p = add_command("sweep", cmd_sweep, "CSV of bound points over a B range", point=False)
    p.add_argument("--K", type=int, default=32)
    p.add_argument(
        "--L", type=_parse_l_list, default=[2, 5, 8, 12], help="comma-separated list"
    )
    p.add_argument("--B-start", type=float, default=1.0, dest="B_start")
    p.add_argument("--B-stop", type=float, dest="B_stop", help="default: K")
    p.add_argument("--B-step", type=float, default=1.0, dest="B_step")
    p.add_argument("--out", default="sweep.csv", help="output CSV path")

    p = add_command("simulate", cmd_simulate, "Monte Carlo estimates vs closed forms")
    p.add_argument("--blocks", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--dump-transcripts",
        dest="dump_transcripts",
        metavar="PATH",
        help="write one transcript per line to PATH",
    )

    add_command("verify", cmd_verify, "exact-law check of the closed forms")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # File values become the subcommand's defaults: argparse then
            # converts them with each option's type, and flags still win.
            options = {k for k in vars(args) if not k.startswith("_")} - {"command", "config"}
            values = _load_config_file(args.config)
            for key in values:
                if key not in options:
                    raise ValueError(f"unknown config key: {key}")
            args._parser.set_defaults(**values)
            args = parser.parse_args(argv)
        missing = [k for k in args._required if getattr(args, k) is None]
        if missing:
            args._parser.error(
                "the following arguments are required: "
                + ", ".join(f"--{k}" for k in missing)
            )
        return args._func(args)
    except GuardRailError as exc:
        print(f"bbp-secrecy: refused: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"bbp-secrecy: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"bbp-secrecy: i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
