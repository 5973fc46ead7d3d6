import contextlib
import hashlib
import io
import os
import shutil
import string
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbp_secrecy import bounds, cli, estimators, oracle
from bbp_secrecy.estimators import collect_stats
from bbp_secrecy.model import MAX_SIMULATED_BEAMS, MAX_USES, ModelConfig, compute_schedule


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_bounds_output_frozen(capsys):
    rc, out, _ = run(capsys, "bounds", "--K", "32", "--B", "8", "--L", "5")
    assert rc == 0
    assert out.splitlines() == [
        "K=32 B=8 L=5 schedule=[8, 8, 8, 4, 2]",
        "outer     = 0.95",
        "leakage   = 0.4780315873",
        "inner_raw = 0.4719684127",
        "inner     = 0.4719684127",
    ]


def test_bounds_clamps_negative_inner(capsys):
    rc, out, _ = run(capsys, "bounds", "--K", "32", "--B", "8", "--L", "1")
    assert rc == 0
    assert "inner_raw = -0.8112781245" in out
    assert "inner     = 0" in out


def test_missing_required_flag_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--K", "8", "--L", "2"])
    assert exc.value.code == 1
    assert "required: --B" in capsys.readouterr().err


def test_invalid_value_returns_usage_code(capsys):
    rc, _, err = run(capsys, "bounds", "--K", "1", "--B", "1", "--L", "2")
    assert rc == 1
    assert "K must be an integer >= 2" in err


def test_sweep_writes_default_grid(tmp_path, capsys):
    out_csv = tmp_path / "grid.csv"
    rc, out, _ = run(capsys, "sweep", "--out", str(out_csv))
    assert rc == 0
    assert out.strip() == f"wrote 128 rows to {out_csv}"
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "K,L,B,outer,leakage,inner_raw,inner"
    assert len(lines) == 129
    assert lines[1].startswith("32,2,1,")
    # byte-stable across runs
    first = out_csv.read_bytes()
    assert cli.main(["sweep", "--out", str(out_csv)]) == 0
    capsys.readouterr()
    assert out_csv.read_bytes() == first


SWEEP_DIGESTS = [
    ((), "2fbdac454dd75fd1c4de3d54873fe818780c123ebaeb802ba910293855da559b"),
    (
        ("--K", "1024", "--L", "2,4,8,16,32", "--B-start", "0.5", "--B-step", "0.5"),
        "e2c403f10246ced0967fc4b1d4963ead54439f816f30ef74efaa51b8b7695efc",
    ),
    # The benchmark's grid shapes: B values that print through repr, and a
    # saturated range (every B >= K/2) whose 1 280 rows share one pass.
    (
        ("--K", "64", "--L", "2,4,8,16,32", "--B-start", "0.2890625", "--B-step", "0.5"),
        "d333a0f0118b07e36b3806039dd97e2ab66fb1a6d869a8bf078c3bfc4d7d01c3",
    ),
    (
        ("--K", "256", "--L", "2,4,8,16,32", "--B-start", "0.2890625", "--B-step", "0.5"),
        "3cbb47e22b697120069788c2e1341b49a1d9772f782586355bbf476266a84fc1",
    ),
    (
        ("--K", "256", "--L", "2,4,8,16,32", "--B-start", "128.2890625",
         "--B-stop", "255.7890625", "--B-step", "0.5"),
        "8eaf9203381ec31207f5a83f2b28b360ee8e42a4c431324094c3a8f67b37ecb0",
    ),
]


@pytest.mark.parametrize("flags,digest", SWEEP_DIGESTS)
def test_sweep_csv_bytes_frozen(tmp_path, capsys, flags, digest):
    out_csv = tmp_path / "grid.csv"
    rc, _, _ = run(capsys, "sweep", *flags, "--out", str(out_csv))
    assert rc == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest


@pytest.mark.usefixtures("compensated_sum")
def test_frozen_outputs_do_not_depend_on_a_compensated_sum(tmp_path, capsys):
    # From Python 3.12 sum() of floats is compensated.  Every float the CLI
    # prints is added left to right, so the frozen texts hold there too.
    test_bounds_output_frozen(capsys)
    for flags, digest in SWEEP_DIGESTS:
        test_sweep_csv_bytes_frozen(tmp_path, capsys, flags, digest)
    test_simulate_output_frozen(capsys)


HELP_DIGESTS = {
    ("60", ()): "fa2907bd296ea2746fcd277d71645483d41230ab3541219d84c48c15634cb0cd",
    ("60", ("bounds",)): "ba2b44cd3a252f2e47bda204d2317a029fd4799320ee90b35c2d1ebc234c61c4",
    ("60", ("sweep",)): "fe0e4796781317671d3e3bc328e3854da24819029fba8b65de7a81b93360714f",
    ("60", ("simulate",)): "2923426862e08df4397a91417c3119a4e13784227320d9a9ffca11af5c7beafd",
    ("60", ("verify",)): "2455772a5e5cf45308bfad938ff7f6b9672d36e5e0438406acc9d0ea9fdc1fcf",
    ("200", ()): "4eca1bde7e777e9b7de88307d90bd784d2c93587135401403ceb7f1b60ae2922",
    ("200", ("bounds",)): "4535690d9a1a1396d6f1fb680bbc66010fc2944c4c194ee9ed192ebd0b83f68a",
    ("200", ("sweep",)): "02364376388dc61c99e02a6de8b964d2fe21fe5345c340f97ae525fe06a008ac",
    ("200", ("simulate",)): "f4d12616a635219fb544cea7c11dce1cd0a2fb91c903072bac44306db9e17457",
    ("200", ("verify",)): "5ec0dd110ac14b9700da1ef1d267bde3af02d9846f9c205c5e6eeaccfea846ea",
}


@pytest.mark.parametrize("columns,command", HELP_DIGESTS)
def test_help_text_frozen(monkeypatch, capsys, columns, command):
    # The help text wraps at the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[columns, command]


def test_parser_queries_the_terminal_once(monkeypatch, capsys):
    # argparse's default formatter asks for the terminal size each time it is
    # built, which adding an option does; build_parser asks once.
    calls = []
    real = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    assert cli.main(["bounds", "--K", "32", "--B", "8", "--L", "5"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_sweep_custom_grid(tmp_path, capsys):
    out_csv = tmp_path / "g.csv"
    rc, out, _ = run(
        capsys, "sweep", "--K", "8", "--L", "3,2", "--B-start", "1",
        "--B-stop", "4", "--B-step", "1", "--out", str(out_csv),
    )
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 9
    assert [l.split(",")[:3] for l in lines[1:]] == [
        ["8", "2", "1"], ["8", "2", "2"], ["8", "2", "3"], ["8", "2", "4"],
        ["8", "3", "1"], ["8", "3", "2"], ["8", "3", "3"], ["8", "3", "4"],
    ]


def test_sweep_default_b_stop_is_k(tmp_path, capsys):
    out_csv = tmp_path / "g.csv"
    rc, out, err = run(capsys, "sweep", "--K", "8", "--out", str(out_csv))
    assert rc == 0, err
    assert out.strip() == f"wrote 32 rows to {out_csv}"
    rows = [l.split(",")[:3] for l in out_csv.read_text().splitlines()[1:]]
    assert rows == [["8", str(L), str(B)] for L in (2, 5, 8, 12) for B in range(1, 9)]
    # an explicit stop, from a flag or a config file, still wins
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("B-stop=4\n")
    assert cli.main(["sweep", "--K", "8", "--config", str(cfg), "--out", str(out_csv)]) == 0
    assert cli.main(["sweep", "--K", "8", "--B-stop", "3", "--out", str(out_csv)]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == [
        f"wrote 16 rows to {out_csv}", f"wrote 12 rows to {out_csv}"
    ]


@pytest.mark.parametrize(
    "flags",
    [
        ("--B-stop", "inf"),
        ("--B-start", "nan"),
        ("--B-step", "inf"),
        ("--B-stop", "1e300", "--B-step", "1e-300"),
    ],
)
def test_sweep_rejects_non_finite_grid(tmp_path, capsys, flags):
    out_csv = tmp_path / "g.csv"
    rc, _, err = run(capsys, "sweep", *flags, "--out", str(out_csv))
    assert rc == 1
    assert err.startswith("bbp-secrecy: error:")
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--B-step", "0"), "B step must be positive"),
        (("--B-step", "-0.5"), "B step must be positive"),
        (("--B-start", "5", "--B-stop", "2"), "empty B range"),
    ],
)
def test_sweep_rejects_bad_b_range(tmp_path, capsys, flags, message):
    out_csv = tmp_path / "g.csv"
    rc, out, err = run(capsys, "sweep", *flags, "--out", str(out_csv))
    assert rc == 1
    assert out == ""
    assert err == f"bbp-secrecy: error: {message}\n"
    assert not out_csv.exists()


def test_sweep_rejects_empty_l_list(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--L", ",", "--out", str(tmp_path / "g.csv")])
    assert exc.value.code == 1
    assert "argument --L: empty L list" in capsys.readouterr().err


def test_sweep_rejects_grid_over_row_cap(tmp_path, capsys):
    # 3.1e10 B values at K=32: refused before any list is built
    out_csv = tmp_path / "g.csv"
    rc, _, err = run(capsys, "sweep", "--B-step", "1e-9", "--out", str(out_csv))
    assert rc == 1
    assert f"exceeds {cli.MAX_SWEEP_ROWS} rows" in err
    assert not out_csv.exists()
    # the cap counts rows over every L: 4 L values of 250 001 B values each
    rc, _, err = run(capsys, "sweep", "--B-stop", "2.5", "--B-step", "6e-6", "--out", str(out_csv))
    assert rc == 1 and "rows" in err


def _count_bound_points(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return bounds.bound_point(*args)

    monkeypatch.setattr(cli, "bound_point", counted)
    return calls


def test_sweep_checks_b_range_before_any_row(tmp_path, capsys, monkeypatch):
    calls = _count_bound_points(monkeypatch)
    out_csv = tmp_path / "g.csv"
    rc, _, err = run(
        capsys, "sweep", "--K", "8", "--L", "4", "--B-start", "1",
        "--B-stop", "9", "--B-step", "0.5", "--out", str(out_csv),
    )
    assert rc == 1
    assert "exceeds the number of beams" in err
    assert calls == []
    assert not out_csv.exists()


def test_sweep_calls_traced_bound_point_once_per_b(tmp_path, capsys, monkeypatch):
    # The benchmark times sweep columns through the cli.bound_point attribute:
    # one call per B up to K/2, at the longest L, which every shorter L is
    # read from.
    calls = _count_bound_points(monkeypatch)
    out_csv = tmp_path / "g.csv"
    rc, _, _ = run(
        capsys, "sweep", "--K", "8", "--L", "3,5,2", "--B-start", "1",
        "--B-stop", "4", "--B-step", "0.5", "--out", str(out_csv),
    )
    assert rc == 0
    rows = [l.split(",")[:3] for l in out_csv.read_text().splitlines()[1:]]
    b_grid = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    assert calls == [(8, B, 5) for B in b_grid]
    assert rows == [["8", str(L), cli._fmt_b(B)] for L in (2, 3, 5) for B in b_grid]


SATURATING_SWEEPS = [
    # (K, L values, B grid, flags): each grid crosses K/2, at 16.5, 3.5, 32
    # and 512.  K = 64 covers every B on a half-integer grid from 0.25; over
    # the K = 1024 slice the first halving step (c_j = rem/2 < B) moves from
    # step 4 (B < K/4) to step 1 (B >= K/2).
    (33, (2, 5, 8, 12), [0.25 + i * 0.75 for i in range(44)],
     ("--K", "33", "--B-start", "0.25", "--B-step", "0.75")),
    (7, (1, 3, 9), [1 + i * 0.5 for i in range(13)],
     ("--K", "7", "--B-step", "0.5", "--L", "1,3,9")),
    (64, (1, 2, 4, 8, 16, 32), [0.25 + i * 0.5 for i in range(128)],
     ("--K", "64", "--B-start", "0.25", "--B-step", "0.5", "--L", "1,2,4,8,16,32")),
    (1024, (1, 2, 4, 8, 16, 32), [250.75 + i * 0.5 for i in range(560)],
     ("--K", "1024", "--B-start", "250.75", "--B-stop", "530.25", "--B-step", "0.5",
      "--L", "1,2,4,8,16,32")),
]
SWEEP_IDS = ["K33", "K7", "K64", "K1024"]


@pytest.mark.parametrize("K,Ls,b_grid,flags", SATURATING_SWEEPS, ids=SWEEP_IDS)
def test_sweep_rows_equal_bound_point_at_each_row(tmp_path, capsys, K, Ls, b_grid, flags):
    # Byte for byte, including the inner column of rows with inner_raw <= 0
    # (every row at L = 1), which the sweep writes as "0.0".
    out_csv = tmp_path / "g.csv"
    rc, _, err = run(capsys, "sweep", *flags, "--out", str(out_csv))
    assert rc == 0, err
    want = ["K,L,B,outer,leakage,inner_raw,inner"]
    clamped = 0
    for L in Ls:
        for B in b_grid:
            bounds_l = bounds.bound_point(K, B, L).prefix(L)
            clamped += bounds_l[2] <= 0.0
            want.append(",".join(map(str, [K, L, cli._fmt_b(B), *map(repr, bounds_l)])))
    assert out_csv.read_bytes() == "".join(line + "\n" for line in want).encode()
    if 1 in Ls:  # outer is 0 at a single use, so inner_raw = -leakage < 0
        assert clamped >= len(b_grid)


@pytest.mark.parametrize("K,Ls,b_grid,flags", SATURATING_SWEEPS, ids=SWEEP_IDS)
def test_sweep_evaluates_each_effective_budget_once(
    tmp_path, capsys, monkeypatch, K, Ls, b_grid, flags
):
    # c_j <= K/2, so every B >= K/2 shares the pass at B = K/2.
    calls = _count_bound_points(monkeypatch)
    rc, _, err = run(capsys, "sweep", *flags, "--out", str(tmp_path / "g.csv"))
    assert rc == 0, err
    budgets = list(dict.fromkeys(min(B, K / 2) for B in b_grid))
    assert len(budgets) < len(b_grid)
    assert calls == [(K, b, max(Ls)) for b in budgets]


def test_sweep_last_b_clamped_to_stop(tmp_path, capsys):
    # 0.1 + 29 * 0.1 rounds to 3.0000000000000004, past K = 3.
    out_csv = tmp_path / "g.csv"
    rc, out, err = run(
        capsys, "sweep", "--K", "3", "--L", "2", "--B-start", "0.1", "--B-step", "0.1",
        "--out", str(out_csv),
    )
    assert rc == 0, err
    assert out.strip() == f"wrote 30 rows to {out_csv}"
    last = out_csv.read_text().splitlines()[-1].split(",")
    assert last[:3] == ["3", "2", "3"]
    pt = bounds.bound_point(3, 3.0, 2)
    assert last[3:] == [repr(x) for x in (pt.outer, pt.leakage, pt.inner_raw, pt.inner)]


def test_sweep_unwritable_path_is_io_error(capsys):
    rc, _, err = run(capsys, "sweep", "--out", "/nonexistent-dir/x.csv")
    assert rc == 2
    assert "error" in err.lower()


def test_simulate_output_frozen(capsys):
    rc, out, err = run(
        capsys, "simulate", "--K", "8", "--B", "2", "--L", "3",
        "--seed", "1", "--blocks", "2000",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "K=8 B=2 L=3 blocks=2000 seed=1 schedule=[2, 2, 2]"
    assert lines[1] == (
        "main_rate estimate=0.8299169722 stderr=0.005488 closed=0.9166666667 z=-15.808"
    )
    assert lines[2].startswith("leakage   estimate=0.7329432798 ")
    assert lines[3] == "clamped_probes=0 cost_violations=0 unseen_table_prefixes=0"
    assert err == ""


def test_simulate_short_run_prints_no_zero_stderr(capsys):
    # Ten blocks make one batch-means group, so the stderr is unknown (nan);
    # ten groups of one block each gave stderr=0 and z=+inf.
    rc, out, _ = run(capsys, "simulate", "--K", "8", "--B", "2", "--L", "3", "--blocks", "10")
    assert rc == 0
    assert "stderr=0 " not in out and "z=+inf" not in out
    assert out.count("stderr=nan ") == 2
    assert out.count("z=+nan") == 2


@pytest.mark.parametrize(
    "argv,lines",
    [
        (["--K", "2", "--B", "1", "--L", "1", "--blocks", "20", "--seed", "7"], [1]),
        (["--K", "2", "--B", "0.5", "--L", "3", "--blocks", "20"], [1, 2]),
    ],
)
def test_simulate_zero_stderr_z_takes_the_sign_of_the_gap(capsys, argv, lines):
    # Each of these estimates has stderr 0 and lies below its closed value.
    rc, out, _ = run(capsys, "simulate", *argv)
    assert rc == 0
    for i in lines:
        line = out.splitlines()[i]
        assert " stderr=0 " in line and line.endswith(" z=-inf"), line


@pytest.mark.usefixtures("compensated_sum")
def test_simulate_closed_main_rate_is_a_left_to_right_sum(capsys, monkeypatch):
    # At (16, 3, 3) the main steps added left to right give 0.8142469383147161
    # per use, a compensated sum 0.814246938314716.  An estimate equal to the
    # first with stderr 0 shows a gap of one ulp as z=-inf.
    real = cli.estimate_rates

    def exact_main(*args, **kwargs):
        _, leak, stats = real(*args, **kwargs)
        return estimators.RateEstimate(0.8142469383147161, 0.0), leak, stats

    monkeypatch.setattr(cli, "estimate_rates", exact_main)
    rc, out, _ = run(capsys, "simulate", "--K", "16", "--B", "3", "--L", "3", "--blocks", "20")
    assert rc == 0
    assert out.splitlines()[1] == (
        "main_rate estimate=0.8142469383 stderr=0 closed=0.8142469383 z=+0.000"
    )


def test_simulate_single_use_compares_with_the_main_entropy_rate(capsys):
    # At L = 1 the outer bound is 0, but the main rate is still H(1/4).
    rc, out, _ = run(
        capsys, "simulate", "--K", "4", "--B", "1", "--L", "1",
        "--blocks", "400", "--seed", "3",
    )
    assert rc == 0
    assert " closed=0.8112781245 " in out.splitlines()[1]


def test_simulate_builds_no_prefix_table(capsys, monkeypatch):
    # The unseen-prefix count needs only (j, k), not a table of L(L+1)/2
    # entries, so a long block costs no more than its simulation.
    def refuse(*args, **kwargs):
        raise AssertionError("simulate built a prefix table entry")

    monkeypatch.setattr(bounds, "PrefixEntry", refuse)
    rc, out, _ = run(
        capsys, "simulate", "--K", "64", "--B", "4", "--L", "400", "--blocks", "3"
    )
    assert rc == 0
    assert out.splitlines()[3] == (
        "clamped_probes=0 cost_violations=0 unseen_table_prefixes=79799"
    )


def test_each_query_builds_one_schedule(capsys, monkeypatch):
    # Count compute_schedule calls through every module that makes them.
    calls = []

    def counted(*args):
        calls.append(args)
        return compute_schedule(*args)

    for module in (bounds, oracle, estimators, cli):
        monkeypatch.setattr(module, "compute_schedule", counted)
    for K, B, L in [(32, 8, 1), (32, 8, 5), (1024, 64, 32)]:
        bounds.bound_point(K, B, L)
        assert calls == [(K, B, L)]
        calls.clear()
    for K, B, L in [(8, 2, 1), (8, 2, 3), (8, 2, 4), (7, 3.5, 4)]:
        oracle.verify_against_closed_forms(K, B, L)
        assert calls == [(K, B, L)]
        calls.clear()
    rc, _, _ = run(capsys, "simulate", "--K", "8", "--B", "2", "--L", "4", "--blocks", "20")
    assert rc == 0
    assert len(calls) == 1
    calls.clear()
    rc, _, _ = run(capsys, "bounds", "--K", "32", "--B", "8", "--L", "5")
    assert rc == 0
    assert calls == [(32, 8.0, 5)]


def test_simulate_rejects_zero_blocks(capsys):
    rc, _, err = run(capsys, "simulate", "--K", "8", "--B", "2", "--L", "2", "--blocks", "0")
    assert rc == 1
    assert "blocks" in err


def test_simulate_warns_on_fractional_schedule(capsys):
    rc, _, err = run(
        capsys, "simulate", "--K", "2", "--B", "1", "--L", "2",
        "--seed", "1", "--blocks", "50",
    )
    assert rc == 0
    assert "fractional schedule [1, 0.5] is floored to [1, 0]" in err


def test_simulate_dump_transcripts(tmp_path, capsys):
    dump = tmp_path / "blocks.txt"
    rc, _, _ = run(
        capsys, "simulate", "--K", "8", "--B", "2", "--L", "2",
        "--seed", "4", "--blocks", "120", "--dump-transcripts", str(dump),
    )
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 120
    assert all(len(line.split()) == 5 for line in lines)


def test_verify_match_exits_zero(capsys):
    rc, out, _ = run(capsys, "verify", "--K", "8", "--B", "2", "--L", "2")
    assert rc == 0
    assert "overall: MATCH (12 of 12 quantities within 1e-12)" in out


def test_verify_mismatch_exits_three(capsys):
    rc, out, _ = run(capsys, "verify", "--K", "8", "--B", "2", "--L", "4")
    assert rc == 3
    assert "t3_matching_variant=state_summed" in out
    assert "overall: MISMATCH" in out


def test_verify_guard_rail_exits_usage(capsys):
    rc, _, err = run(capsys, "verify", "--K", "16", "--B", "4", "--L", "2")
    assert rc == 1
    assert err.startswith("bbp-secrecy: refused:")


def test_config_file_fills_missing_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nK = 8\nB=2\nL=3\n")
    rc, _, _ = run(capsys, "verify", "--config", str(cfg))
    assert rc == 3  # L=3 diverges

    # explicit flag wins over the file
    rc2, _, _ = run(capsys, "verify", "--config", str(cfg), "--L", "2")
    assert rc2 == 0


def test_config_file_missing_key_still_required(tmp_path, capsys):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("K=8\nL=2\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "required: --B" in capsys.readouterr().err


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K=8\nB=2\nL=2\nbogus=1\n")
    rc, _, err = run(capsys, "verify", "--config", str(cfg))
    assert rc == 1
    assert "unknown config key: bogus" in err


def test_config_file_rejects_line_without_equals(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K 32\n")
    rc, out, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "g.csv"))
    assert rc == 1
    assert out == ""
    assert err == f"bbp-secrecy: error: {cfg}:1: expected key=value, got 'K 32'\n"


def _assert_one_io_error(rc, out, err):
    assert (rc, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bbp-secrecy: i/o error:"), err


def test_empty_config_path_exits_runtime(capsys):
    # An empty path names no file, so it fails like any path that cannot be opened.
    _assert_one_io_error(*run(capsys, "verify", "--K", "8", "--B", "2", "--L", "2", "--config", ""))


def test_empty_dump_path_exits_runtime(capsys):
    argv = ["simulate", "--K", "8", "--B", "2", "--L", "2", "--blocks", "20", "--dump-transcripts", ""]
    _assert_one_io_error(*run(capsys, *argv))


def test_sweep_refuses_unopenable_out_before_any_row(tmp_path, capsys, monkeypatch):
    calls = _count_bound_points(monkeypatch)
    out_csv = tmp_path / "missing-dir" / "x.csv"
    argv = ["sweep", "--K", "1024", "--L", "2,4,8,16,32", "--B-start", "0.5", "--B-step", "0.5"]
    _assert_one_io_error(*run(capsys, *argv, "--out", str(out_csv)))
    assert calls == []


def test_worker_env_var_does_not_change_output(tmp_path, capsys, monkeypatch):
    # Three workers count batch-means groups 0..12, 13..25 and 26..39 of 10
    # blocks each; enough CPUs are reported that the worker cap keeps all three.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    args = ("simulate", "--K", "8", "--B", "2", "--L", "2", "--seed", "2", "--blocks", "400")
    rc, base, _ = run(capsys, *args)
    assert rc == 0
    monkeypatch.setenv("BBP_THREADS", "3")
    rc2, threaded, _ = run(capsys, *args)
    assert rc2 == 0
    assert threaded == base


def test_non_integer_worker_env_var_exits_usage(capsys, monkeypatch):
    monkeypatch.setenv("BBP_THREADS", "x")
    rc, out, err = run(capsys, "simulate", "--K", "8", "--B", "2", "--L", "2", "--blocks", "20")
    assert rc == 1
    assert out == ""
    assert err == "bbp-secrecy: error: BBP_THREADS must be an integer, got 'x'\n"


def test_config_file_loses_to_abbreviated_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K=8\nB=2\nL=2\nseed=1\nblocks=50\n")
    rc, out, _ = run(capsys, "simulate", "--config", str(cfg), "--blo", "70")
    assert rc == 0
    assert "blocks=70 " in out.splitlines()[0]


def test_config_file_bad_typed_value_exits_usage(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"L=abc\nout={tmp_path / 'g.csv'}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "bad L list: 'abc'" in capsys.readouterr().err


# Small integers let some draws be valid instances that run to the end.
SMALL_INTS = st.integers(-1, 12).map(str)
CONFIG_VALUES = SMALL_INTS | st.text(alphabet=string.digits + ".-" + string.ascii_letters, max_size=3)
# Config keys each subcommand reads besides K, B and L.  "out" and
# "dump-transcripts" are never drawn, so no file lands outside tmp_path.
OWN_KEYS = {"bounds": [], "verify": [], "simulate": ["seed", "blocks"], "sweep": ["B-start", "B-step"]}


def _fixed_flags(command, tmp):
    """Flags put last, so they win: a 3-block simulation, a 4-budget sweep into tmp."""
    if command == "simulate":
        return ["--blocks", "3"]
    if command == "sweep":
        return ["--B-stop", "4", "--out", str(tmp / "g.csv")]
    return []


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=50, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(OWN_KEYS)))
def test_config_file_exit_codes(tmp_path_factory, data, command):
    keys = ["K", "B", "L", "config", "bogus", *OWN_KEYS[command]]
    entries = data.draw(st.lists(st.tuples(st.sampled_from(keys), CONFIG_VALUES), max_size=5))
    tmp = tmp_path_factory.mktemp("cfg")
    cfg = tmp / "run.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in entries))
    assert _exit_code([command, "--config", str(cfg), *_fixed_flags(command, tmp)]) in (0, 1, 2, 3)


# Every option name, abbreviations (one ambiguous) and malformed flags.  No
# value starts with "-" unless listed, so none abbreviates --out or
# --dump-transcripts.
FLAG_TOKENS = [
    "--K", "--B", "--L", "--seed", "--blocks", "--B-start", "--B-stop", "--B-step",
    "--config", "--blo", "--B-st", "--bogus", "--K=", "-K", "--", "-h",
]
ARGV_VALUES = (
    SMALL_INTS
    | st.text(alphabet=string.digits + ".e" + string.ascii_letters, max_size=2)
    | st.sampled_from(["-0.5", "1e9", "nan", "inf"])
)


@settings(max_examples=50, deadline=None)
@given(
    command=st.sampled_from(sorted(OWN_KEYS)),
    tokens=st.lists(st.sampled_from(FLAG_TOKENS) | ARGV_VALUES, max_size=8),
)
def test_command_line_exit_codes(tmp_path_factory, command, tokens):
    tmp = tmp_path_factory.mktemp("argv")
    assert _exit_code([command, *tokens, *_fixed_flags(command, tmp)]) in (0, 1, 2, 3)


def _assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bbp-secrecy: error:"), err


def test_k_beyond_float_range_exits_usage(tmp_path, capsys):
    # 10^400 beams overflowed a float in compute_schedule before the bound.
    with pytest.raises(ValueError):
        compute_schedule(10**400, 2, 2)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        ModelConfig(K=2**53 + 1, L=2, B=2, seed=0, blocks=1)
    huge = str(10**400)
    for argv in (
        ["bounds", "--K", huge, "--B", "2", "--L", "2"],
        ["verify", "--K", huge, "--B", "2", "--L", "2"],
        ["simulate", "--K", huge, "--B", "2", "--L", "2", "--blocks", "1"],
        ["sweep", "--K", huge, "--out", str(tmp_path / "g.csv")],
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 1
        _assert_one_error_line(err)
    assert not (tmp_path / "g.csv").exists()


def test_block_length_over_limit_exits_usage(tmp_path, capsys):
    assert compute_schedule(8, 2, MAX_USES).L == MAX_USES
    with pytest.raises(ValueError):
        compute_schedule(8, 2, MAX_USES + 1)
    too_long = str(MAX_USES + 1)
    for argv in (
        ["bounds", "--K", "8", "--B", "2", "--L", too_long],
        ["verify", "--K", "8", "--B", "2", "--L", str(10**9)],
        ["simulate", "--K", "8", "--B", "2", "--L", too_long, "--blocks", "1"],
        ["sweep", "--K", "8", "--L", f"2,{too_long}", "--out", str(tmp_path / "g.csv")],
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 1
        _assert_one_error_line(err)
    assert not (tmp_path / "g.csv").exists()


def test_simulate_pool_over_limit_exits_usage(capsys):
    with pytest.raises(ValueError, match="K <= 2\\*\\*20"):
        collect_stats(ModelConfig(K=MAX_SIMULATED_BEAMS + 1, L=2, B=2, seed=0, blocks=1))
    argv = ["simulate", "--K", str(MAX_SIMULATED_BEAMS + 1), "--B", "2", "--L", "2", "--blocks", "1"]
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    _assert_one_error_line(err)


OVERSIZE_SIMULATION = ["simulate", "--K", str(2 * MAX_SIMULATED_BEAMS), "--L", "2", "--blocks", "1"]
K_LIMIT_ERROR = f"bbp-secrecy: error: simulation limited to K <= 2**20 = {MAX_SIMULATED_BEAMS}\n"


def test_oversize_simulation_refused_before_flooring_warning(capsys):
    # B = 1.5 gives a fractional schedule, whose warning must not come first.
    assert run(capsys, *OVERSIZE_SIMULATION, "--B", "1.5") == (1, "", K_LIMIT_ERROR)


def test_oversize_simulation_refused_before_worker_count(capsys, monkeypatch):
    monkeypatch.setenv("BBP_THREADS", "x")
    assert run(capsys, *OVERSIZE_SIMULATION, "--B", "2") == (1, "", K_LIMIT_ERROR)


def test_cli_import_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, bbp_secrecy.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
