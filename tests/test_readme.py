"""The README's command-line and Python API blocks run as documented."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bbp_secrecy
from bbp_secrecy import bounds, cli, estimators, model, oracle

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def _command_line_blocks() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) of every "$ bbp-secrecy" block under "## Command line"."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = []
    for body in re.findall(r"```text\n(.*?)```", section, re.S):
        command, *shown = body.splitlines()
        if command.startswith("$ bbp-secrecy "):
            # Drop the shell's "; echo ..." and any "# ..." comment.
            argv = shlex.split(command.split(";")[0], comments=True)[2:]
            blocks.append((argv, shown))
    return blocks


COMMAND_LINE_BLOCKS = _command_line_blocks()


def test_every_subcommand_has_a_command_line_block():
    subcommands = next(a.choices for a in cli.build_parser()._actions if a.dest == "command")
    assert sorted(argv[0] for argv, _ in COMMAND_LINE_BLOCKS) == sorted(subcommands)


@pytest.mark.parametrize(
    "argv, shown", COMMAND_LINE_BLOCKS, ids=[argv[0] for argv, _ in COMMAND_LINE_BLOCKS]
)
def test_command_line_block_matches_the_program(argv, shown, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # sweep writes its CSV to the working directory
    monkeypatch.delenv("BBP_THREADS", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    lines = out.getvalue().splitlines()
    if shown[-1].startswith("exit "):  # the block echoes the exit status
        *shown, status = shown
        assert rc == int(status.split()[1])
    else:
        assert rc == 0
    if "..." in shown:  # only the lines after "..." are shown
        shown = shown[shown.index("...") + 1 :]
        lines = lines[len(lines) - len(shown) :]
    assert lines == shown


def test_python_m_runs_the_bounds_block():
    # __main__.py is reached only through "python -m bbp_secrecy".
    argv, shown = next(block for block in COMMAND_LINE_BLOCKS if block[0][0] == "bounds")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "bbp_secrecy", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines() == shown


def test_python_api_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["pt"].outer == pytest.approx(0.95, abs=1e-12)
    assert namespace["stats"].blocks == 10**4
    assert 0 < namespace["ones"] < namespace["n"] < 10**4
    assert namespace["mass"] == Fraction(9, 16)
    assert out.getvalue().startswith("verification: K=8 B=2 L=3 ")


def test_named_closed_forms_exist():
    # The sentence lists the closed forms by name; a deleted or renamed
    # function must not stay listed there.
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"The closed forms in `bbp_secrecy\.bounds` \((.*?)\)", text).group(1)
    names = re.findall(r"`(\w+)", listed)
    assert names
    for name in names:
        assert hasattr(bounds, name), name


def test_package_exports_exist_once():
    # Importing the package does not resolve __all__, so a stale name there
    # would only fail on a star import.
    assert len(set(bbp_secrecy.__all__)) == len(bbp_secrecy.__all__)
    for name in bbp_secrecy.__all__:
        assert hasattr(bbp_secrecy, name), name


def test_package_root_exports_readme_import_block():
    # The root holds the entry points README's Python API imports, no more.
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    block = re.search(r"from bbp_secrecy import \((.*?)\)", section, re.S).group(1)
    names = sorted(re.findall(r"\w+", block))
    assert len(names) == 6
    assert sorted(bbp_secrecy.__all__) == names


def test_package_import_leaves_pools_and_numpy_unloaded():
    # Startup cost: the process pool is imported only when workers > 1, and
    # numpy only by the tests.  A fresh interpreter shows what the import pulls in.
    code = "import sys, bbp_secrecy; print(sorted({'concurrent.futures', 'numpy'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _one_line(text: str) -> str:
    return " ".join(text.split())


def test_input_limits_match_the_constants():
    # Each limit is a constant of the package; the sentence must follow it.
    text = README.read_text(encoding="utf-8")
    paragraph = _one_line(text.split("Input limits", 1)[1].split("\n\n", 1)[0])
    limits = [
        (name, int(base) ** int(power or 1))
        for name, base, power in re.findall(r"`([KL]) ≤ (\d+)(?:\^(\d+))?`", paragraph)
    ]
    assert limits == [
        ("K", model.MAX_BEAMS),
        ("L", model.MAX_USES),
        ("K", model.MAX_SIMULATED_BEAMS),
        ("K", oracle.MAX_K),
        ("L", oracle.MAX_L),
    ]
    assert re.search(r"`K ≤ [\d^]+` for `simulate`.*`L ≤ \d+` for `verify`\.", paragraph)


def test_batch_means_sentence_matches_the_constants():
    text = _one_line(README.read_text(encoding="utf-8"))
    groups = re.search(r"contiguous groups of at least (\d+) blocks each, at most (\d+) groups", text)
    assert (int(groups[1]), int(groups[2])) == (estimators.MIN_GROUP_BLOCKS, estimators.GROUPS)
    one = re.search(r"Below (\d+) blocks there is one group", text)
    assert int(one[1]) == 2 * estimators.MIN_GROUP_BLOCKS
    full = re.search(r"from (\d+) blocks on there are (\d+) groups", text)
    assert (int(full[1]), int(full[2])) == (
        estimators.GROUPS * estimators.MIN_GROUP_BLOCKS,
        estimators.GROUPS,
    )
