import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tier1", ROOT / "tools" / "tier1.py")
tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tier1)


MINI_SUITE = {
    "test_mini.py": """
import pytest


@pytest.fixture
def broken():
    raise RuntimeError("fixture error")


def test_passes():
    pass


def test_fails():
    assert False


def test_fixture_error(broken):
    pass


@pytest.mark.parametrize("case", ["a - b"])
def test_dash(case):
    assert False
""",
    "test_import_error.py": "import no_such_module_for_the_mini_suite\n",
}
MINI_RED = {
    "tests/test_mini.py::test_fails",
    "tests/test_mini.py::test_fixture_error",
    "tests/test_mini.py::test_dash[a - b]",
    "tests/test_import_error.py",
}


def run_tool_on_mini_suite(checkout: Path, listed: list[str], **env: str):
    """Run a copy of the tool in ``checkout`` over the mini-suite, in its own process."""
    (checkout / "tools").mkdir(parents=True)
    (checkout / "tests").mkdir()
    (checkout / "tools" / "tier1.py").write_bytes((ROOT / "tools" / "tier1.py").read_bytes())
    (checkout / "pyproject.toml").write_text('[tool.pytest.ini_options]\ntestpaths = ["tests"]\n')
    for name, source in MINI_SUITE.items():
        (checkout / "tests" / name).write_text(source)
    (checkout / "tests" / "known_red.txt").write_text("".join(f"{t}\n" for t in listed))
    environ = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    environ.update(PYTEST_DISABLE_PLUGIN_AUTOLOAD="1", **env)  # the mini-suite needs no plugin
    return subprocess.run(
        [sys.executable, str(checkout / "tools" / "tier1.py")],
        cwd=checkout,
        env=environ,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_tool_reads_the_red_set_from_pytest_reports(tmp_path):
    # A failed call, a fixture error, an import error and an id holding " - ";
    # the passing test is listed, so every red test and it are named.
    run = run_tool_on_mini_suite(tmp_path, ["tests/test_mini.py::test_passes"])
    lines = run.stdout.splitlines()
    assert run.returncode == 1, run.stdout + run.stderr
    new = {line.removeprefix("tier1: new failure: ") for line in lines if "new failure: " in line}
    assert new == MINI_RED
    assert "tier1: listed but not red: tests/test_mini.py::test_passes" in lines
    assert lines[-1] == "tier1: 4 red, 1 listed: differ"


def test_tool_passes_on_the_listed_set_and_stops_when_pytest_cannot_run(tmp_path):
    run = run_tool_on_mini_suite(tmp_path / "listed", sorted(MINI_RED))
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "tier1: 4 red, 4 listed: as listed"
    run = run_tool_on_mini_suite(tmp_path / "usage", [], PYTEST_ADDOPTS="--no-such-flag")
    assert run.returncode == 2
    assert run.stdout.splitlines()[-1] == "tier1: pytest exited with status 4"


def test_differences_name_new_failures_and_listed_tests_that_did_not_fail():
    assert tier1.differences({"a", "b"}, {"a", "b"}) == []
    assert tier1.differences({"a", "c"}, {"a", "b"}) == [
        "new failure: c",
        "listed but not red: b",
    ]


def test_known_red_lists_the_acceptance_discrepancies():
    known = tier1.known_red()
    assert len(known) == 17
    source = (ROOT / "tests" / "test_acceptance.py").read_text()
    for node in known:
        name = re.fullmatch(r"tests/test_acceptance\.py::(\w+)(\[.*\])?", node)[1]
        assert f"def {name}(" in source
