#!/usr/bin/env python3
"""Run the Tier-1 suite and compare its red tests with ``tests/known_red.txt``.

    python tools/tier1.py

Runs pytest in this process from the root of the checkout, with ROADMAP's
Tier-1 options ``-q --continue-on-collection-errors`` (``pyproject.toml``
puts ``src/`` first on the path) and ``-rfE`` so that the reader sees every
failed and errored test named.  The red set is taken from pytest's own
reports: the node id of every failed setup, call or teardown and of every
collection error.  The tool prints each new failure and each listed test
that did not fail.  The exit status is 0 only when the red set equals the
list, 1 when they differ and 2 when pytest could not run the suite.
No test is skipped, deselected or edited.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KNOWN_RED = ROOT / "tests" / "known_red.txt"


class RedSet:
    """pytest plugin that collects the node ids of failed reports in ``ids``."""

    def __init__(self) -> None:
        self.ids: set[str] = set()

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.ids.add(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport  # a module that fails to import


def known_red(path: Path = KNOWN_RED) -> set[str]:
    """The listed node ids, one a line; blank lines and ``#`` comments are skipped."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def differences(red: set[str], known: set[str]) -> list[str]:
    """One line per new failure and per listed test that did not fail, sorted."""
    return [f"new failure: {t}" for t in sorted(red - known)] + [
        f"listed but not red: {t}" for t in sorted(known - red)
    ]


def main() -> int:
    known = known_red()
    red = RedSet()
    os.chdir(ROOT)  # pytest reads pyproject.toml's testpaths from the working directory
    status = int(pytest.main(["-q", "--continue-on-collection-errors", "-rfE"], plugins=[red]))
    if status not in (0, 1):  # interrupted, internal or usage error, or no tests
        print(f"tier1: pytest exited with status {status}")
        return 2
    diff = differences(red.ids, known)
    for line in diff:
        print(f"tier1: {line}")
    print(f"tier1: {len(red.ids)} red, {len(known)} listed: {'differ' if diff else 'as listed'}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
