#!/usr/bin/env python3
"""Run the Tier-1 suite and compare its red tests with ``tests/known_red.txt``.

    python tools/tier1.py

Runs ``python -m pytest -q --continue-on-collection-errors`` from the root of
the checkout with ``src/`` put first on ``PYTHONPATH``, as ROADMAP's Tier-1
command does, and adds only ``-rfE`` so that pytest names every failed and
errored test.  It prints the suite's output, then each new failure and each
listed test that did not fail.  The exit status is 0 only when the red set
equals the list, 1 when they differ and 2 when pytest could not run the suite.
No test is skipped, deselected or edited.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOWN_RED = ROOT / "tests" / "known_red.txt"
# pytest's short summary: "FAILED <node id> - <message>" or "ERROR <node id>".
SUMMARY = re.compile(r"(?:FAILED|ERROR) (.+?)(?: - .*)?$")


def known_red(path: Path = KNOWN_RED) -> set[str]:
    """The listed node ids, one a line; blank lines and ``#`` comments are skipped."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def red_ids(lines: list[str]) -> set[str]:
    """Node ids of the failed and errored tests named in pytest's short summary.

    Only lines after the summary's header are read, so a test's own output
    cannot pass for a summary line.
    """
    heads = [i for i, line in enumerate(lines) if "short test summary info" in line]
    tail = lines[heads[-1] + 1 :] if heads else []
    return {m[1] for m in map(SUMMARY.match, tail) if m}


def differences(red: set[str], known: set[str]) -> list[str]:
    """One line per new failure and per listed test that did not fail, sorted."""
    return [f"new failure: {t}" for t in sorted(red - known)] + [
        f"listed but not red: {t}" for t in sorted(known - red)
    ]


def main() -> int:
    known = known_red()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE"]
    lines = []
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    ) as proc:
        for line in proc.stdout:
            sys.stdout.write(line)
            lines.append(line.rstrip("\n"))
    if proc.returncode not in (0, 1):  # interrupted, internal or usage error, or no tests
        print(f"tier1: pytest exited with status {proc.returncode}")
        return 2
    red = red_ids(lines)
    diff = differences(red, known)
    for line in diff:
        print(f"tier1: {line}")
    print(f"tier1: {len(red)} red, {len(known)} listed: {'differ' if diff else 'as listed'}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
