#!/usr/bin/env python3
"""Cross-check the closed forms against the exact law on seven small cases.

Runs the ``verify`` subcommand on the fixed ``CASES`` list, (4, 1, L) for
L <= 3 and (8, 2, L) for L <= 4, not on every instance the exact-law
oracle accepts, and prints each report.  Exits with the worst per-case
status, so a nonzero exit means at least one closed form disagrees with the
exact law (expected for L >= 3; see README).
"""
import sys

from bbp_secrecy.cli import main

CASES = [(4, 1, 1), (4, 1, 2), (4, 1, 3), (8, 2, 1), (8, 2, 2), (8, 2, 3), (8, 2, 4)]


def run() -> int:
    worst = 0
    for K, B, L in CASES:
        print(f"=== K={K} B={B} L={L} ===")
        rc = main(["verify", "--K", str(K), "--B", str(B), "--L", str(L)])
        worst = max(worst, rc)
        print()
    return worst


if __name__ == "__main__":
    sys.exit(run())
