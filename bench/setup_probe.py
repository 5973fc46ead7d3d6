"""Set-up sample for ``run.py``: import the package, build one workload's
inputs, and print the system-wide monotonic clock.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.monotonic())
