"""Time one set-up of a workload in a fresh interpreter and print it in seconds.

Set-up is ``import itmflow`` plus the workload's warm-up calls.  The time is
put at nominal machine speed with calibration samples taken in this same
process right after the set-up (see speed.py).  Run by ``run.py`` with the
pinned child environment: ``python perfbench/setup_child.py <workload>``.
"""

import sys
import time

start = time.perf_counter()
import itmflow  # noqa: E402,F401
import workloads  # noqa: E402

workloads.warm_up(sys.argv[1])
elapsed = time.perf_counter() - start

import speed  # noqa: E402

meter = speed.SpeedMeter("python")
for _ in range(3):
    meter.sample()
print(elapsed / meter.factor(1))
