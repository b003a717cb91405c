"""Print the seconds a fresh process takes to import memlit and build a workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py starts this several times and reports the median as setup_s.
"""

import sys
import time

from run import import_memlit
from workloads import build

started = time.perf_counter()
import_memlit()
build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - started)
