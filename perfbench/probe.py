"""Time one benchmark set-up in a fresh interpreter.

Set-up is what a user pays before the first op: importing ``vedicfft`` plus
the netlist construction that workload's first op would otherwise do.
Interpreter start-up is not included. Prints the set-up time and the
calibration loop's time around it, both in seconds. Run from the checkout
root::

    python3 perfbench/probe.py <workload>
"""

import sys
import time

import calibration

before = calibration.host_time()
start = time.perf_counter()

import workloads  # noqa: E402  (imported after the clock starts on purpose)

workload = workloads.WORKLOADS[sys.argv[1]]()
workload.prepare(workloads.Library())
elapsed = time.perf_counter() - start
print(repr(elapsed), repr((before + calibration.host_time()) / 2))
