"""Set-up probe: import fflvstring and build one workload's inputs, then exit.

Usage: python3 perfbench/probe.py WORKLOAD SEED
Prints ``ready`` once the inputs exist; ``run.py`` times a fresh process
from its start to that line.  Then it prints the times of two calibrations
run in this process (see ``hostspeed.py``), so that the set-up time can be
scaled by the speed of the core the probe ran on.
"""

import sys

import workloads
from hostspeed import calibrate

workloads.make(sys.argv[1], int(sys.argv[2])).ops()
print("ready", flush=True)
print(calibrate(), calibrate(), flush=True)
