"""Host speed: a fixed calibration loop, and times scaled to a reference speed.

On a shared host the same code runs up to about 1.6 times slower for
stretches of seconds to minutes, in step with other tenants' load.  The
process's CPU time slows just as much, so it is no remedy.  ``calibrate``
times a fixed pure-Python loop that runs none of the program's code; a time
measured between calibrations is scaled by ``CALIB_REF_S`` over their mean,
which gives it in seconds at the reference host speed.  A change to the
program moves a scaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Time of calibrate() on the reference host when it runs at full speed (a
# 2-core Intel Xeon guest, Python 3.11); times are scaled to this speed.
CALIB_REF_S = 1.0e-3


def calibrate() -> float:
    """Time of the fixed loop, with the cyclic collector off.

    Dict, tuple and small-integer work like the program's own, so the loop
    slows with the host as the program does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        for i in range(3000):
            key = (i % 7, i % 11, i % 13)
            table[key] = table.get(key, 0) + 3 * i - (i >> 2)
        total = 0
        for key, value in table.items():
            total += key[0] * value + key[1] - key[2]
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(raw: float, before: float, after: float) -> float:
    """A time taken between two calibrations, at the reference host speed."""
    return raw * CALIB_REF_S / ((before + after) / 2)
