"""Host-speed probe: the yardstick that takes the shared host's speed out of the timings.

On a shared VM the same code runs at one speed or about 1.5 times slower,
switching within seconds and sometimes staying slow for a whole run. The
benchmark therefore times this fixed probe right before and right after
every call it measures, and reports the call's time over the probe's times
REFERENCE_S: what the call takes on a host where the probe takes
REFERENCE_S. A change in the work a call does moves that figure; a change in
host speed moves the call and the probe alike.
"""

import time

import numpy as np

# Chosen so that scaled call times equal the fastest raw call times measured
# on a 2-CPU shared Linux VM (Xeon, 2.1 GHz, Python 3.11.7, numpy 2.4.6)
# while it ran at full speed; there the probe, run beside library calls,
# took 100-130 us.
REFERENCE_S = 68e-6

_POINTS = np.arange(-64, 65, dtype=float)


def probe() -> float:
    """Seconds taken by a fixed mix of pure-Python complex arithmetic and small
    numpy calls, the two kinds of work the library does."""
    t0 = time.perf_counter()
    acc = 0j
    power = 1.0 + 0j
    for r in range(150):
        power *= complex(0.3, 0.4)
        acc += power / (1.0 + r)
    for _ in range(5):
        acc += np.exp(_POINTS * complex(-0.01, 0.3)).sum()
    return time.perf_counter() - t0


def scaled(call_s: float, probe_s: float) -> float:
    """A call's time at reference host speed, given the probe time beside it."""
    return call_s / probe_s * REFERENCE_S
