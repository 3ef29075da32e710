"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine the speed of a core drifts by 20% and more
over seconds to minutes, because of neighbours the benchmark cannot see.
The benchmark times this loop next to everything it measures and reports
each time scaled to the loop's nominal duration: a wall time ``w``
measured while the loop took ``r`` is reported as ``w * NOMINAL_S / r``,
the time the work would have taken had the machine run at the nominal
speed.  The loop mixes pure-Python integer work and small numpy kernels,
like splitstream, and calls no splitstream code, so a change to the program
cannot move it.  Raw wall times are printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

# duration of ``reference_s`` on an unloaded 2-core Xeon VM, Python 3.11
NOMINAL_S = 0.025

_A = np.linspace(-1.0, 1.0, 16 * 16 * 32, dtype=np.float32).reshape(16, 16, 32)
_W = np.linspace(-1.0, 1.0, 32 * 32, dtype=np.float32).reshape(32, 32)


def reference_s() -> float:
    """Wall seconds of one pass of the fixed reference work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(250_000):
        acc += (i * i) & 0xFF
    for _ in range(60):
        np.einsum("hwi,io->hwo", _A, _W, optimize=False)
    return time.perf_counter() - t0


def scaled(wall_s: float, ref_s: float) -> float:
    """Wall time at nominal machine speed."""
    return wall_s * NOMINAL_S / ref_s
