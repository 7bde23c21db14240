"""Host-speed calibration kernel.

Same-code passes on a shared host drift by up to 2x in bursts of about
20 s, and CPU time tracks wall time, so the drift is host speed rather than
scheduling.  Timing this fixed pure-Python kernel right before and right
after each pass gives a unit of host speed; ``verdict_cu`` divides a pass
time by it.  The kernel mixes the two kinds of work the package does: a
``Fraction`` convolution (the exact layer) and a ``cmath.exp`` loop (the
theta layer).  It must not import bianchiq, so that no change to the
package can move the unit.
"""

from __future__ import annotations

import cmath
import time
from fractions import Fraction

# The kernel's median time on the host the first numbers were taken on.
# Set-up time is reported as seconds on a host of this speed.
REFERENCE_S = 0.020

_A = tuple(Fraction(i + 1, 7 * i + 3) for i in range(48))


def kernel() -> complex:
    c = [Fraction(0)] * (2 * len(_A))
    for i, x in enumerate(_A):
        for j, y in enumerate(_A):
            c[i + j] += x * y
    s = 0j
    for k in range(20000):
        s += cmath.exp(complex(-1e-4 * k, 1e-3 * k))
    return s + complex(c[len(_A)])


def time_kernel() -> float:
    """Seconds taken by one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
