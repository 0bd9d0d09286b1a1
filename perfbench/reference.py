"""Host-speed references: fixed work timed next to every measurement.

Shared hosts run through slow spells that last seconds to minutes, so
two runs of the same code can differ by a third.  The benchmark times a
fixed reference next to each measurement and scales the measurement by
``nominal / reference``: the result is the time it would take on a host
where the reference takes its nominal time.  The references never call
the library, so a change to the library cannot move them.

* Sweeps: :func:`reference_s`, an interpreter-bound loop plus NumPy
  kernels (the two kinds of work the library does), timed before and
  after each sweep.
* Set-up: :data:`STARTUP_PROBE`, a fresh interpreter importing the C
  extensions the library loads, spawned after each set-up probe.  Start
  up is bound by process creation and extension loading, which the
  in-process loop does not track; against this probe the set-up spread
  over a few minutes fell from 0.27 to 0.04 (quartile distance over
  median) on a shared 2-core host.
"""

from statistics import median
from time import perf_counter

import numpy as np

#: Typical reference times on the host the committed baseline was
#: measured on, so nominal times there read close to raw ones.
NOMINAL_S = 0.010
NOMINAL_STARTUP_S = 0.13

#: Interpreter arguments of the start-up reference probe.
STARTUP_PROBE = ("-c", "import numpy, cffi")


def _interpreter() -> float:
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(40000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return perf_counter() - start


def _numpy() -> float:
    start = perf_counter()
    draws = np.random.default_rng(1).random(300000)
    np.nonzero(draws < 0.01)
    np.bincount((draws * 1000).astype(np.int64))
    return perf_counter() - start


def reference_s() -> float:
    """Median-of-8 time of each part, summed."""
    return (median(_interpreter() for _ in range(8))
            + median(_numpy() for _ in range(8)))


class Normalizer:
    """Factors that scale measured times to nominal host speed.

    Each :meth:`factor` call times the reference once and returns the
    factor for the measurement made since the previous call, from the
    references on either side of it.
    """

    def __init__(self) -> None:
        self.last = reference_s()

    def factor(self) -> float:
        """``NOMINAL_S`` over the mean reference around the last measurement."""
        now = reference_s()
        around = (self.last + now) / 2
        self.last = now
        return NOMINAL_S / around
