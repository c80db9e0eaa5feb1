"""Fixed loops that tell how fast the machine runs at the moment.

Shared virtual machines change speed for seconds to tens of minutes at a
time: on the 2-vCPU machine of the reference figures the same gridfreq call
took 1.4 to 1.85 times longer in a slow phase than in a fast one.  The
benchmark times a loop that does not touch gridfreq next to every round,
and scales the round times it reports to a machine on which that loop takes
its nominal time.  A change of machine speed then cancels, while
a change in gridfreq does not.

How much a phase slows a piece of code depends on the kind of work, so there
are two loops: ``interp``, plain Python arithmetic and 39-element NumPy
calls, like the per-step code of simulation, certification and start-up;
and ``array``, NumPy calls on (64, 39, 20) arrays, like training's batched
controller and network kernels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_X = np.linspace(-1.0, 1.0, 39)
_XB = np.linspace(-1.0, 1.0, 64 * 39).reshape(64, 39, 1)
_BD = np.linspace(0.0, 1.0, 39 * 20).reshape(39, 20)


def _interp():
    acc = 0
    for i in range(15000):
        acc += i * i % 7
    a = _X.copy()
    for _ in range(400):
        a = np.sin(np.maximum(a - 0.1, 0.0)) + 0.5 * a


def _array():
    for _ in range(6):
        np.sum(np.maximum(_XB - _BD, 0.0) * _BD, axis=-1)


# kind -> (loop, nominal seconds the reported times are scaled to, timings
# per measurement, how they are combined).  A train39 round lasts seconds and
# follows the machine's average speed over that time, not its fastest
# moments: of the shortest of 3, shortest of 30, median of 30 and mean of 30
# array-loop timings, the mean of 30 tracked the time of a training call best.
KINDS = {"interp": (_interp, 0.003, 3, min),
         "array": (_array, 0.0013, 30, statistics.fmean)}


def loop_seconds(kind):
    """Timing of the loop of the given kind, combined over its repeats."""
    loop, _, repeats, combine = KINDS[kind]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return combine(times)


def scale(kind, seconds, ref_before, ref_after):
    """Seconds measured between two loop timings, scaled to the nominal time."""
    return seconds * KINDS[kind][1] / (0.5 * (ref_before + ref_after))
