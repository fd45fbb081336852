"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark runs on a few cores of a shared host.  Other load on that
host slows every process on it, pure-Python and numpy code alike, by up
to about 2x for periods of seconds to minutes, so a 60 s run cannot
outlast it: the median pass time of whole runs moved by 30 % between runs
of the same code.  The harness therefore times this kernel, which does not
touch bandvie, before every pass and after the last one, and scales the
pass's times by :data:`REFERENCE_S` over the mean of the two kernel times
around it.  Host load slows pass and kernel alike and cancels; a change to
bandvie moves only the pass.  The scaled times read as seconds at the
speed the machine had when :data:`REFERENCE_S` was recorded.

The kernel mixes the kinds of work a bandvie pass does: an interpreted
loop, many numpy calls on short arrays, elementwise maths on long arrays
and dense solves.  Its arrays are small, so it does not move the peak
resident set.
"""

from __future__ import annotations

import time

import numpy as np

#: median kernel time, in seconds, on the machine ``baseline.json`` was
#: recorded on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.025

_SHORT = np.linspace(0.0, 1.0, 16)
_LONG = np.linspace(0.0, 1.0, 20_000)
_MATRIX = np.add.outer(_SHORT, _SHORT)[:12, :12] + 12.0 * np.eye(12)
_MATRIX = np.kron(np.eye(10), _MATRIX)          # 120 x 120, well conditioned


def kernel():
    """The reference work; returns a checksum so nothing is skipped."""
    total = 0
    for i in range(60_000):
        total += i * i
    acc = float(total % 7)
    for _ in range(2_000):
        acc += np.exp(_SHORT * 0.5).sum()
    for _ in range(30):
        acc += np.exp(np.sin(_LONG) * _LONG).sum()
    for _ in range(30):
        acc += np.linalg.solve(_MATRIX, _MATRIX[0]).sum()
    return acc


def kernel_seconds(clock=time.perf_counter):
    """Wall seconds of one run of :func:`kernel`."""
    start = clock()
    kernel()
    return clock() - start
