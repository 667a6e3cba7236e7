"""Machine speed, measured by a fixed loop interleaved with the requests.

On a shared host a vCPU's speed changes within seconds, and by 20-30%
over minutes, as its hardware neighbours come and go; that is as large
as a regression bound.  The benchmark runs :func:`sample` after every
operation and scales its end-to-end times to :data:`REFERENCE_S`, the
loop's CPU time on a vCPU at reference speed.

The loop is benchmark code that the program never touches.  Its data is
preallocated and it creates only short-lived integers, which the
collector does not track, so the program's heap cannot start work inside
it; it runs once untimed to bring its few cache lines back; and it is
timed in this thread's CPU time.  It therefore measures how fast the machine executes Python, not
what else the process or the host is doing: a program change that adds
work, memory traffic, background threads or lock waits still shows in
full.
"""

from __future__ import annotations

import statistics
import time

#: Thread CPU seconds of one :func:`_loop` on a 2.0 GHz Xeon vCPU of a
#: shared host at its usual speed.
REFERENCE_S = 0.0002

_VALUES = list(range(1000))
_TOTALS = dict.fromkeys(range(37), 0)


def _loop() -> int:
    """Integer, list and dictionary work on preallocated small ints."""
    totals = _TOTALS
    checksum = 0
    for value in _VALUES:
        key = value % 37
        totals[key] = (totals[key] + value) & 0xFFFF
        checksum = (checksum + key * 3) & 0xFFFF
    return checksum


def sample() -> float:
    """Thread CPU seconds of one warm run of the loop."""
    _loop()
    started = time.thread_time()
    _loop()
    return time.thread_time() - started


def slowdown(samples: list) -> float:
    """How much slower than reference speed the machine ran the samples."""
    return statistics.median(samples) / REFERENCE_S
