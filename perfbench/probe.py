"""Host-speed probe: a fixed loop timed in short slices beside the work.

Shared hosts drift in speed by tens of percent within minutes.  Every host-time metric is therefore reported at a
nominal host speed: the probe's loop is run for a fixed fraction of the
time each unit of work took, right after it, in the same process, and
the metric is scaled by ``measured / NOMINAL_UNIT_S`` for the probe
slices that belong to the same stretch of time.

The loop imitates the simulator's instruction mix -- method calls,
attribute and dict updates, small NumPy ops -- because a loop that
differs (a tight integer/dict loop, or one with a large working set)
tracked the workload worse across host states.  It imports nothing
from ``repro``, so a faster program never makes the probe faster.
The probe is timed in process CPU time, like the batch workloads' pairs,
so time the host spends on other tenants' work is not counted.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds of CPU one probe unit takes on the reference host (2-core
#: Intel Xeon at 2.1 GHz, CPython 3.11).  Metrics are reported as if every probe unit
#: had taken exactly this long.
NOMINAL_UNIT_S = 50e-6


class _Reg:
    __slots__ = ("data", "ebits")

    def __init__(self, data, ebits: int) -> None:
        self.data = data
        self.ebits = ebits


class _Machine:
    """A toy vector machine: method calls, counters, small-array ops."""

    def __init__(self) -> None:
        self.stats: dict = {}
        self.clock = 0
        self.bufs = [np.arange(256, dtype=np.int64) * (k + 1) for k in range(256)]

    def _issue(self, category: str, occupancy: int, latency: int) -> int:
        self.stats[category] = self.stats.get(category, 0) + occupancy
        self.clock += latency
        return self.clock

    def add(self, a: _Reg, b: _Reg) -> _Reg:
        self._issue("vector", 1, 2)
        return _Reg(np.add(a.data, b.data), a.ebits)

    def load(self, buf: int, offset: int) -> _Reg:
        self._issue("memory", 1, 4)
        return _Reg(self.bufs[buf & 255][offset:offset + 16], 64)

    def cmp(self, a: _Reg, b: _Reg):
        self._issue("predicate", 1, 1)
        return np.greater(a.data, b.data)


_MACHINE = _Machine()
_STEP = [0]


def probe_unit() -> int:
    """One fixed unit of interpreter + small-array work."""
    m = _MACHINE
    p = _STEP[0]
    acc = _Reg(np.zeros(16, dtype=np.int64), 64)
    for i in range(12):
        r = m.load(p + i * 37, (i * 16) & 127)
        acc = m.add(acc, r)
        if m.cmp(acc, r).any():
            acc.ebits ^= 1
    _STEP[0] = p + 1
    return int(acc.data[0])


class Probe:
    """Runs the probe loop for ``fraction`` of each measured work time.

    Time owed to the probe accumulates until it covers a whole unit, so
    short pieces of work still get their share; the time actually spent
    probing pays the debt off.
    """

    def __init__(self, fraction: float) -> None:
        self.fraction = fraction
        self.units = 0
        self.seconds = 0.0
        self._debt = 0.0

    def after(self, work_s: float) -> "tuple[int, float]":
        """Probe for ``fraction * work_s``; returns this slice's (units, s)."""
        self._debt += self.fraction * work_s
        n = int(self._debt / NOMINAL_UNIT_S)
        if n < 1:
            return 0, 0.0
        t0 = time.process_time()
        for _ in range(n):
            probe_unit()
        spent = time.process_time() - t0
        self._debt -= spent
        self.units += n
        self.seconds += spent
        return n, spent

    def run_for(self, seconds: float) -> "tuple[int, float]":
        """Probe for about ``seconds`` regardless of any work (idle slots)."""
        return self.after(seconds / self.fraction if self.fraction else 0.0)


def slowness(units: int, seconds: float) -> float:
    """Host slowness of a set of probe slices: 1.0 = nominal, 2.0 = half speed."""
    if units <= 0:
        return 1.0
    return (seconds / units) / NOMINAL_UNIT_S
