"""The pair-fiber protocol the alignment drivers are written in.

An implementation's ``run_pair_gen`` is a generator (a *fiber*) that
yields one :class:`FleetStep` per straight-line block request and
returns the pair's result.  :func:`drive_serial` runs a fiber to
completion, executing each request the moment it is yielded, so the op
order is exactly that of the equivalent inline code.

:func:`drive_fleet` is kept as a plain serial loop over fibers: the
benchmark's tracer (``perfbench/tracing.py``) wraps it by name, so the
name must stay importable until the tracer stops hooking it.
"""

from __future__ import annotations


class FleetStep:
    """One pending block request from a pair fiber; ``run()`` executes it
    on ``machine``."""

    __slots__ = ("machine", "run")

    def __init__(self, machine, run):
        self.machine = machine
        self.run = run


def drive_serial(fiber):
    """Run one pair fiber to completion inline and return its value."""
    try:
        while True:
            next(fiber).run()
    except StopIteration as e:
        return e.value


def drive_fleet(fibers):
    """Run each fiber to completion in order; returns their values."""
    return [drive_serial(fiber) for fiber in fibers]
