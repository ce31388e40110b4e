"""A name kept for the benchmark's tracer; nothing in the program calls it.

The alignment drivers run inline: each implementation's ``run_pair``
issues its machine ops in program order.  The benchmark's tracer
(``perfbench/tracing.py``) still looks up ``drive_fleet`` by name when
it installs, so the name must stay importable until the tracer stops
hooking it.
"""

from __future__ import annotations


def drive_fleet(pairs):
    """Return ``pairs`` as a list (uncalled; see the module docstring)."""
    return list(pairs)
