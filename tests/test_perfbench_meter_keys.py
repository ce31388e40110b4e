"""The replay meter still has every key the benchmark indexes.

``perfbench/run.py`` builds its per-layer metrics from a replay-meter
snapshot with plain ``meter["..."]`` indexing, so a meter key that is
renamed or deleted breaks ``perfbench/run.py --trace 1`` with a
``KeyError`` while every other test passes.  This test reads the script
as text (without importing or editing it), collects every key it
indexes, and requires each in :meth:`ReplayMeter.snapshot` as a number.
"""

import re
from pathlib import Path

from repro.vector.program import REPLAY_METER

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

#: Keys the script indexed when this test was written: the scan below
#: must keep finding at least these, or it has stopped matching.
KNOWN = {
    "memvec_pattern_hits", "memvec_pattern_misses", "kernel_run_s",
    "compile_s", "captures", "replayed_blocks", "total_blocks",
    "kernel_cache_hits", "mem_model_s",
}


def indexed_keys():
    return set(re.findall(r"\bmeter\[\"([^\"]+)\"\]", RUN_PY.read_text()))


def test_scan_finds_the_indexed_keys():
    assert KNOWN <= indexed_keys()


def test_every_indexed_key_is_a_numeric_snapshot_field():
    snapshot = REPLAY_METER.snapshot()
    missing = sorted(indexed_keys() - set(snapshot))
    assert missing == [], f"perfbench/run.py indexes absent keys {missing}"
    for key in indexed_keys():
        assert isinstance(snapshot[key], (int, float)), key
