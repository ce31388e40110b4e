"""Helpers shared by the batch and serve halves of the benchmark."""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Program layers with a ``<layer>.self_s`` metric (see tracing.py).
LAYERS = (
    "genomics", "runner", "align", "machine", "replay", "memory",
    "quetzal", "fleet",
)


#: Every run ends, with or without a result, within this many seconds.
RUN_LIMIT_S = 170.0
_STARTED = time.monotonic()


class BenchError(Exception):
    """The benchmark could not produce a result."""


def remaining_s() -> float:
    """Seconds left before the run limit; raises once it has passed."""
    left = RUN_LIMIT_S - (time.monotonic() - _STARTED)
    if left < 1.0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


class Workspace:
    """Private scratch space in the checkout, removed at the end."""

    def __init__(self, workload: str, seed: int) -> None:
        self.dir = ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=False)
        self._n = 0

    def fresh(self, stem: str) -> Path:
        self._n += 1
        path = self.dir / f"{stem}-{self._n}"
        path.mkdir()
        return path

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


def child_env(cache_dir: Path) -> dict:
    """Environment of a program process: no inherited REPRO_* toggles."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 1]); +inf samples allowed."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == float("inf"):
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
