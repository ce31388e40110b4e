"""Tests for the persistent calibration cache (repro.cache)."""

import pytest

from repro._version import __version__
from repro.cache import CALIBRATION, CacheCounters, CalibrationCache
from repro.eval.runner import run_implementation
from repro.align.vectorized import WfaVec
from repro.genomics.generator import ErrorProfile, ReadPairGenerator
from repro.vector.stats import MachineStats


@pytest.fixture
def shared_cache(tmp_path):
    """The process-wide cache, redirected to a scratch dir and restored."""
    saved_memory = dict(CALIBRATION._memory)
    saved_dir = CALIBRATION.directory
    saved_counters = CALIBRATION.counters
    CALIBRATION.counters = CacheCounters()
    try:
        yield CALIBRATION, tmp_path / "cache"
    finally:
        CALIBRATION._memory.clear()
        CALIBRATION._memory.update(saved_memory)
        CALIBRATION.directory = saved_dir
        CALIBRATION.counters = saved_counters


def small_batch(n=1, length=120):
    gen = ReadPairGenerator(length, ErrorProfile(0.02, 0.005, 0.005), seed=11)
    return tuple(gen.pairs(n))


class TestMemoryLayer:
    def test_roundtrip_same_object(self):
        cache = CalibrationCache()
        value = MachineStats(cycles=42)
        cache.put(("k", 1), value)
        assert cache.get(("k", 1)) is value

    def test_miss_returns_none_and_counts(self):
        cache = CalibrationCache()
        assert cache.get(("absent",)) is None
        assert cache.counters.misses == 1

    def test_counters_delta(self):
        cache = CalibrationCache()
        before = cache.counters.copy()
        cache.put(("k",), 1)
        cache.get(("k",))
        delta = cache.counters.delta(before)
        assert delta.stores == 1 and delta.memory_hits == 1


class TestDiskLayer:
    def test_survives_memory_clear(self, tmp_path):
        cache = CalibrationCache()
        cache.enable_disk(tmp_path)
        cache.put(("stats",), MachineStats(cycles=7))
        cache.clear_memory()
        got = cache.get(("stats",))
        assert got is not None and got.cycles == 7
        assert cache.counters.disk_hits == 1

    def test_distinct_keys_distinct_files(self, tmp_path):
        cache = CalibrationCache()
        cache.enable_disk(tmp_path)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.clear_memory()
        assert cache.get(("a",)) == 1
        assert cache.get(("b",)) == 2

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = CalibrationCache()
        cache.enable_disk(tmp_path)
        cache.put(("x",), 9)
        path = cache._path(("x",))
        path.write_bytes(b"not a pickle")
        cache.clear_memory()
        assert cache.get(("x",)) is None

    def test_version_mismatch_rejected(self, tmp_path):
        import pickle

        cache = CalibrationCache()
        cache.enable_disk(tmp_path)
        payload = {"version": "0.0.0-stale", "key": repr(("x",)), "value": 5}
        cache._path(("x",)).parent.mkdir(parents=True, exist_ok=True)
        cache._path(("x",)).write_bytes(pickle.dumps(payload))
        assert cache.get(("x",)) is None

    def test_key_mismatch_rejected(self, tmp_path):
        import pickle

        cache = CalibrationCache()
        cache.enable_disk(tmp_path)
        payload = {"version": __version__, "key": repr(("other",)), "value": 5}
        cache._path(("x",)).parent.mkdir(parents=True, exist_ok=True)
        cache._path(("x",)).write_bytes(pickle.dumps(payload))
        assert cache.get(("x",)) is None

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("plain file, not a directory")
        cache = CalibrationCache()
        cache.enable_disk(blocker / "sub")
        cache.put(("k",), 3)  # disk store fails silently
        assert cache.get(("k",)) == 3  # memory layer still works


class TestWarmVsColdRegression:
    def test_warm_run_is_not_slower_than_cold(self, tmp_path):
        """A warm disk cache must make a calibrated run faster, never
        slower (a parallel-run benchmark once showed warm 49.0s vs
        cold 47.8s; the read path recomputed the key repr, SHA-256, and
        a pathlib join on every lookup).  The measurement stand-in is a
        deliberate sleep so the assertion holds on noisy machines: cold
        pays miss + measure + store per key, warm pays only the disk
        read, which must be orders of magnitude cheaper.
        """
        import time

        cache = CalibrationCache()
        cache.enable_disk(tmp_path)
        keys = [
            ("warmcold", i, ("l1", 64, 4, 32768), ("l2", 64, 8, 1 << 20))
            for i in range(20)
        ]

        def calibrated_pass():
            start = time.perf_counter()
            for key in keys:
                value = cache.get(key)
                if value is None:
                    time.sleep(0.002)  # stand-in for a real measurement
                    cache.put(key, {"cycles": float(key[1])})
            return time.perf_counter() - start

        cold_s = calibrated_pass()
        cache.clear_memory()  # same disk contents, fresh process in effect
        before = cache.counters.copy()
        warm_s = calibrated_pass()
        delta = cache.counters.delta(before)

        assert warm_s <= cold_s, (
            f"warm disk-cache pass ({warm_s:.4f}s) slower than the cold "
            f"measuring pass ({cold_s:.4f}s)"
        )
        # The warm pass re-measured nothing and ran entirely off disk.
        assert delta.disk_hits == len(keys)
        assert delta.misses == 0
        assert cache.get(keys[3]) == {"cycles": 3.0}

    def test_route_memoized_across_memory_clears(self, tmp_path):
        """The digest/repr of a key are pure; simulated cold starts
        (clear_memory) must not drop them, and changing the directory
        must."""
        cache = CalibrationCache()
        cache.enable_disk(tmp_path / "a")
        key = ("route", 1)
        first = cache._path(key)
        cache.clear_memory()
        assert cache._path(key) is first
        cache.enable_disk(tmp_path / "b")
        moved = cache._path(key)
        assert moved != first and moved.name == first.name


class TestCalibratedRunsAreCacheInvariant:
    def test_cold_vs_warm_cycles_identical(self, shared_cache):
        """A warm disk cache must never change a reported cycle count."""
        cache, cache_dir = shared_cache
        batch = small_batch()
        impl = WfaVec(fast=True)  # force the measured-cost (calibrated) path

        cache.disable_disk()
        cache.clear_memory()
        uncached = run_implementation(impl, batch)

        cache.enable_disk(cache_dir)
        cache.clear_memory()
        cold = run_implementation(impl, batch)

        cache.clear_memory()  # same disk contents, fresh process in effect
        before = cache.counters.copy()
        warm = run_implementation(impl, batch)
        delta = cache.counters.delta(before)

        assert cold.cycles == uncached.cycles == warm.cycles
        assert cold.instructions == warm.instructions
        assert delta.disk_hits >= 1
        assert delta.misses == 0
