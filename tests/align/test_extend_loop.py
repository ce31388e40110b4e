"""Tests for the VEC extend loop, iteration math, and cost models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.vectorized.extend_loop import (
    ExtendCostModel,
    VecExtendKernel,
    extend_chunks,
    vec_extend,
    window_iterations,
)
from repro.config import SystemConfig
from repro.vector.machine import VectorMachine


def setup_machine(pattern: str, text: str):
    machine = VectorMachine(SystemConfig())
    p = np.frombuffer(pattern.encode(), dtype=np.uint8)
    t = np.frombuffer(text.encode(), dtype=np.uint8)
    pbuf = machine.new_buffer("p", p, elem_bytes=1)
    tbuf = machine.new_buffer("t", t, elem_bytes=1)
    return machine, pbuf, tbuf


class TestVecExtend:
    def test_extends_along_matches(self):
        machine, pbuf, tbuf = setup_machine("ACGTACGTXX", "ACGTACGTYY")
        v = machine.from_values([0], ebits=64)
        h = machine.from_values([0], ebits=64)
        act = machine.whilelt(0, 1, ebits=64)
        v2, h2 = vec_extend(machine, pbuf, tbuf, v, h, act, 10, 10)
        assert h2.data[0] == 8
        assert v2.data[0] == 8

    def test_multiple_lanes_independent(self):
        machine, pbuf, tbuf = setup_machine("AAAAACGT", "AAAAACGA")
        v = machine.from_values([0, 4, 7], ebits=64)
        h = machine.from_values([0, 4, 7], ebits=64)
        act = machine.whilelt(0, 3, ebits=64)
        _, h2 = vec_extend(machine, pbuf, tbuf, v, h, act, 8, 8)
        assert h2.data[0] == 7  # run of 7 then mismatch at index 7
        assert h2.data[1] == 7
        assert h2.data[2] == 7  # immediate mismatch at 7

    def test_stops_at_boundary(self):
        machine, pbuf, tbuf = setup_machine("AAAA", "AAAA")
        v = machine.from_values([0], ebits=64)
        h = machine.from_values([0], ebits=64)
        act = machine.whilelt(0, 1, ebits=64)
        _, h2 = vec_extend(machine, pbuf, tbuf, v, h, act, 4, 4)
        assert h2.data[0] == 4

    def test_inactive_lane_frozen(self):
        machine, pbuf, tbuf = setup_machine("AAAA", "AAAA")
        v = machine.from_values([0, 2], ebits=64)
        h = machine.from_values([0, 2], ebits=64)
        act = machine.whilelt(0, 1, ebits=64)  # second lane inactive
        _, h2 = vec_extend(machine, pbuf, tbuf, v, h, act, 4, 4)
        assert h2.data[1] == 2


class TestIterationMath:
    def test_window_iterations_basic(self):
        runs = np.array([0, 7, 8, 9, 16])
        bounds = np.array([100, 100, 100, 100, 100])
        entered = np.ones(5, dtype=bool)
        iters = window_iterations(runs, bounds, entered, 8)
        assert iters.tolist() == [1, 1, 2, 2, 3]

    def test_boundary_exact_window(self):
        # Run ends exactly at a window multiple AND at the boundary:
        # the bounds check retires the lane without a final iteration.
        runs = np.array([16])
        bounds = np.array([16])
        iters = window_iterations(runs, bounds, np.array([True]), 8)
        assert iters.tolist() == [2]

    def test_not_entered_is_zero(self):
        iters = window_iterations(
            np.array([5]), np.array([10]), np.array([False]), 8
        )
        assert iters.tolist() == [0]

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=8),
        st.integers(1, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_window_iterations_vs_simulation(self, runs, bound_extra):
        """Pin the closed form against a direct loop simulation."""
        window = 8
        runs_arr = np.asarray(runs)
        bounds = runs_arr + bound_extra - 1  # ensure bounds >= runs
        bounds = np.maximum(bounds, runs_arr)
        entered = bounds > 0
        expected = []
        for run, bound in zip(runs_arr, bounds):
            if bound <= 0:
                expected.append(0)
                continue
            pos, it = 0, 0
            while True:
                it += 1
                c = min(window, run - pos, bound - pos) if run - pos > 0 else 0
                # count ALU reports min(window, remaining matches), then
                # software clamps to the boundary.
                c = min(window, max(0, run - pos), bound - pos)
                pos += c
                if c < window or pos >= bound:
                    break
            expected.append(it)
        got = window_iterations(runs_arr, bounds, entered, window)
        assert got.tolist() == expected


class TestCostModel:
    def test_table_covers_all_lane_counts(self):
        model = ExtendCostModel(SystemConfig())
        for k in range(0, 9):
            stats = model.per_iteration(k)
            if k:
                assert stats.cycles > 0
        assert model.entry().cycles > 0

    def test_cost_grows_with_active_lanes(self):
        model = ExtendCostModel(SystemConfig())
        # Gather occupancy is per-element: more active lanes, more cycles.
        assert model.per_iteration(8).cycles > model.per_iteration(1).cycles

    def test_out_of_range_rejected(self):
        model = ExtendCostModel(SystemConfig())
        with pytest.raises(Exception):
            model.per_iteration(9)

    def test_cache_is_shared(self):
        a = ExtendCostModel(SystemConfig())
        b = ExtendCostModel(SystemConfig())
        assert a._table() is b._table()


class TestExtendChunksFastVsSlow:
    def _chunks(self, machine, starts):
        vs, hs = [], []
        for s in starts:
            vs.append(machine.from_values([s], ebits=64))
        act = machine.whilelt(0, 1, ebits=64)
        return [(v, v, act) for v in vs]

    def test_functional_equality(self):
        text = "ACGTACGTACGTACGTAAAACCCCGGGG" * 4
        for fast in (False, True):
            machine, pbuf, tbuf = setup_machine(text, text[:-1] + "T")
            kernel = VecExtendKernel(pbuf, tbuf)
            consts = kernel.consts(machine, len(text), len(text))
            chunks = self._chunks(machine, [0, 5, 30])
            results = extend_chunks(
                machine, kernel, consts, chunks, fast,
                kernel.cost_model(machine) if fast else None,
            )
            if fast:
                fast_h = [tuple(h.data) for h, _ in results]
            else:
                slow_h = [tuple(h.data) for h, _ in results]
        assert fast_h == slow_h
