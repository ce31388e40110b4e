"""Serial-vs-batched equivalence at the machine level.

``VectorMachine.use_batched_memory`` switches gather/gather64/scatter
(and the contiguous load/store fast paths) between the legacy per-lane
Python walk and the batched ``access_batch`` engine.  Both must be
bit-identical: same returned lane values, same buffer contents, same
``MachineStats`` after arbitrary op sequences.  These tests drive both
paths with the same randomized programs on two fresh machines and
demand equality everywhere, plus targeted checks for the packed-window
cache, the bit-reversal LUT, tracer mirroring, and the calibrated loop
cost table.
"""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import MachineError
from repro.memory.hierarchy import MemoryHierarchy
from repro.vector.machine import _BYTE_REVERSE_LUT, VectorMachine
from repro.vector.trace import KIND_MEMBATCH


def two_machines(system=None):
    serial = VectorMachine(system or SystemConfig())
    batched = VectorMachine(system or SystemConfig())
    serial.use_batched_memory = False
    batched.use_batched_memory = True
    return serial, batched


def make_buffers(machine, rng_seed=99):
    rng = np.random.default_rng(rng_seed)
    bufs = []
    for name, size, ebytes in (
        ("seq", 4096, 1),
        ("table", 1024, 4),
        ("state", 512, 8),
    ):
        data = rng.integers(0, 200, size).astype(np.int64)
        bufs.append(machine.new_buffer(name, data, elem_bytes=ebytes))
    return bufs


def random_pred(machine, rng, ebits):
    kind = rng.integers(0, 4)
    if kind == 0:
        return None
    if kind == 1:
        return machine.ptrue(ebits)
    if kind == 2:
        return machine.whilelt(0, int(rng.integers(0, machine.lanes(ebits) + 1)), ebits)
    # arbitrary mask, possibly empty
    mask = rng.integers(0, 2, machine.lanes(ebits)).astype(bool)
    p = machine.ptrue(ebits)
    p.data = mask
    return p


class TestSerialBatchedPrograms:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mixed_program_bit_identical(self, seed, vlen_bits=512):
        serial, batched = two_machines(SystemConfig(vlen_bits=vlen_bits))
        results = {}
        for label, machine in (("serial", serial), ("batched", batched)):
            rng = np.random.default_rng(1000 + seed)
            seq, table, state = make_buffers(machine)
            values = []
            for _ in range(60):
                op = rng.integers(0, 6)
                if op == 0:  # gather (dup indices, mixed strides)
                    ebits = int(rng.choice([8, 32]))
                    buf = seq if ebits == 8 else table
                    idx = machine.from_values(
                        rng.integers(0, len(buf.data), machine.lanes(ebits)),
                        ebits,
                    )
                    pred = random_pred(machine, rng, ebits)
                    v = machine.gather(buf, idx, pred, stream_id=int(rng.integers(0, 3)))
                    values.append(v.data.tolist() + [v.ready])
                elif op == 1:  # gather64 windows incl. near-end tails
                    idx = machine.from_values(
                        rng.integers(0, len(seq.data), machine.lanes(64)), 64
                    )
                    pred = random_pred(machine, rng, 64)
                    v = machine.gather64(seq, idx, pred)
                    values.append(v.data.tolist() + [v.ready])
                elif op == 2:  # scatter
                    idx = machine.from_values(
                        rng.choice(len(state.data), machine.lanes(64), replace=False),
                        64,
                    )
                    val = machine.from_values(
                        rng.integers(-50, 50, machine.lanes(64)), 64
                    )
                    pred = random_pred(machine, rng, 64)
                    machine.scatter(state, idx, val, pred)
                elif op == 3:  # unit-stride load (in-range and tail cases)
                    start = int(rng.integers(0, len(table.data)))
                    pred = random_pred(machine, rng, 32)
                    v = machine.load(table, start, 32, pred)
                    values.append(v.data.tolist() + [v.ready])
                elif op == 4:  # unit-stride store
                    start = int(rng.integers(0, len(state.data) - machine.lanes(64)))
                    val = machine.from_values(
                        rng.integers(0, 99, machine.lanes(64)), 64
                    )
                    machine.store(state, start, val, random_pred(machine, rng, 64))
                else:  # arithmetic interlude (stalls depend on memory timing)
                    a = machine.iota(32, start=int(rng.integers(0, 5)))
                    b = machine.add(a, int(rng.integers(1, 9)))
                    values.append(machine.reduce_add(b))
            machine.barrier()
            results[label] = (
                values,
                machine.snapshot(),
                seq.data.tolist(),
                table.data.tolist(),
                state.data.tolist(),
            )
        assert results["serial"][0] == results["batched"][0]
        assert results["serial"][1] == results["batched"][1]
        assert results["serial"][2:] == results["batched"][2:]

    # At 1024 and 2048 bits a byte gather has 128 and 256 lanes, so its
    # access batch runs well past 64 requests.
    @pytest.mark.parametrize("vlen_bits", [1024, 2048])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_wide_program_bit_identical(self, seed, vlen_bits):
        self.test_mixed_program_bit_identical(seed, vlen_bits)

    def test_out_of_range_parity(self):
        for bad in ([-1, 0, 1], [0, 10_000, 1]):
            serial, batched = two_machines()
            errors = []
            for machine in (serial, batched):
                buf = machine.new_buffer(
                    "b", np.zeros(64, dtype=np.int64), elem_bytes=1
                )
                idx = machine.from_values(bad + [0] * 5, 64)
                with pytest.raises(MachineError) as e1:
                    machine.gather(buf, idx)
                with pytest.raises(MachineError) as e2:
                    machine.gather64(buf, idx)
                errors.append((str(e1.value), str(e2.value)))
            assert errors[0] == errors[1]

    def test_gather64_index_at_buffer_end_is_padded(self):
        """Windows may start on the last byte (zero-padded), not past it."""
        serial, batched = two_machines()
        outs = []
        for machine in (serial, batched):
            data = np.arange(1, 17, dtype=np.int64)
            buf = machine.new_buffer("tail", data, elem_bytes=1)
            idx = machine.from_values([15, 12, 9, 0, 0, 0, 0, 0], 64)
            outs.append(machine.gather64(buf, idx).data.tolist())
        assert outs[0] == outs[1]
        assert outs[0][0] == 16  # single in-range byte, upper bytes padded


class TestPackedWindows:
    def scalar_reference(self, data, start):
        packed = 0
        for k in range(8):
            if start + k < len(data):
                packed |= (int(data[start + k]) & 0xFF) << (8 * k)
        return np.int64(np.uint64(packed)).item()

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        machine = VectorMachine(SystemConfig())
        data = rng.integers(0, 256, 128).astype(np.int64)
        buf = machine.new_buffer("w", data, elem_bytes=1)
        win = buf.packed_windows()
        for start in [0, 1, 7, 64, 120, 124, 126, 127]:
            assert win[start] == self.scalar_reference(data, start)

    def test_invalidated_by_store_and_scatter(self):
        machine = VectorMachine(SystemConfig())
        buf = machine.new_buffer("w", np.zeros(64, dtype=np.int64), elem_bytes=1)
        idx = machine.from_values([0, 8, 16, 0, 0, 0, 0, 0], 64)
        assert machine.gather64(buf, idx).data.tolist()[:3] == [0, 0, 0]
        val = machine.from_values([7] * 8, 64)
        machine.store(buf, 0, val)
        after_store = machine.gather64(buf, idx).data[0]
        assert after_store == self.scalar_reference(buf.data, 0)
        machine.scatter(buf, machine.from_values([16] * 8, 64), val)
        assert machine.gather64(buf, idx).data[2] == self.scalar_reference(
            buf.data, 16
        )


class TestByteReverseLut:
    def test_matches_naive_loop(self):
        def naive(byte):
            out = 0
            for bit in range(8):
                out |= ((byte >> bit) & 1) << (7 - bit)
            return out

        assert _BYTE_REVERSE_LUT.tolist() == [naive(b) for b in range(256)]


class TestTracerMirroring:
    def test_batched_gather_records_membatch_event(self):
        machine = VectorMachine(SystemConfig())
        machine.use_batched_memory = True
        tracer = machine.attach_tracer()
        buf = machine.new_buffer(
            "t", np.arange(256, dtype=np.int64), elem_bytes=4
        )
        idx = machine.iota(32, start=0, step=3)
        machine.gather(buf, idx, stream_id=5)
        events = [e for e in tracer.events() if e.kind == KIND_MEMBATCH]
        assert len(events) == 1
        assert events[0].lanes == machine.lanes(32)
        assert events[0].latency >= 0


class TestAccessBatchMax:
    def test_matches_access_batch_max_and_state(self):
        rng = np.random.default_rng(11)
        sysc = SystemConfig()
        a, b = MemoryHierarchy(sysc), MemoryHierarchy(sysc)
        for round_ in range(40):
            n = int(rng.integers(1, 80))
            base = int(rng.integers(0, 32 * 1024))
            addrs = base + np.cumsum(rng.integers(-64, 96, n))
            addrs = np.abs(addrs).astype(np.int64)
            sid = int(rng.integers(0, 4))
            assert a.access_batch_max(addrs, 4, sid) == int(
                b.access_batch(addrs, 4, sid).max()
            )
        assert a.stats() == b.stats()

    def test_empty_batch_is_zero(self):
        mem = MemoryHierarchy(SystemConfig())
        before = mem.stats()
        assert mem.access_batch_max(np.array([], dtype=np.int64), 4, 0) == 0
        assert mem.stats() == before


class TestCalibratedLoopIdentity:
    def test_cost_table_identical_serial_vs_batched(self):
        """Wall-clock changes; modeled cycles must not (satellite 6)."""
        from repro.align.vectorized.extend_loop import ExtendCostModel

        tables = {}
        saved = VectorMachine.use_batched_memory
        try:
            for label, enabled in (("serial", False), ("batched", True)):
                VectorMachine.use_batched_memory = enabled
                tables[label] = ExtendCostModel(SystemConfig())._measure()
        finally:
            VectorMachine.use_batched_memory = saved
        assert tables["serial"].keys() == tables["batched"].keys()
        for k in tables["serial"]:
            assert tables["serial"][k] == tables["batched"][k], k
