"""Run implementations over datasets and collect cycle-level results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.align.interface import Implementation, PairResult
from repro.config import DEFAULT_QUETZAL, QuetzalConfig, SystemConfig
from repro.errors import ReproError
from repro.genomics.generator import SequencePair
from repro.quetzal.accelerator import QuetzalUnit
from repro.vector.machine import VectorMachine
from repro.vector.stats import MachineStats


def make_machine(
    system: SystemConfig | None = None,
    quetzal: "QuetzalConfig | None | bool" = None,
) -> VectorMachine:
    """Build one simulated core, optionally with a QUETZAL unit attached.

    ``quetzal=True`` attaches the default (QZ_8P) configuration.
    """
    machine = VectorMachine(system or SystemConfig())
    if quetzal is True:
        QuetzalUnit(machine, DEFAULT_QUETZAL)
    elif isinstance(quetzal, QuetzalConfig):
        QuetzalUnit(machine, quetzal)
    elif quetzal not in (None, False):
        raise ReproError(f"invalid quetzal argument: {quetzal!r}")
    return machine


@dataclass
class RunResult:
    """Aggregated outcome of one implementation over one set of pairs."""

    name: str
    system: SystemConfig
    pair_results: list[PairResult] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return sum(r.cycles for r in self.pair_results)

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.pair_results)

    @property
    def num_pairs(self) -> int:
        return len(self.pair_results)

    @property
    def seconds(self) -> float:
        """Single-core wall time at the configured clock."""
        return self.cycles / (self.system.clock_ghz * 1e9)

    @property
    def outputs(self) -> list:
        return [r.output for r in self.pair_results]

    def stats(self) -> MachineStats:
        """Merged machine statistics across all pairs.

        Accumulates in place (``merge_``): the old ``total.merge(r)``
        loop allocated a fresh merged snapshot per pair, which was
        quadratic in allocations over large batches.
        """
        total = MachineStats()
        for r in self.pair_results:
            total.merge_(r.stats)
        return total

    @property
    def dram_bytes(self) -> int:
        return self.stats().mem.dram_bytes

    @property
    def mem_requests(self) -> int:
        return self.stats().mem.requests


def run_implementation(
    impl: Implementation,
    pairs: "Iterable[SequencePair] | Sequence[SequencePair]",
    system: SystemConfig | None = None,
    quetzal: "QuetzalConfig | None | bool" = None,
    machine: VectorMachine | None = None,
    jobs: int = 1,
    shard_size: int | None = None,
) -> RunResult:
    """Simulate ``impl`` over ``pairs`` on one core.

    A single machine is reused across the dataset (pairs see each other's
    cache state, as in a real batch run).  If ``quetzal`` is unset, it is
    attached automatically when the implementation requires it.

    ``jobs`` > 1 evaluates across worker processes and ``shard_size``
    splits the batch into fixed pair shards (each on a fresh machine);
    both route through :mod:`repro.eval.parallel`, whose shard plan is
    independent of the worker count — any ``jobs`` value over the same
    ``shard_size`` produces bit-identical results, and the default
    ``shard_size=None`` reproduces this serial path exactly.  When a
    supervisor is active (:mod:`repro.eval.supervise`), the same units
    additionally gain journaling, timeout/retry, and crash recovery —
    still bit-identical.
    """
    system = system or SystemConfig()
    if jobs > 1 or shard_size is not None:
        if machine is not None:
            raise ReproError(
                "a live machine cannot be shipped to worker processes; "
                "drop machine= or run with jobs=1 and no shard_size"
            )
        from repro.eval.parallel import run_sharded

        return run_sharded(
            impl, pairs, system=system, quetzal=quetzal,
            jobs=jobs, shard_size=shard_size,
        )
    if machine is None:
        if quetzal is None and impl.requires_quetzal:
            quetzal = True
        machine = make_machine(system, quetzal)
    if impl.requires_quetzal and machine.quetzal is None:
        raise ReproError(f"{impl.name} requires a QUETZAL-capable machine")
    result = RunResult(name=impl.name, system=system)
    for pair in pairs:
        result.pair_results.append(impl.run_pair(machine, pair))
    return result
