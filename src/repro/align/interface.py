"""Common interface for simulated algorithm implementations.

Every implementation style of every algorithm exposes the same surface so
the evaluation runner (:mod:`repro.eval.runner`) can sweep algorithms x
styles x datasets uniformly:

* ``base`` — the compiler-autovectorised baseline the paper normalises to;
* ``vec``  — the hand-written SVE-intrinsics version (VEC in Fig. 13);
* ``qz``   — QUETZAL using only the QBUFFERs;
* ``qzc``  — QUETZAL + count ALU (QUETZAL+C in Fig. 13).
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import Any

from repro.genomics.generator import SequencePair
from repro.vector.machine import VectorMachine
from repro.vector.stats import MachineStats

STYLES = ("base", "vec", "qz", "qzc")


@dataclass
class PairResult:
    """Outcome of simulating one pair on one implementation."""

    cycles: int
    stats: MachineStats
    output: Any

    @property
    def instructions(self) -> int:
        return self.stats.total_instructions


class Implementation(ABC):
    """One (algorithm, style) pair runnable on a simulated machine."""

    #: Algorithm family name ("wfa", "biwfa", "ss", "sw", "nw").
    algorithm: str = ""
    #: One of :data:`STYLES`.
    style: str = "base"

    @property
    def name(self) -> str:
        return f"{self.algorithm}-{self.style}"

    @property
    def requires_quetzal(self) -> bool:
        return self.style in ("qz", "qzc")

    @property
    def requires_count_alu(self) -> bool:
        return self.style == "qzc"

    def run_pair(self, machine: VectorMachine, pair: SequencePair) -> PairResult:
        """Simulate one pair; returns its timing delta and functional output."""
        raise NotImplementedError(f"{type(self).__name__} must override run_pair")

    def _wrap(
        self, machine: VectorMachine, before: MachineStats, output: Any
    ) -> PairResult:
        machine.barrier()
        delta = machine.snapshot().delta(before)
        return PairResult(cycles=delta.cycles, stats=delta, output=output)
