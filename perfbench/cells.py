"""The batch workloads: Fig. 13a cells, their pair schedule and references.

A cell is one (dataset, algorithm, style) of Fig. 13a.  Each cell owns
one simulated machine for the whole run, built with ``make_machine`` and
fed pair by pair through ``run_implementation(impl, [pair], machine=m)``
-- what ``evaluate_cells`` does at ``jobs=1``, so the modelled caches
start empty per cell, as in the figures.

Round ``r`` runs every cell once.  Within a dataset, cell ``c`` of ``C``
takes pair ``(r * C + c) mod len(pool)``: a run covers as many distinct
pairs as it runs steps, which keeps the seed-to-seed spread of a short
run small, and each cell still walks its own pairs in order on its own
machine.  A measured run goes on past ``--seconds`` until every pair of
every pool has been given to some cell, however slow the host is, so
the pairs it checks -- and the failures it can report -- depend on the
seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Workload -> datasets (with pool size; None = the dataset's Fig. 13a
#: count), algorithms, styles.  Pool sizes are prime to the cells per
#: dataset, so each cell meets a new pair every round until the pool is
#: exhausted.
WORKLOADS = {
    "short_reads": {
        "datasets": (("100bp_1", 301), ("250bp_1", 301)),
        "algorithms": ("wfa", "biwfa", "ss"),
        "styles": ("base", "vec", "qz", "qzc"),
    },
    "long_reads": {
        "datasets": (("10Kbp", 19), ("30Kbp", 19)),
        "algorithms": ("wfa", "biwfa", "ss"),
        "styles": ("vec", "qzc"),
    },
    "dp": {
        # The figure-scale datasets: pair 11 of 250bp_1 at seed 1234 is
        # the one Fig. 13a's sw cell fails on.
        "datasets": (("100bp_1", None), ("250bp_1", None)),
        "algorithms": ("sw", "nw"),
        "styles": ("vec", "qz"),
    },
}

#: Read length at or above which the edit-distance reference switches
#: from ``myers_edit_distance`` (seconds per 10 Kbp pair) to the banded
#: DP below.
LONG_READ = 1000


@dataclass
class Cell:
    """One Fig. 13a cell: its implementation and its own machine."""

    dataset: str
    algorithm: str
    style: str
    index: int  # position among its dataset's cells
    impl: object
    machine: object = None

    @property
    def name(self) -> str:
        return f"{self.dataset}/{self.algorithm}-{self.style}"


def make_impl(algorithm: str, style: str, threshold: int):
    from repro.align import baseline, dp_machine, quetzal_impl, vectorized

    table = {
        ("wfa", "base"): baseline.WfaBase,
        ("wfa", "vec"): vectorized.WfaVec,
        ("wfa", "qz"): quetzal_impl.WfaQz,
        ("wfa", "qzc"): quetzal_impl.WfaQzc,
        ("biwfa", "base"): baseline.BiwfaBase,
        ("biwfa", "vec"): vectorized.BiwfaVec,
        ("biwfa", "qz"): quetzal_impl.BiwfaQz,
        ("biwfa", "qzc"): quetzal_impl.BiwfaQzc,
        ("ss", "base"): baseline.SsBase,
        ("ss", "vec"): vectorized.SsVec,
        ("ss", "qz"): quetzal_impl.SsQz,
        ("ss", "qzc"): quetzal_impl.SsQzc,
        ("sw", "vec"): dp_machine.KswVec,
        ("sw", "qz"): quetzal_impl.KswQz,
        ("nw", "vec"): dp_machine.ParasailNwVec,
        ("nw", "qz"): quetzal_impl.ParasailNwQz,
    }
    cls = table[(algorithm, style)]
    return cls(threshold=threshold) if algorithm == "ss" else cls()


def build_pools(workload: str, seed: int) -> dict:
    from repro.genomics.datasets import build_dataset

    return {
        name: build_dataset(name, num_pairs=count, seed=seed)
        for name, count in WORKLOADS[workload]["datasets"]
    }


def build_cells(workload: str, pools: dict) -> "list[Cell]":
    spec = WORKLOADS[workload]
    cells = []
    for name, _ in spec["datasets"]:
        threshold = pools[name].spec.edit_threshold
        index = 0
        for algorithm in spec["algorithms"]:
            for style in spec["styles"]:
                cells.append(Cell(
                    name, algorithm, style, index,
                    make_impl(algorithm, style, threshold),
                ))
                index += 1
    return cells


def pair_index(cell: Cell, round_no: int, cells_per_dataset: int, pool: int) -> int:
    return (round_no * cells_per_dataset + cell.index) % pool


def min_rounds(pools: dict, per_dataset: dict) -> int:
    """Rounds a measured run completes before it may stop: enough to give
    every pair of every pool to some cell."""
    return max(
        -(-len(pools[name].pairs) // cells) for name, cells in per_dataset.items()
    )


# ----------------------------------------------------------------------
# References, computed outside every timed span
# ----------------------------------------------------------------------
def banded_edit_distance(pattern, text) -> int:
    """Exact unit-cost edit distance by banded DP.

    Rows are vectorised with a running minimum for the horizontal
    dependency.  A result within the band is exact (an alignment of cost
    ``d`` never leaves the diagonals ``|j - i| <= d``); otherwise the
    band doubles and the DP reruns.
    """
    a = np.frombuffer(str(pattern).encode(), dtype=np.uint8)
    b = np.frombuffer(str(text).encode(), dtype=np.uint8)
    n, m = len(a), len(b)
    band = max(64, n // 100 + abs(m - n))
    while True:
        d = _banded(a, b, band)
        if d is not None and d <= band:
            return d
        band *= 2


def _banded(a, b, band):
    n, m = len(a), len(b)
    if abs(m - n) > band:
        return None
    inf = 1 << 40
    width = 2 * band + 1
    t = np.arange(width, dtype=np.int64)
    off = t - band
    bpad = np.concatenate([
        np.zeros(band + 1, np.uint8), b, np.zeros(n + band + 2, np.uint8)
    ])
    # Row i holds D[i][i - band + t].
    row = np.where((off >= 0) & (off <= m), off, inf)
    up = np.empty(width, dtype=np.int64)
    for i in range(1, n + 1):
        j = i + off
        invalid = (j < 0) | (j > m)
        sub = row + (bpad[j + band] != a[i - 1])
        up[:-1] = row[1:] + 1
        up[-1] = inf
        x = np.minimum(sub, up)
        x[j == 0] = i
        x[invalid] = inf
        row = np.minimum.accumulate(x - t) + t
        row[invalid] = inf
    return int(row[m - n + band])


def reference_key(cell: Cell) -> tuple:
    """Cells that share a reference (WFA and BiWFA: the edit distance)."""
    if cell.algorithm in ("wfa", "biwfa"):
        return ("edit",)
    if cell.algorithm == "ss":
        return ("ss", cell.impl.threshold)
    return (cell.algorithm,)


def reference(cell: Cell, pair):
    """The expected output of ``cell`` on ``pair``, in comparable form."""
    from repro.align.dp_machine import default_band
    from repro.align.myers import myers_edit_distance
    from repro.align.smith_waterman import banded_global_affine, nw_gotoh_global
    from repro.align.sneakysnake import sneakysnake_filter
    from repro.align.types import Penalties

    if cell.algorithm in ("wfa", "biwfa"):
        if max(len(pair.pattern), len(pair.text)) >= LONG_READ:
            return banded_edit_distance(pair.pattern, pair.text)
        return myers_edit_distance(pair.pattern, pair.text)
    if cell.algorithm == "ss":
        got = sneakysnake_filter(pair.pattern, pair.text, cell.impl.threshold)
        return (bool(got.accepted), int(got.edits))
    if cell.algorithm == "sw":
        return banded_global_affine(
            pair.pattern, pair.text, default_band(pair), Penalties()
        )
    return nw_gotoh_global(pair.pattern, pair.text, Penalties())


def comparable(cell: Cell, output):
    """A program output in the form :func:`reference` returns."""
    if cell.algorithm == "ss":
        return (bool(output.accepted), int(output.edits))
    return output
