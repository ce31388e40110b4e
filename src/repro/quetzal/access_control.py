"""The access-control module (Section IV-C).

Holds the three ``qzconf`` registers (element counts of both QBUFFERs and
the element-size code) and validates every access against them, acting as
the interface between the VPU and the QBUFFERs.
"""

from __future__ import annotations

import numpy as np

from repro.config import esize_bits
from repro.errors import QuetzalError


class AccessControl:
    """``qzconf`` state + request validation."""

    def __init__(self) -> None:
        self.eb = [0, 0]
        self.esize_code = 0
        self.configured = False

    @property
    def element_bits(self) -> int:
        if not self.configured:
            raise QuetzalError("QUETZAL not configured; issue qzconf first")
        return esize_bits(self.esize_code)

    def configure(self, eb0: int, eb1: int, esize_code: int) -> None:
        """Apply a ``qzconf`` instruction."""
        bits = esize_bits(esize_code)  # validates the code
        if eb0 < 0 or eb1 < 0:
            raise QuetzalError("qzconf element counts must be non-negative")
        self.eb = [eb0, eb1]
        self.esize_code = esize_code
        self.configured = True
        del bits

    def check_select(self, sel: int) -> int:
        if sel not in (0, 1):
            raise QuetzalError(f"QBUFFER select must be 0 or 1, got {sel}")
        return sel

    def check_indices(self, indices: np.ndarray, sel: int) -> None:
        """Validate read indices against the configured element count."""
        self.check_select(sel)
        if not self.configured:
            raise QuetzalError("QUETZAL not configured; issue qzconf first")
        if indices.size == 0:
            return
        lanes = indices.tolist()  # vector-sized: cheaper than two reductions
        self._check_range(min(lanes), max(lanes), sel)

    def check_run(self, start: int, count: int, sel: int) -> None:
        """:meth:`check_indices` of the run ``start .. start+count-1``."""
        self.check_select(sel)
        if not self.configured:
            raise QuetzalError("QUETZAL not configured; issue qzconf first")
        if count:
            self._check_range(start, start + count - 1, sel)

    def _check_range(self, lo: int, hi: int, sel: int) -> None:
        if lo < 0 or hi >= self.eb[sel]:
            raise QuetzalError(
                f"QBUFFER {sel} index [{lo}, {hi}] outside configured "
                f"element count {self.eb[sel]}"
            )

    def reset(self) -> None:
        self.eb = [0, 0]
        self.esize_code = 0
        self.configured = False
