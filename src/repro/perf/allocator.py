"""Tracking allocator: live bytes, high-water mark (MRSS), OOM modeling.

The paper's Table III reports the maximum resident set size of each run.  We
route every matrix, vector, worklist and scratch-buffer allocation through a
:class:`TrackingAllocator` and report its high-water mark.

Two runtime-specific behaviours from the paper are modeled:

* the Galois runtime *preallocates* pages to avoid dynamic allocation during
  execution, which makes small-graph MRSS higher than SuiteSparse's
  (``prealloc_bytes``);
* SuiteSparse allocates on demand with slack (amortized growth and temporary
  copies), modeled as a per-allocation overhead factor (``slack_factor``),
  which makes its large-graph MRSS grow faster — the effect the paper notes
  for the big inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults
from repro.errors import InvalidValue, OutOfMemoryError


@dataclass
class Allocation:
    """Handle for one live allocation."""

    label: str
    nbytes: int
    charged_bytes: int
    freed: bool = False


class TrackingAllocator:
    """Byte-accurate allocation tracker with an optional capacity limit."""

    def __init__(
        self,
        capacity_bytes: float = float("inf"),
        prealloc_bytes: int = 0,
        slack_factor: float = 1.0,
        name: str = "allocator",
    ):
        if slack_factor < 1.0:
            raise InvalidValue("slack_factor must be >= 1.0")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.prealloc_bytes = prealloc_bytes
        self.slack_factor = slack_factor
        self.live_bytes = 0
        self.peak_bytes = prealloc_bytes
        self.total_allocations = 0
        self.total_allocated_bytes = 0

    def allocate(self, nbytes: int, label: str = "") -> Allocation:
        """Record an allocation of ``nbytes`` payload bytes.

        Raises :class:`~repro.errors.OutOfMemoryError` when the modeled
        machine's memory capacity would be exceeded — the OOM entries in
        Table II.
        """
        if nbytes < 0:
            raise InvalidValue("cannot allocate a negative number of bytes")
        faults.trip("alloc", label=label)
        charged = int(nbytes * self.slack_factor)
        self.live_bytes += charged
        self.total_allocations += 1
        self.total_allocated_bytes += charged
        rss = self.resident_bytes()
        if rss > self.capacity_bytes:
            self.live_bytes -= charged
            raise OutOfMemoryError(
                f"{self.name}: resident set {rss / 2**30:.2f} GiB exceeds "
                f"capacity {self.capacity_bytes / 2**30:.2f} GiB "
                f"(allocating {nbytes} bytes for {label!r})"
            )
        if rss > self.peak_bytes:
            self.peak_bytes = rss
        return Allocation(label=label, nbytes=nbytes, charged_bytes=charged)

    def free(self, alloc: Allocation) -> None:
        """Release a previously recorded allocation (idempotent)."""
        if alloc.freed:
            return
        alloc.freed = True
        self.live_bytes -= alloc.charged_bytes

    def resident_bytes(self) -> int:
        """Current modeled RSS: the preallocated pool plus overflow."""
        return max(self.prealloc_bytes, self.live_bytes)

    def mrss_bytes(self) -> int:
        """High-water resident set size — the paper's MRSS."""
        return self.peak_bytes

    def reset_peak(self) -> None:
        """Restart peak tracking from the current live size."""
        self.peak_bytes = self.resident_bytes()
