"""Machine-wide performance counters.

These counters stand in for the Intel CapeScripts measurements the paper uses
in Tables IV and V.  Both the matrix-based and the graph-based stacks are
instrumented through the same :class:`PerfCounters` interface, so the ratios
the paper reports (GraphBLAS count / Lonestar count) are meaningful here in
the same way.

Counter semantics:

``instructions``
    Retired-instruction proxy: each kernel charges a small constant per
    element it processes (documented per kernel).
``l1`` / ``l2`` / ``l3`` / ``dram``
    Number of memory accesses *served by* that level, as classified by the
    analytic cache model in :mod:`repro.perf.memmodel`.
``loops``
    Number of parallel loop nests executed.  Each loop nest is a barrier in
    both OpenMP and Galois, so this is also the barrier count.
``rounds``
    Algorithm-level rounds (one per iteration of the outer while loop of a
    round-based algorithm).  Charged by the algorithm drivers.
``work_items``
    Total items processed across all parallel loops (vertices, edges,
    explicit entries — whatever the loop iterates over).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: Memory-hierarchy level names, nearest first.
LEVELS = ("l1", "l2", "l3", "dram")


@dataclass
class PerfCounters:
    """Accumulating event counters for one simulated execution."""

    instructions: int = 0
    l1: int = 0
    l2: int = 0
    l3: int = 0
    dram: int = 0
    loops: int = 0
    rounds: int = 0
    work_items: int = 0
    #: Bytes moved from DRAM (64-byte lines times dram accesses); convenience
    #: mirror kept for bandwidth modeling and reports.
    dram_bytes: int = 0

    def add_level_hits(self, hits: dict) -> None:
        """Accumulate per-level access counts produced by the cache model."""
        self.l1 += hits.get("l1", 0)
        self.l2 += hits.get("l2", 0)
        self.l3 += hits.get("l3", 0)
        dram = hits.get("dram", 0)
        self.dram += dram
        self.dram_bytes += dram * 64

    def memory_accesses(self) -> int:
        """Total accesses across all levels (the paper's 'memory accesses')."""
        return self.l1 + self.l2 + self.l3 + self.dram

    def snapshot(self) -> "PerfCounters":
        """Return an independent copy of the current counter values."""
        return PerfCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def diff(self, earlier: "PerfCounters") -> "PerfCounters":
        """Return counters accumulated since ``earlier`` (a prior snapshot)."""
        out = PerfCounters()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name) - getattr(earlier, f.name))
        return out

    def merge(self, other: "PerfCounters") -> None:
        """Add ``other``'s counts into this object in place."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict:
        """Counter values as a plain dict, plus the derived totals."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["memory_accesses"] = self.memory_accesses()
        return out

