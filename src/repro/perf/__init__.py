"""Deterministic machine model used in place of the paper's 56-core Xeon.

The paper measures wall-clock time and CapeScripts hardware counters on a
4-socket Intel Xeon Gold 5120.  CPython cannot express 56-thread shared-memory
parallelism, so this package substitutes a deterministic performance model:

* :class:`~repro.perf.counters.PerfCounters` — machine-wide event counters
  (instructions, per-level cache accesses, parallel loops, barriers) that both
  software stacks increment identically;
* :class:`~repro.perf.memmodel.CacheHierarchy` — an analytic cache model whose
  ``hits`` converts declared access streams into per-level hit counts;
* :class:`~repro.perf.costmodel.CostModel` — whose ``price`` turns one loop's
  counts and scheduling information into its simulated time at a given
  thread count (the only place a loop is priced);
* :class:`~repro.perf.allocator.TrackingAllocator` — a tracking allocator
  whose high-water mark stands in for the paper's MRSS measurements;
* :class:`~repro.perf.machine.Machine` — the bundle of all of the above that a
  system under test runs on.
"""

from repro.perf.counters import PerfCounters, LEVELS
from repro.perf.memmodel import AccessPattern, AccessStream, CacheHierarchy, XEON_GOLD_5120
from repro.perf.costmodel import CostModel, LoopCost, Schedule
from repro.perf.allocator import Allocation, TrackingAllocator
from repro.perf.machine import Machine

__all__ = [
    "AccessPattern",
    "AccessStream",
    "Allocation",
    "CacheHierarchy",
    "CostModel",
    "LEVELS",
    "LoopCost",
    "Machine",
    "PerfCounters",
    "Schedule",
    "TrackingAllocator",
    "XEON_GOLD_5120",
]
