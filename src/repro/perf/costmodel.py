"""Simulated-time model: counters + scheduling → seconds at ``p`` threads.

Every parallel loop a runtime executes is recorded as a :class:`LoopCost`.
Simulated execution time at ``p`` threads is the sum over loops of

``max(parallel_work(p) * imbalance(p), largest_indivisible_item) * time_scale
+ fixed + barrier(p)``

where ``parallel_work(p)`` divides compute by ``p`` and divides each memory
level's service time by that level's effective parallel speedup (private L1/L2
scale linearly; shared L3 and DRAM saturate), ``imbalance(p)`` models the
loop's scheduling policy (OpenMP static blocks vs dynamic chunks vs Galois
work stealing), and the largest-item term captures skew that no scheduler can
split — unless the loop used edge tiling, which is exactly the Lonestar
optimization the paper's Figure 3(d) isolates.  One loop's term is priced
in exactly one place, :meth:`CostModel.price`.

This Brent-style model is the substitute for the paper's real 56-core
machine; see DESIGN.md §3 for the justification.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidValue
from repro.perf.counters import LEVELS
from repro.perf.memmodel import CacheHierarchy

#: Thread counts for which static-schedule imbalance is precomputed (the
#: Figure 2 sweep points).  Other counts fall back to the nearest point.
THREAD_POINTS = (1, 2, 4, 8, 16, 32, 56)


class Schedule(enum.Enum):
    """Loop scheduling policy, which determines the imbalance model."""

    SERIAL = "serial"
    #: OpenMP ``schedule(static)``: contiguous blocks, no rebalancing.
    STATIC = "static"
    #: OpenMP ``schedule(dynamic)`` / SuiteSparse self-scheduling.
    DYNAMIC = "dynamic"
    #: Galois chunked work stealing.
    STEAL = "steal"


@dataclass(frozen=True)
class CostParams:
    """Tunable constants of the machine model (all times in nanoseconds)."""

    ns_per_instruction: float = 0.4
    #: Per-loop fork/join + barrier cost: ``base + slope * log2(p)``.  This
    #: is a *fixed* (scale-independent) cost: round-dominated algorithms pay
    #: it per round on the real machine regardless of input size, so the
    #: harness does not multiply it by the dataset's time scale.
    barrier_base_ns: float = 2000.0
    barrier_slope_ns: float = 500.0
    #: Effective parallel speedup cap per memory level, nearest first.
    level_speedup_cap: tuple = (float("inf"), float("inf"), 88.0, 72.0)
    #: DRAM latency multiplier when the runtime backs memory with huge pages
    #: (Galois reserves them; SuiteSparse performed better without — §IV).
    huge_page_dram_factor: float = 0.85
    #: Heavy-tail test: a loop's largest item is treated as scale-invariant
    #: ("a vertex is a vertex") unless it exceeds this multiple of the mean
    #: item weight, in which case it is a power-law hub whose size grows
    #: with the graph.
    heavy_tail_ratio: float = 32.0


@dataclass(slots=True)
class LoopCost:
    """Cost record for one parallel loop nest (or serial code segment)."""

    schedule: Schedule
    instructions: int = 0
    hits: dict = field(default_factory=dict)
    n_items: int = 0
    #: Fraction of the loop's work held by its largest indivisible item,
    #: already adjusted for the dataset's item-count scaling.
    max_item_frac: float = 0.0
    #: Static-schedule imbalance factor, precomputed per THREAD_POINTS entry.
    static_imbalance: dict = field(default_factory=dict)
    #: Whether the loop ends in a barrier (parallel loops do; serial doesn't).
    barrier: bool = True
    huge_pages: bool = False
    #: Scale-independent cost (API call overhead, scheduler dispatch) added
    #: on top of the scaled work time.
    fixed_ns: float = 0.0


def static_block_imbalance(weights: np.ndarray, thread_points=THREAD_POINTS) -> dict:
    """Imbalance of an OpenMP static block partition, per thread count.

    The items are split into ``p`` contiguous blocks of (nearly) equal item
    count; the imbalance is the heaviest block's weight divided by the mean.
    """
    n = len(weights)
    if n == 0:
        return {p: 1.0 for p in thread_points}
    csum = np.concatenate(([0.0], np.cumsum(weights, dtype=np.float64)))
    total = float(csum[-1])
    out = {}
    for p in thread_points:
        if p <= 1 or total == 0.0 or n <= p:
            out[p] = 1.0
            continue
        bounds = np.linspace(0, n, p + 1).round().astype(np.int64)
        block_sums = csum[bounds[1:]] - csum[bounds[:-1]]
        out[p] = float(block_sums.max() / (total / p))
    return out


class CostModel:
    """Prices :class:`LoopCost` records at a thread count."""

    def __init__(self, hierarchy: CacheHierarchy, params: CostParams = CostParams()):
        self.hierarchy = hierarchy
        self.params = params
        self._latency = dict(zip(LEVELS, hierarchy.spec.latency_ns))
        self._caps = dict(zip(LEVELS, params.level_speedup_cap))
        self._loop_terms: dict = {}

    def loop_terms(self, threads: int) -> tuple:
        """The model's constants at ``threads`` threads, memoized:

        ``(latency, huge_page_latency, divisors, barrier_ns, point)`` —
        per-level service latency without / with huge pages, per-level
        effective parallel divisor, the barrier's fixed cost, and the
        :data:`THREAD_POINTS` key static imbalance is looked up under.
        :meth:`price` reads them instead of re-deriving them per loop.
        """
        terms = self._loop_terms.get(threads)
        if terms is None:
            if threads < 1:
                raise InvalidValue("threads must be >= 1")
            p = self.params
            huge = dict(self._latency)
            huge["dram"] *= p.huge_page_dram_factor
            terms = self._loop_terms[threads] = (
                self._latency, huge,
                {level: min(threads, cap)
                 for level, cap in self._caps.items()},
                p.barrier_base_ns
                + p.barrier_slope_ns * math.log2(max(threads, 2)),
                min(THREAD_POINTS, key=lambda point: abs(point - threads)))
        return terms

    def price(self, loop: LoopCost, threads: int) -> tuple:
        """``(work_ns, fixed_ns)`` of one loop at ``threads`` threads.

        ``work_ns`` is the loop's scaled work (the caller multiplies it by
        the dataset's time scale): ``max(parallel_work * imbalance,
        serial_work * max_item_frac)`` for a parallel loop, the serial work
        for a serial one or at one thread.  ``fixed_ns`` is the loop's
        scale-independent cost plus the barrier's if it ends in one.  This
        is the model's only loop pricer: :meth:`Machine.charge_loop`,
        :meth:`Machine.simulated_seconds` and :func:`repro.perf.trace.explain`
        all sum these two terms, per loop, as ``work_ns * time_scale +
        fixed_ns``.
        """
        latency, huge_latency, divisors, barrier_ns, point = (
            self.loop_terms(threads))
        if loop.huge_pages:
            latency = huge_latency
        compute_ns = loop.instructions * self.params.ns_per_instruction
        mem_serial = 0.0
        mem_parallel = 0.0
        for level, count in loop.hits.items():
            t = count * latency[level]
            mem_serial += t
            mem_parallel += t / divisors[level]
        work_ns = compute_ns + mem_serial
        serial = loop.schedule is Schedule.SERIAL
        if not serial and threads != 1:
            parallel_ns = compute_ns / threads + mem_parallel
            if loop.static_imbalance:  # only a STATIC schedule fills it
                parallel_ns *= loop.static_imbalance.get(point, 1.0)
            work_ns = max(parallel_ns, work_ns * loop.max_item_frac)
        fixed_ns = loop.fixed_ns
        if loop.barrier and not serial:
            fixed_ns += barrier_ns
        return work_ns, fixed_ns
