"""The simulated machine a system under test runs on.

A :class:`Machine` bundles the counters, the analytic cache hierarchy, the
cost model and the tracking allocator, and accumulates the per-loop cost
records from which simulated execution time is derived.  One fresh Machine is
created per experiment cell (system × application × graph), mirroring one
process run in the paper's methodology.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

import numpy as np

from repro import errors, faults
from repro.engine.context import ExecutionContext
from repro.perf.allocator import TrackingAllocator
from repro.perf.counters import PerfCounters
from repro.perf.costmodel import (
    CostModel,
    CostParams,
    LoopCost,
    Schedule,
    static_block_imbalance,
)
from repro.perf.memmodel import (
    LINE_BYTES,
    XEON_GOLD_5120,
    AccessPattern,
    AccessStream,
    CacheHierarchy,
)

#: The paper's experiments use 56 threads unless otherwise mentioned (§IV).
DEFAULT_THREADS = 56

#: The paper's machine has 187 GB of DRAM (§IV).
DRAM_CAPACITY_BYTES = 187 * 2**30


class Machine:
    """Counters + cache model + cost model + allocator for one run."""

    def __init__(
        self,
        spec=XEON_GOLD_5120,
        params: CostParams = CostParams(),
        threads: int = DEFAULT_THREADS,
        byte_scale: float = 1.0,
        time_scale: float = 1.0,
        timeout_seconds: Optional[float] = None,
        allocator: Optional[TrackingAllocator] = None,
    ):
        self.hierarchy = CacheHierarchy(spec, byte_scale=byte_scale)
        self.cost_model = CostModel(self.hierarchy, params)
        self.counters = PerfCounters()
        self.threads = threads
        #: Multiplier applied when reporting seconds, so that runs on the
        #: 1/scale-sized inputs land near paper-scale magnitudes.
        self.time_scale = time_scale
        self.timeout_seconds = timeout_seconds
        self.allocator = allocator or TrackingAllocator(
            capacity_bytes=DRAM_CAPACITY_BYTES / byte_scale
        )
        #: Op-event recorder every emitter (backend, runtime) flows through.
        self.context = ExecutionContext()
        self._loops: list = []
        self._elapsed_ns_default = 0.0
        #: Real-time watchdog: ``time.monotonic()`` deadline after which
        #: loop charging raises WallClockExceeded (None = no watchdog).
        self.wall_deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_loop(
        self,
        schedule: Schedule,
        instructions: int = 0,
        streams: Iterable[AccessStream] = (),
        n_items: int = 0,
        weights: Optional[Sequence] = None,
        max_item_weight: Optional[float] = None,
        huge_pages: bool = False,
        barrier: bool = True,
        fixed_ns: float = 0.0,
    ) -> LoopCost:
        """Record one parallel loop nest (or serial segment).

        ``weights`` are per-item relative costs (e.g. out-degrees) used for
        the load-balance model; ``max_item_weight`` overrides the largest
        indivisible unit (edge tiling caps it at the tile size).

        The imbalance terms are adjusted for the dataset's scale: at paper
        scale the loop has ``time_scale`` times more items, so unless the
        largest item is a heavy-tail hub (whose size grows with the graph),
        its *fraction* of the loop shrinks proportionally and the block
        imbalance of a static schedule averages out.
        """
        faults.trip("kernel")
        threads = self.threads
        latency, huge_latency, divisors, barrier_ns, point = (
            self.cost_model.loop_terms(threads))
        serial = schedule is Schedule.SERIAL
        instructions = int(instructions)
        n_items = int(n_items)
        barrier = barrier and not serial

        # CacheHierarchy.classify per stream, merged into one dict whose
        # keys keep the order of first appearance (the time sums below run
        # in that order, and float addition is order-sensitive).
        hits: dict = {}
        if streams:
            byte_scale = self.hierarchy.byte_scale
            l1_cap, l2_cap, l3_cap = self.hierarchy.capacities
            for stream in streams:
                n = stream.n_accesses
                if n == 0:
                    continue
                effective = stream.array_bytes * byte_scale
                if effective <= l1_cap:
                    hits["l1"] = hits.get("l1", 0) + n
                    continue
                level = ("l2" if effective <= l2_cap
                         else "l3" if effective <= l3_cap else "dram")
                pattern = stream.pattern
                if pattern is AccessPattern.RANDOM:
                    hits[level] = hits.get(level, 0) + n
                    continue
                if pattern is AccessPattern.STRIDED:
                    far = (n + 1) // 2
                else:  # SEQUENTIAL: one line fill per LINE_BYTES touched
                    far = min(n, -(-n // max(
                        1, LINE_BYTES // stream.elem_bytes)))
                hits[level] = hits.get(level, 0) + far
                hits["l1"] = hits.get("l1", 0) + (n - far)

        max_item_frac = 0.0
        static_imb: dict = {}
        if weights is not None and len(weights) > 0:
            warr = np.asarray(weights, dtype=np.float64)
            total = float(warr.sum())
            if total > 0:
                biggest = (float(warr.max()) if max_item_weight is None
                           else min(float(warr.max()), max_item_weight))
                mean = total / len(warr)
                heavy = biggest > self.cost_model.params.heavy_tail_ratio * mean
                max_item_frac = min(1.0, biggest / total)
                if not heavy:
                    max_item_frac /= self.time_scale
            if schedule is Schedule.STATIC:
                static_imb = static_block_imbalance(warr)
                if total > 0 and not heavy and self.time_scale > 1:
                    damp = self.time_scale ** 0.5
                    static_imb = {
                        p: 1.0 + (v - 1.0) / damp
                        for p, v in static_imb.items()
                    }

        loop = LoopCost(schedule, instructions, hits, n_items, max_item_frac,
                        static_imb, barrier, huge_pages, fixed_ns)
        self._loops.append(loop)

        counters = self.counters
        counters.instructions += instructions
        if hits:
            counters.add_level_hits(hits)
        counters.work_items += n_items
        if not serial:
            counters.loops += 1
        self.context.on_loop(n_items, barrier, not serial)

        # CostModel.loop_time_ns(loop, threads, time_scale), term by term.
        compute_ns = instructions * self.cost_model.params.ns_per_instruction
        mem_serial = 0.0
        mem_parallel = 0.0
        if huge_pages:
            latency = huge_latency
        for level, count in hits.items():
            t = count * latency[level]
            mem_serial += t
            mem_parallel += t / divisors[level]
        work_ns = compute_ns + mem_serial
        if not serial and threads != 1:
            parallel_ns = compute_ns / threads + mem_parallel
            if static_imb:  # only a STATIC schedule fills it
                parallel_ns *= static_imb.get(point, 1.0)
            work_ns = max(parallel_ns, work_ns * max_item_frac)
        self._elapsed_ns_default += (
            work_ns * self.time_scale
            + (fixed_ns + barrier_ns if barrier else fixed_ns))
        self.check_timeout()
        return loop

    def round(self) -> None:
        """Mark one algorithm-level round (outer iteration)."""
        self.counters.rounds += 1
        self.context.on_round(self.counters.rounds)

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------
    def simulated_seconds(self, threads: Optional[int] = None) -> float:
        """Simulated execution time, at paper-scale magnitudes.

        Work time is multiplied by the dataset's time scale; per-loop fixed
        costs (barriers, call overheads) are scale-independent.
        """
        if threads is None or threads == self.threads:
            return self._elapsed_ns_default * 1e-9
        return self.cost_model.total_seconds(self._loops, threads,
                                             self.time_scale)

    def check_timeout(self) -> None:
        """Raise past either time budget: simulated (TO) or wall clock (ERR).

        The simulated budget models the paper's 2 h limit and raises
        ``errors.TimeoutError``; the wall-clock deadline guards the harness
        itself and raises ``errors.WallClockExceeded``.
        """
        if (self.wall_deadline is not None
                and time.monotonic() > self.wall_deadline):
            raise errors.WallClockExceeded(
                "cell exceeded its real-time watchdog budget "
                "(wall_deadline passed)")
        if self.timeout_seconds is None:
            return
        elapsed = self.simulated_seconds()
        if elapsed > self.timeout_seconds:
            raise errors.TimeoutError(
                f"simulated time {elapsed:.1f}s exceeds timeout "
                f"{self.timeout_seconds:.0f}s",
                elapsed_seconds=elapsed,
            )

    def mrss_bytes(self) -> int:
        """High-water resident set size (Table III)."""
        return self.allocator.mrss_bytes()

    @property
    def loop_records(self):
        """The per-loop cost records accumulated so far (read-only view)."""
        return tuple(self._loops)

    def reset_measurement(self) -> None:
        """Clear counters and loop records (e.g. after graph loading).

        The paper excludes graph loading and preprocessing from reported
        runtimes but *includes* it in MRSS, so the allocator's peak is kept.
        """
        self.counters.reset()
        self.context.reset()
        self._loops.clear()
        self._elapsed_ns_default = 0.0
