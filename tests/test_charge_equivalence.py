"""``Machine.charge_loop`` and the re-pricing paths against a spelled-out
specification of the model.

``charge_loop`` classifies a loop's streams (:meth:`CacheHierarchy.hits`),
updates the counters and prices the loop (:meth:`CostModel.price`) in one
frame; :meth:`Machine.simulated_seconds` and :func:`explain` re-price the
recorded loops through the same ``price``.  The readable specification
lives here, as :func:`classify` and :func:`loop_time_ns`, and this test
holds all three paths to it with ``==``: simulated seconds at every
Figure 2 thread count, counters, loop records and the op-event stream must
be *bit*-identical, because the checked-in modeled rows are sums of these
terms in exactly this order.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExecutionContext, OpEvent
from repro.perf.costmodel import (
    THREAD_POINTS,
    LoopCost,
    Schedule,
    static_block_imbalance,
)
from repro.perf.counters import LEVELS, PerfCounters
from repro.perf.machine import Machine
from repro.perf.memmodel import LINE_BYTES, AccessPattern, AccessStream
from repro.perf.trace import explain

#: Working sets resident in L1, L2, L3 and DRAM at ``byte_scale`` 1.
RESIDENT_BYTES = [16 * 2**10, 512 * 2**10, 8 * 2**20, 64 * 2**20]

streams = st.builds(
    AccessStream,
    array_bytes=st.sampled_from(RESIDENT_BYTES),
    n_accesses=st.integers(0, 10**6),
    pattern=st.sampled_from(list(AccessPattern)),
    elem_bytes=st.sampled_from([1, 4, 8, 12, 128]))

loops = st.fixed_dictionaries({
    "schedule": st.sampled_from(list(Schedule)),
    "instructions": st.integers(0, 10**7),
    "streams": st.lists(streams, max_size=4),
    "n_items": st.integers(0, 10**6),
    "weights": st.one_of(st.none(), st.lists(
        st.floats(0, 1e6, allow_nan=False), max_size=70)),
    "max_item_weight": st.one_of(st.none(), st.floats(1, 1e4)),
    "huge_pages": st.booleans(),
    "barrier": st.booleans(),
    "fixed_ns": st.sampled_from([0.0, 15_000.0, 180_000.0]),
})


def residency(hierarchy, array_bytes):
    """The level a working set of ``array_bytes`` (scaled) lives in."""
    effective = array_bytes * hierarchy.byte_scale
    for level, cap in zip(LEVELS, hierarchy.capacities):
        if effective <= cap:
            return level
    return "dram"


def classify(hierarchy, stream):
    """One stream's accesses split across the hierarchy's levels."""
    n = stream.n_accesses
    if n == 0:
        return {}
    level = residency(hierarchy, stream.array_bytes)
    if level == "l1":
        return {"l1": n}
    if stream.pattern is AccessPattern.RANDOM:
        return {level: n}
    if stream.pattern is AccessPattern.STRIDED:
        far = (n + 1) // 2
        return {level: far, "l1": n - far}
    # SEQUENTIAL: one line fill per LINE_BYTES of data touched.
    elems_per_line = max(1, LINE_BYTES // stream.elem_bytes)
    line_fills = min(n, -(-n // elems_per_line))  # ceil division
    return {level: line_fills, "l1": n - line_fills}


def loop_time_ns(machine, loop, threads):
    """Full simulated duration of one loop at ``threads`` threads."""
    params = machine.cost_model.params
    latency = dict(zip(LEVELS, machine.hierarchy.spec.latency_ns))
    caps = dict(zip(LEVELS, params.level_speedup_cap))
    compute_ns = loop.instructions * params.ns_per_instruction
    mem_serial = 0.0
    mem_parallel = 0.0
    for level, count in loop.hits.items():
        lat = latency[level]
        if level == "dram" and loop.huge_pages:
            lat *= params.huge_page_dram_factor
        t = count * lat
        mem_serial += t
        mem_parallel += t / min(threads, caps[level])
    serial_ns = compute_ns + mem_serial
    if loop.schedule is Schedule.SERIAL or threads == 1:
        work_ns = serial_ns
    else:
        imbalance = 1.0
        if loop.schedule is Schedule.STATIC and loop.static_imbalance:
            point = min(THREAD_POINTS, key=lambda p: abs(p - threads))
            imbalance = loop.static_imbalance.get(point, 1.0)
        work_ns = max((compute_ns / threads + mem_parallel) * imbalance,
                      serial_ns * loop.max_item_frac)
    fixed_ns = loop.fixed_ns
    if loop.barrier and loop.schedule is not Schedule.SERIAL:
        fixed_ns += (params.barrier_base_ns
                     + params.barrier_slope_ns * math.log2(max(threads, 2)))
    return work_ns * machine.time_scale + fixed_ns


class Reference:
    """The charge path spelled out through the specification above, one
    loop at a time, adding sequentially."""

    def __init__(self, machine):
        self.machine = machine
        self.counters = PerfCounters()
        self.context = ExecutionContext()
        self.records = []
        self.elapsed_ns = 0.0

    def charge_loop(self, schedule, instructions, streams, n_items, weights,
                    max_item_weight, huge_pages, barrier, fixed_ns):
        machine = self.machine
        hits = {}
        for stream in streams:
            for level, count in classify(machine.hierarchy, stream).items():
                hits[level] = hits.get(level, 0) + count

        max_item_frac = 0.0
        static_imb = {}
        if weights is not None and len(weights) > 0:
            warr = np.asarray(weights, dtype=np.float64)
            total = float(warr.sum())
            if total > 0:
                biggest = (float(warr.max()) if max_item_weight is None
                           else min(float(warr.max()), max_item_weight))
                heavy = (biggest > machine.cost_model.params.heavy_tail_ratio
                         * (total / len(warr)))
                max_item_frac = min(1.0, biggest / total)
                if not heavy:
                    max_item_frac /= machine.time_scale
            if schedule is Schedule.STATIC:
                static_imb = static_block_imbalance(warr)
                if total > 0 and not heavy and machine.time_scale > 1:
                    damp = machine.time_scale ** 0.5
                    static_imb = {p: 1.0 + (v - 1.0) / damp
                                  for p, v in static_imb.items()}

        parallel = schedule is not Schedule.SERIAL
        loop = LoopCost(
            schedule=schedule, instructions=instructions, hits=hits,
            n_items=n_items, max_item_frac=max_item_frac,
            static_imbalance=static_imb, barrier=barrier and parallel,
            huge_pages=huge_pages, fixed_ns=fixed_ns)
        self.records.append(loop)
        self.counters.instructions += instructions
        self.counters.add_level_hits(hits)
        self.counters.work_items += n_items
        self.counters.loops += parallel
        self.context.on_loop(n_items=n_items, barrier=loop.barrier,
                             parallel=parallel)
        self.elapsed_ns += loop_time_ns(machine, loop, machine.threads)

    def seconds(self, threads):
        total_ns = 0.0
        for loop in self.records:
            total_ns += loop_time_ns(self.machine, loop, threads)
        return total_ns * 1e-9


@settings(max_examples=300, deadline=None)
@given(loops=st.lists(loops, min_size=1, max_size=5),
       threads=st.sampled_from([1, 4, 56]),
       time_scale=st.sampled_from([1.0, 1000.0]),
       in_span=st.booleans())
def test_charge_loop_equals_the_public_model(loops, threads, time_scale,
                                             in_span):
    machine = Machine(threads=threads, time_scale=time_scale)
    reference = Reference(machine)
    for side in (machine, reference):
        if in_span:
            side.context.open_span()
        for loop in loops:
            side.charge_loop(**loop)
        if in_span:
            side.context.close_span(OpEvent(kind="apply", items=1))

    assert machine.simulated_seconds() == reference.elapsed_ns * 1e-9
    assert machine.counters == reference.counters
    assert list(machine.loop_records) == reference.records
    assert machine.context.events == reference.context.events
    # Same key order too: thread sweeps re-walk the records' hit dicts,
    # and a float sum depends on the order of its terms.
    assert ([list(r.hits) for r in machine.loop_records]
            == [list(r.hits) for r in reference.records])
    for p in THREAD_POINTS:
        expected = reference.seconds(p)
        assert machine.simulated_seconds(p) == expected
        assert explain(machine, p).total_seconds == expected
