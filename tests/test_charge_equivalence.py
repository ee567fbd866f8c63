"""``Machine.charge_loop`` against the public model it inlines.

``charge_loop`` classifies a loop's streams, updates the counters and adds
the loop's simulated time in one frame.  :meth:`CacheHierarchy.classify`,
:class:`LoopCost` and :meth:`CostModel.loop_time_ns` stay the readable
specification of what it computes, and this test holds it to them with
``==``: simulated seconds, counters, loop records and the op-event stream
must be *bit*-identical, because the checked-in modeled rows are sums of
these terms in exactly this order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExecutionContext, OpEvent
from repro.perf.costmodel import LoopCost, Schedule, static_block_imbalance
from repro.perf.counters import PerfCounters
from repro.perf.machine import Machine
from repro.perf.memmodel import AccessPattern, AccessStream

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


class Reference:
    """The charge path spelled out through the public model, one loop at
    a time, adding sequentially."""

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
            for level, count in machine.hierarchy.classify(stream).items():
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
        self.elapsed_ns += machine.cost_model.loop_time_ns(
            loop, machine.threads, machine.time_scale)


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
    assert machine.simulated_seconds(threads=8) == (
        machine.cost_model.total_seconds(reference.records, 8, time_scale))
