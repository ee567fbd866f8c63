#!/usr/bin/env python
"""Per-event bookkeeping micro-costs on the current host, as one JSON line.

Usage::

    PYTHONPATH=src python scripts/event_overhead.py

Three numbers behind ``engine.us_per_event`` (perfbench) and the budget in
docs/MODEL.md "Wall-clock vs modeled time", each the best of ``REPEATS``
timed batches in microseconds per operation:

* ``event_record_us`` — build one ``OpEvent`` and record it through
  ``ExecutionContext.open_span`` / ``close_span`` (backend stamp included);
* ``charge_loop_us`` — one ``Machine.charge_loop`` with 0, 2 and 4 access
  streams (0 is the per-call-overhead charge every ``emit`` makes);
* ``nvals_after_mutation_us`` — ``Vector.nvals`` right after a
  ``set_element`` on a road-USA-W-sized vector.

Informational: a shared CI host wanders by ±10 %, so nothing is asserted
here — ``tests/test_event_overhead.py`` guards the same paths by counts.
"""

import json
import sys
import timeit

from repro.engine import ExecutionContext, OpEvent
from repro.galoisblas import GaloisBLASBackend
from repro.graphblas import INT64, Vector
from repro.perf.costmodel import Schedule
from repro.perf.machine import Machine
from repro.runtime.base import Runtime

BATCH = 20_000
REPEATS = 5
#: Vertices of the road-USA-W twin (the ``rounds-road`` workload's graph).
VECTOR_SIZE = 6_300


def _best_us(fn) -> float:
    return round(min(timeit.repeat(fn, number=BATCH, repeat=REPEATS))
                 / BATCH * 1e6, 3)


def event_record_us() -> float:
    ctx = ExecutionContext()

    def one():
        ctx.open_span()
        ctx.close_span(
            OpEvent(kind="vxm", items=3, flops=7, mode="push", masked=True,
                    in_nvals=3, out_nvals=5, mask_bytes=25_200),
            bytes_materialized=50_400)

    return _best_us(one)


def charge_loop_us(n_streams: int) -> float:
    machine = Machine(timeout_seconds=7200.0)
    nbytes = VECTOR_SIZE * 8
    streams = [Runtime.seq(nbytes, 5), Runtime.rand(nbytes, 7),
               Runtime.strided(64 * nbytes, 9),
               Runtime.rand(nbytes, 5, elem_bytes=1)][:n_streams]
    if not streams:
        def one():
            machine.charge_loop(Schedule.SERIAL, barrier=False,
                                fixed_ns=150_000.0)
    else:
        def one():
            machine.charge_loop(Schedule.STEAL, instructions=21,
                                streams=streams, n_items=5, huge_pages=True,
                                fixed_ns=180_000.0)

    machine.context.open_span()  # attribute the loops to one span
    return _best_us(one)


def nvals_after_mutation_us() -> float:
    vec = Vector(GaloisBLASBackend(Machine()), INT64, VECTOR_SIZE)
    state = [0]

    def mutate():
        state[0] = (state[0] + 1) % VECTOR_SIZE
        vec.set_element(state[0], 1)

    def mutate_and_ask():
        mutate()
        return vec.nvals

    return round(max(_best_us(mutate_and_ask) - _best_us(mutate), 0.0), 3)


def main() -> int:
    print(json.dumps({
        "event_record_us": event_record_us(),
        "charge_loop_us": {str(n): charge_loop_us(n) for n in (0, 2, 4)},
        "nvals_after_mutation_us": nvals_after_mutation_us(),
        "python": sys.version.split()[0],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
