"""Time-breakdown analysis of a simulated run (the CapeScripts role).

The paper uses Intel CapeScripts to attribute time to compute vs memory
levels.  :func:`explain` does the equivalent for a completed run on the
simulated machine: it splits the modeled time into compute, per-cache-level
memory service, load imbalance and fixed per-loop costs, which is how the
calibration in EXPERIMENTS.md was diagnosed.

>>> breakdown = explain(machine)
>>> print(breakdown.render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.perf.counters import LEVELS
from repro.perf.costmodel import Schedule
from repro.perf.machine import Machine


@dataclass
class TimeBreakdown:
    """Where a run's simulated seconds went (paper-scale)."""

    threads: int
    total_seconds: float
    #: Ideal parallel compute time (instructions / p).
    compute_seconds: float
    #: Memory service time per level at the modeled parallel speedups.
    memory_seconds: Dict[str, float]
    #: Extra time from scheduling imbalance / indivisible items.
    imbalance_seconds: float
    #: Scale-independent costs: loop launches, barriers, call overheads.
    fixed_seconds: float
    n_loops: int
    n_serial_segments: int

    def render(self) -> str:
        """Human-readable breakdown with share bars."""
        rows = [f"time breakdown at {self.threads} threads "
                f"({self.total_seconds:.4f} s total, {self.n_loops} "
                f"parallel loops):"]
        entries = [("compute", self.compute_seconds)]
        entries += [(f"memory:{lvl}", self.memory_seconds.get(lvl, 0.0))
                    for lvl in LEVELS]
        entries += [("imbalance", self.imbalance_seconds),
                    ("fixed (launch/barrier/call)", self.fixed_seconds)]
        for name, sec in entries:
            share = sec / self.total_seconds if self.total_seconds else 0.0
            bar = "#" * int(round(share * 40))
            rows.append(f"  {name:28s} {sec:10.4f} s {share:6.1%} {bar}")
        return "\n".join(rows)


def explain(machine: Machine, threads: Optional[int] = None) -> TimeBreakdown:
    """Decompose a machine's recorded loops into time categories.

    Latencies and parallel divisors come from :meth:`CostModel.loop_terms`
    and each loop's work and fixed time from :meth:`CostModel.price`, so
    ``total_seconds`` equals ``machine.simulated_seconds(threads)``.
    ``threads < 1`` raises :class:`~repro.errors.InvalidValue`.
    """
    p = machine.threads if threads is None else threads
    model = machine.cost_model
    latency, huge_latency, divisors, _, _ = model.loop_terms(p)
    ns_per_instruction = model.params.ns_per_instruction
    scale = machine.time_scale

    compute = 0.0
    memory = {lvl: 0.0 for lvl in LEVELS}
    balanced = 0.0
    actual_body = 0.0
    fixed = 0.0
    total = 0.0
    n_loops = 0
    n_serial = 0
    for loop in machine.loop_records:
        serial = loop.schedule is Schedule.SERIAL
        if serial:
            n_serial += 1
        else:
            n_loops += 1
        comp = loop.instructions * ns_per_instruction
        if not serial:
            comp /= p
        compute += comp
        lat = huge_latency if loop.huge_pages else latency
        mem_here = 0.0
        for level, count in loop.hits.items():
            t = count * lat[level]
            if not serial:
                t /= divisors[level]
            memory[level] += t
            mem_here += t
        balanced += comp + mem_here
        work_ns, fixed_ns = model.price(loop, p)
        actual_body += work_ns
        fixed += fixed_ns
        total += work_ns * scale + fixed_ns

    imbalance = max(actual_body - balanced, 0.0)
    return TimeBreakdown(
        threads=p,
        total_seconds=total * 1e-9,
        compute_seconds=compute * scale * 1e-9,
        memory_seconds={lvl: t * scale * 1e-9 for lvl, t in memory.items()},
        imbalance_seconds=imbalance * scale * 1e-9,
        fixed_seconds=fixed * 1e-9,
        n_loops=n_loops,
        n_serial_segments=n_serial,
    )
