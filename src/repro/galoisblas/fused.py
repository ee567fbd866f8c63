"""A loop-fusing GraphBLAS backend: the paper's future-work ablation.

The paper's conclusion (§VII) argues that limitations (i) lightweight loops
and (ii) materialization "may be solved using restructuring compiler
technology": a compiler that fuses consecutive GraphBLAS calls into one
loop would eliminate the extra passes, loop launches and intermediate
write-backs — at the price of breaking the separation of concerns between
algorithm developers and system programmers.

:class:`FusedGaloisBLASBackend` models that hypothetical compiler: when an
element-wise operation immediately follows another fusable operation, it is
charged as a *continuation of the same loop* — no loop launch, no API-call
overhead, no separate write-back pass; only the marginal per-element
instructions.  Matrix products and reductions still break the fusion chain
(a compiler cannot fuse across an SpGEMM's data dependence).

The ablation benchmark (``benchmarks/bench_ablation.py``) measures how much
of the Lonestar advantage this recovers: on round-dominated workloads most
of the per-round overhead disappears, but the bulk-synchronous rounds
themselves — limitation (iv) — remain, which is exactly the paper's point
that compiler technology addresses only limitations (i) and (ii).
"""

from __future__ import annotations

from repro.galoisblas.backend import GaloisBLASBackend
from repro.graphblas.backend import INSTR_PER_ELEM
from repro.perf.costmodel import Schedule
from repro.perf.machine import Machine

#: Cost events a restructuring compiler could fuse into the previous pass.
FUSABLE = frozenset({
    "ewise_add", "ewise_mult", "apply", "assign", "select", "extract",
    "reduce_vector",
})


class FusedGaloisBLASBackend(GaloisBLASBackend):
    """GaloisBLAS plus hypothetical compiler-driven loop fusion."""

    name = "galoisblas-fused"

    def __init__(self, machine: Machine):
        super().__init__(machine)
        self._chain_open = False
        self.fused_calls = 0

    def emit(self, event, out, *, mat=None, mat2=None, weights=None):
        """Charge an op event, fusing it into the previous pass if possible.

        A fused continuation materializes nothing: the values flow in
        registers, so the recorded event carries ``bytes_materialized=0``.
        """
        if event.kind in FUSABLE and self._chain_open:
            # Fused continuation: values flow in registers; only the
            # marginal per-element instructions are charged, with no loop
            # launch, call overhead or write-back pass.
            self.fused_calls += 1
            n = max(event.items, 1)
            ctx = self.machine.context
            ctx.open_span()
            try:
                self.machine.charge_loop(
                    schedule=Schedule.STEAL,
                    instructions=int(n * INSTR_PER_ELEM),
                    n_items=n,
                    huge_pages=True,
                    barrier=False,
                    fixed_ns=0.0,
                )
            finally:
                # Stamp the continuation so trace analysis can count fused
                # calls and the intermediate bytes the fusion skipped.
                ctx.close_span(
                    event, fused=True,
                    bytes_not_materialized=self._materialized_bytes(
                        event.kind, self._vector_bytes(out)))
            return event
        recorded = super().emit(event, out, mat=mat, mat2=mat2,
                                weights=weights)
        self._chain_open = (event.kind in FUSABLE
                            or event.kind in ("mxv", "vxm"))
        return recorded
