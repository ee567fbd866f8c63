"""Backend interface: where GraphBLAS operations meet the machine model.

A backend owns a runtime (OpenMP-style or Galois-style) and converts the
typed :class:`~repro.engine.events.OpEvent` stream emitted by
:mod:`repro.graphblas.operations` into charged parallel loops via
:meth:`BaseBackend.emit`; each event's span is closed against the machine's
:class:`~repro.engine.context.ExecutionContext`, so the trace records what
ran and how many loops it cost.  The two concrete backends differ exactly
where the paper says the implementations differ (§III):

* :class:`repro.suitesparse.SuiteSparseBackend` — vectors are 1-wide sparse
  matrices, every operation materializes a fresh output object, loops run
  under OpenMP static/dynamic scheduling without huge pages;
* :class:`repro.galoisblas.GaloisBLASBackend` — three sparse-vector
  representations chosen per use, custom mxv/vxm (lower per-call overhead),
  a diagonal-SpGEMM fast path, work stealing and huge pages.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.events import GRAPHBLAS_KINDS, OpEvent
from repro.errors import InvalidValue
from repro.graphblas.vector import (
    REP_DENSE_ARRAY,
    REP_ORDERED_MAP,
    REP_SS_SPARSE,
    REP_UNORDERED_LIST,
)
from repro.perf.costmodel import Schedule
from repro.runtime.base import Runtime
from repro.sparse.csr import CSRMatrix

#: Instruction proxy per semiring multiply-add in a sparse kernel.
INSTR_PER_FLOP = 3.0
#: Instruction proxy per element in an element-wise pass.
INSTR_PER_ELEM = 2.0

#: Kinds whose result is a scalar — nothing materialized in the trace.
_SCALAR_RESULT_KINDS = frozenset({"reduce_vector", "reduce_matrix"})


class BaseBackend:
    """Shared cost-accounting logic for GraphBLAS backends."""

    name = "base"
    default_vector_rep = REP_DENSE_ARRAY
    #: Fixed time overhead per GraphBLAS call (argument checking,
    #: descriptor handling, dispatch) in nanoseconds; scale-independent.
    call_overhead_ns = 20_000.0
    #: Whether mxm detects diagonal operands and takes the scaling fast
    #: path (GaloisBLAS's optimization, §III-B).
    supports_diag_opt = False

    def __init__(self, runtime: Runtime):
        self.runtime = runtime
        self.machine = runtime.machine

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    def charge_vector_alloc(self, vec):
        """Track a new vector's modeled storage."""
        return self.machine.allocator.allocate(
            vec.nbytes_modeled() or vec.size, f"Vector:{vec.label}")

    def charge_matrix_alloc(self, mat):
        """Track a new matrix's modeled storage."""
        return self.machine.allocator.allocate(
            mat.nbytes_modeled() or 64, f"Matrix:{mat.label}")

    def recharge_matrix(self, mat, old_bytes: int, new_bytes: int) -> None:
        """Swap a matrix's tracked allocation for its new storage size."""
        self.machine.allocator.free(mat._allocation)
        mat._allocation = self.machine.allocator.allocate(
            max(new_bytes, 64), f"Matrix:{mat.label}")

    def release(self, allocation) -> None:
        """Free a tracked allocation (GrB_free)."""
        self.machine.allocator.free(allocation)

    def charge_transpose_build(self, mat):
        """Building the CSC view: read the CSR once, scatter into the new.

        Returns the allocation handle so the matrix can release it when the
        cached transpose is dropped.
        """
        nvals = mat.csr.nvals
        nbytes = mat.csr.nbytes
        rt = self.runtime
        ctx = self.machine.context
        ctx.open_span()
        try:
            rt.parallel(
                n_items=nvals,
                instr_per_item=4.0,
                streams=[rt.seq(nbytes, nvals), rt.rand(nbytes, nvals)],
            )
        finally:
            ctx.close_span(OpEvent(
                kind="transpose_build", label=mat.label, items=nvals,
                bytes_materialized=nbytes))
        return self.machine.allocator.allocate(
            nbytes, f"Matrix:{mat.label}:transpose")

    # ------------------------------------------------------------------
    # The op-event protocol
    # ------------------------------------------------------------------
    def emit(self, event: OpEvent, out, *,
             mat=None, mat2=None, weights=None) -> OpEvent:
        """Charge one typed op event's loops and record it in the trace.

        Dispatches on ``event.kind`` to the matching cost handler, charges
        the fixed per-call overhead, and closes the event's span so the
        context stamps it with the loops attributed to this operation and
        with the output bytes it materialized.  ``out``'s modeled footprint
        is evaluated once here and handed to the handlers.  Returns the
        recorded event (``event`` itself).
        """
        kind = event.kind
        if kind not in GRAPHBLAS_KINDS:
            raise InvalidValue(
                f"GraphBLAS backends emit only GraphBLAS kinds, got "
                f"{kind!r}")
        out_bytes = self._vector_bytes(out)
        ctx = self.machine.context
        ctx.open_span()
        try:
            if kind in ("mxv", "vxm"):
                self._charge_mxv(event, out, out_bytes, mat, weights)
            elif kind == "mxm":
                self._charge_mxm(event, out, mat, mat2)
            elif kind == "diag_mxm":
                self._charge_diag_mxm(event, out, mat2)
            elif kind == "ewise_matrix":
                self._charge_ewise_matrix(event, out)
            elif kind == "select_matrix":
                self._charge_select_matrix(event, out)
            elif kind == "reduce_matrix":
                self._charge_reduce_matrix(event, out)
            else:
                self._charge_elementwise(event, out, out_bytes)
            # Per-call overhead (dispatch, descriptor handling) is a fixed
            # cost of the real machine, independent of the dataset's scale.
            self.machine.charge_loop(
                schedule=Schedule.SERIAL, barrier=False,
                fixed_ns=self.call_overhead_ns)
        finally:
            ctx.close_span(event, bytes_materialized=(
                self._materialized_bytes(kind, out_bytes)))
        return event

    @staticmethod
    def _materialized_bytes(kind: str, out_bytes: int) -> int:
        """Output bytes an operation materialized (trace attribution)."""
        return 0 if kind in _SCALAR_RESULT_KINDS else out_bytes

    # --- matrix-vector products ---------------------------------------
    def _charge_mxv(self, event: OpEvent, out, vec_bytes, mat, weights):
        rt = self.runtime
        flops = event.flops
        mat_bytes = mat.csr.nbytes
        dense_bytes = out.size * out.type.itemsize
        streams = []
        if event.mode == "pull":
            # One pass over all rows of the matrix plus random gathers from
            # the dense input vector.
            streams.append(rt.seq(mat_bytes, flops))
            streams.append(rt.rand(dense_bytes, flops,
                                   elem_bytes=out.type.itemsize))
            n_items = out.size
        else:
            # Gather the frontier's rows.  A sparse frontier hops between
            # rows (strided); a frontier covering most rows degenerates to
            # a sequential pass over the CSR.
            if event.in_nvals * 2 >= mat.csr.nrows:
                streams.append(rt.seq(mat_bytes, flops))
            else:
                streams.append(rt.strided(mat_bytes, flops))
            # Every produced candidate hits the result accumulator before
            # masking filters it (hash/dense accumulator traffic) — the
            # extra memory accesses Table IV attributes to the matrix API.
            streams.append(rt.rand(vec_bytes,
                                   max(event.out_nvals, flops, 1)))
            n_items = max(event.in_nvals, 1)
        if event.masked and event.mask_bytes:
            # The mask is consulted per produced candidate (SuiteSparse
            # fuses the mask into the multiply; the accesses remain).
            streams.append(rt.rand(event.mask_bytes, flops))
        streams.extend(self._output_pass_streams(
            vec_bytes, event.masked, event.out_nvals))
        rt.parallel(
            n_items=n_items,
            instr_per_item=1.0,
            extra_instr=int(flops * INSTR_PER_FLOP),
            streams=streams,
            weights=weights,
            schedule=self._spmv_schedule(event.mode),
        )
        self._post_op_materialize(out, vec_bytes, max(event.out_nvals, 1))

    # --- matrix-matrix product ------------------------------------------
    def _charge_mxm(self, event: OpEvent, out, mat, mat2):
        rt = self.runtime
        flops = event.flops
        a_bytes = mat.csr.nbytes
        b_bytes = mat2.csr.nbytes
        out_bytes = out.csr.nbytes
        streams = [rt.seq(a_bytes, mat.csr.nvals),
                   rt.strided(b_bytes, flops)]
        instr = flops * INSTR_PER_FLOP
        if event.method == "saxpy":
            # The expansion buffer (Gustavson accumulator / hash table
            # traffic): written and re-read once per flop.
            buffer_bytes = min(flops, out.csr.ncols) * 12
            streams.append(rt.rand(buffer_bytes, 2 * flops, elem_bytes=12))
            instr += flops * 2.0
        # Write the materialized output.
        streams.append(rt.seq(out_bytes, max(event.out_nvals, 1)))
        row_weights = np.diff(mat.csr.indptr) if mat.csr.nrows else None
        rt.parallel(
            n_items=max(mat.csr.nrows, 1),
            instr_per_item=1.0,
            extra_instr=int(instr),
            streams=streams,
            weights=row_weights,
            schedule=self._mxm_schedule(),
        )

    def _charge_diag_mxm(self, event: OpEvent, out, mat2):
        """GaloisBLAS's diagonal fast path: one scaling pass over B."""
        rt = self.runtime
        flops = event.flops
        b_bytes = mat2.csr.nbytes
        rt.parallel(
            n_items=max(mat2.csr.nrows, 1),
            instr_per_item=1.0,
            extra_instr=int(flops * 1.0),
            streams=[rt.seq(b_bytes, flops), rt.seq(out.csr.nbytes, flops)],
            weights=np.diff(mat2.csr.indptr) if mat2.csr.nrows else None,
        )

    # --- element-wise passes ---------------------------------------------
    def _charge_elementwise(self, event: OpEvent, out, vec_bytes):
        rt = self.runtime
        n = max(event.items, 1)
        # Masked/gather passes touch scattered positions of the operand;
        # unmasked passes stream it.
        scattered = event.gather or event.masked
        streams = [rt.rand(vec_bytes, n) if scattered
                   else rt.seq(vec_bytes, n)]
        streams.extend(self._output_pass_streams(vec_bytes, event.masked, n))
        rt.parallel(
            n_items=n,
            instr_per_item=INSTR_PER_ELEM + (self._rep_lookup_instr(out)),
            streams=streams,
        )
        self._post_op_materialize(out, vec_bytes, n)

    def _charge_ewise_matrix(self, event: OpEvent, out):
        rt = self.runtime
        n_processed = event.items
        rt.parallel(
            n_items=max(n_processed, 1),
            instr_per_item=INSTR_PER_ELEM,
            streams=[rt.seq(out.csr.nbytes, max(n_processed, 1)),
                     rt.seq(out.csr.nbytes, max(event.out_nvals, 1))],
        )

    def _charge_select_matrix(self, event: OpEvent, out):
        rt = self.runtime
        n_processed = event.items
        rt.parallel(
            n_items=max(n_processed, 1),
            instr_per_item=INSTR_PER_ELEM,
            streams=[rt.seq(out.csr.nbytes, n_processed),
                     rt.seq(out.csr.nbytes, max(event.out_nvals, 1))],
        )

    def _charge_reduce_matrix(self, event: OpEvent, out):
        rt = self.runtime
        n_processed = event.items
        rt.parallel(
            n_items=max(n_processed, 1),
            instr_per_item=INSTR_PER_ELEM,
            streams=[rt.seq(out.csr.nbytes, n_processed)],
        )

    # ------------------------------------------------------------------
    # Representation-dependent helpers (overridden per backend)
    # ------------------------------------------------------------------
    def _vector_bytes(self, vec) -> int:
        if hasattr(vec, "csr"):
            return vec.csr.nbytes
        return max(vec.nbytes_modeled(), 64)

    def _rep_lookup_instr(self, vec) -> float:
        """Extra instructions per element for the vector representation."""
        rep = getattr(vec, "rep", None)
        if rep == REP_ORDERED_MAP:
            return 6.0  # tree/sorted lookup
        if rep == REP_SS_SPARSE:
            return 3.0  # binary search / merge bookkeeping
        return 0.0

    def _output_pass_streams(self, vec_bytes: int, masked: bool,
                             n_processed: int):
        """Streams of the write-back pass (plus the mask read if masked).

        SuiteSparse and GaloisBLAS both exploit mask sparsity: the pass
        touches the processed entries (scattered through the output), not
        the whole vector.
        """
        n = max(n_processed, 1)
        if masked:
            return [self.runtime.rand(vec_bytes, n),
                    self.runtime.rand(max(n, 64), n, elem_bytes=1)]
        return [self.runtime.seq(vec_bytes, n)]

    def _post_op_materialize(self, out, out_bytes: int,
                             n_touched: int) -> None:
        """Hook: SuiteSparse materializes each result into a new object."""

    def _spmv_schedule(self, mode: str):
        return None  # runtime default

    def _mxm_schedule(self):
        return None  # runtime default

    # ------------------------------------------------------------------
    # Method selection
    # ------------------------------------------------------------------
    def choose_mxm_method(self, a_csr: CSRMatrix, b_csr: CSRMatrix,
                          mask) -> str:
        """SAXPY vs SDOT, following SuiteSparse's inspector heuristic:
        masked products with a usable output pattern go dot; unmasked
        products go SAXPY (Gustavson/hash)."""
        if mask is not None:
            return "dot"
        return "saxpy"
