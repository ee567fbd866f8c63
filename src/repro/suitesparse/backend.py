"""The SuiteSparse-flavored GraphBLAS backend."""

from __future__ import annotations

from repro.graphblas.backend import BaseBackend
from repro.graphblas.vector import REP_SS_SPARSE
from repro.perf.costmodel import Schedule
from repro.perf.machine import Machine
from repro.runtime.openmp import OpenMPRuntime

#: SuiteSparse's on-demand allocation slack: amortized growth plus the
#: temporary copies its non-destructive kernels keep (drives the large-graph
#: MRSS gap in Table III).
SS_ALLOC_SLACK = 1.35


class SuiteSparseBackend(BaseBackend):
    """GraphBLAS kernels with SuiteSparse's runtime and storage behaviour."""

    name = "suitesparse"
    default_vector_rep = REP_SS_SPARSE
    #: SuiteSparse routes vector ops through its matrix machinery (vectors
    #: are 1-wide matrices, §III-A), so per-call overhead is higher than a
    #: dedicated vector kernel's (nanoseconds, scale-independent).
    call_overhead_ns = 80_000.0
    supports_diag_opt = False

    def __init__(self, machine: Machine):
        super().__init__(OpenMPRuntime(machine))

    def _spmv_schedule(self, mode: str):
        # SuiteSparse self-schedules its matrix kernels on top of OpenMP
        # (§III-A), so both SpMV styles behave like dynamic scheduling.
        return Schedule.DYNAMIC

    def _mxm_schedule(self):
        # SpGEMM rows are self-scheduled as well.
        return Schedule.DYNAMIC

    def _charge_mxm(self, event, out, mat, mat2):
        """SuiteSparse SpGEMM additionally holds the inspector's per-row
        flop/size arrays and assembles C in a workspace before moving it
        into place — the allocation churn behind the tc/ktruss OOMs of
        Table II on the biggest inputs."""
        inspector = self.machine.allocator.allocate(
            (mat.csr.nvals + mat.csr.nrows) * 8, "mxm:inspector")
        workspace = self.machine.allocator.allocate(
            max(out.csr.nbytes, event.out_nvals * 12, 64), "mxm:workspace")
        super()._charge_mxm(event, out, mat, mat2)
        self.machine.allocator.free(workspace)
        self.machine.allocator.free(inspector)

    def _post_op_materialize(self, out, out_bytes: int,
                             n_touched: int) -> None:
        """Every SuiteSparse op builds its result in a fresh object and
        moves it into place — an extra write pass (over the entries the op
        produced) plus allocator churn."""
        rt = self.runtime
        temp = self.machine.allocator.allocate(
            min(out_bytes, n_touched * 16), f"{out.label}:temp")
        rt.parallel(
            n_items=n_touched,
            instr_per_item=1.0,
            streams=[rt.seq(out_bytes, n_touched)],
        )
        self.machine.allocator.free(temp)
