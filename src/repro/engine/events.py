"""The typed op-event protocol shared by every execution stack.

An :class:`OpEvent` describes one operation the system under test executed —
a GraphBLAS call (``mxv``, ``ewise_add``, ...), a Galois loop (``do_all``,
``for_each``), or a runtime-level happening (``alloc``, ``barrier``,
``round``).  Both API stacks emit the *same* event type into the machine's
:class:`~repro.engine.context.ExecutionContext`, which is what lets
:mod:`repro.engine.analysis` derive the paper's differential-analysis
attribution (loops, materialized bytes, bulk items, rounds) from one common
stream instead of from two incompatible charging protocols.

Events are frozen and validated at construction: an unknown kind or a
negative count raises :class:`repro.errors.InvalidValue` immediately, where
a typo'd ``charge_op(**info)`` kwarg used to be silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidValue

#: GraphBLAS operation kinds (one per charged call family).
GRAPHBLAS_KINDS = frozenset({
    "mxv", "vxm", "mxm", "diag_mxm",
    "ewise_add", "ewise_mult", "ewise_matrix", "apply",
    "select", "select_matrix", "assign", "extract",
    "reduce_vector", "reduce_matrix", "reduce_matrix_to_vector",
})

#: Galois loop-construct kinds.
GALOIS_KINDS = frozenset({"do_all", "for_each"})

#: Runtime-level kinds: tracked allocations with first touch, transpose
#: (CSC view) builds, scheduler barriers, algorithm-round markers, and
#: ``loop`` — a parallel loop charged outside any emitter span.
RUNTIME_KINDS = frozenset({
    "alloc", "transpose_build", "barrier", "round", "loop",
})

#: Every kind an :class:`OpEvent` may carry.
OP_KINDS = GRAPHBLAS_KINDS | GALOIS_KINDS | RUNTIME_KINDS

_MODES = ("", "push", "pull")
_METHODS = ("", "saxpy", "dot")

#: Fields validated as non-negative counts.
_COUNT_FIELDS = ("items", "flops", "bytes_materialized", "loops",
                 "round_id", "in_nvals", "out_nvals", "mask_bytes",
                 "bytes_not_materialized", "shards", "threads")


@dataclass(frozen=True)
class OpEvent:
    """One operation of the system under test, as recorded in the trace.

    ``loops``, ``round_id`` and ``barrier`` are stamped by the
    :class:`~repro.engine.context.ExecutionContext` when the emitter's span
    closes; emitters fill in the operation-shaped fields.
    """

    #: Operation kind; must be one of :data:`OP_KINDS`.
    kind: str
    #: Free-form emitter label ("bfs_round", "kcore_below_k", ...).
    label: str = ""
    #: Items the operation processed (frontier size, entries touched, ...).
    items: int = 0
    #: Semiring multiply-adds performed (0 for element-wise passes).
    flops: int = 0
    #: Bytes of output the operation materialized (0 for scalar reductions
    #: and fused continuations).
    bytes_materialized: int = 0
    #: Parallel loop nests charged while this event's span was open.
    loops: int = 0
    #: Value of the round counter when the event was recorded.
    round_id: int = 0
    #: Whether any charged loop ended in a barrier.
    barrier: bool = False
    # --- kind-specific detail ------------------------------------------
    #: SpMV direction for mxv/vxm: "push" or "pull" ("" otherwise).
    mode: str = ""
    #: Whether a mask was applied.
    masked: bool = False
    #: Whether the pass gathers scattered operand positions (extract).
    gather: bool = False
    #: SpGEMM method for mxm: "saxpy" or "dot" ("" otherwise).
    method: str = ""
    #: Explicit entries of the sparse input (mxv/vxm frontier).
    in_nvals: int = 0
    #: Explicit entries of the output after the operation.
    out_nvals: int = 0
    #: Dense footprint of the mask consulted per candidate (0 unmasked).
    mask_bytes: int = 0
    #: Either a modeled continuation of the previous loop (the
    #: galoisblas-fused ablation backend), or a GraphBLAS operation
    #: written without the general merge (no mask, no accumulator: numpy
    #: data movement skipped; modeled charges unchanged).
    fused: bool = False
    #: Estimate of the intermediate bytes a ``fused`` event did not write
    #: and re-read — for a no-merge write-back, the merge's values and
    #: presence temporaries (wall-clock attribution only; 0 otherwise).
    bytes_not_materialized: int = 0
    #: Shard count of a blocked kernel fan-out (0 for monolithic kernels).
    #: Like ``seconds`` elsewhere, wall-clock observability only: no charge
    #: handler reads these, so modeled accounting is identical at every
    #: fan-out geometry.
    shards: int = 0
    #: Kernel threads the fan-out actually used (0 for monolithic kernels).
    threads: int = 0

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise InvalidValue(
                f"unknown op-event kind {self.kind!r}; known kinds: "
                f"{', '.join(sorted(OP_KINDS))}")
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if value < 0:
                raise InvalidValue(
                    f"OpEvent.{name} must be non-negative, got {value!r}")
        if self.mode not in _MODES:
            raise InvalidValue(
                f"OpEvent.mode must be one of {_MODES}, got {self.mode!r}")
        if self.method not in _METHODS:
            raise InvalidValue(
                f"OpEvent.method must be one of {_METHODS}, "
                f"got {self.method!r}")
