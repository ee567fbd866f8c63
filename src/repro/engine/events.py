"""The typed op-event protocol shared by every execution stack.

An :class:`OpEvent` describes one operation the system under test executed —
a GraphBLAS call (``mxv``, ``ewise_add``, ...), a Galois loop (``do_all``,
``for_each``), or a runtime-level happening (``alloc``, ``barrier``,
``round``).  Both API stacks emit the *same* event type into the machine's
:class:`~repro.engine.context.ExecutionContext`, which is what lets
:mod:`repro.engine.analysis` derive the paper's differential-analysis
attribution (loops, materialized bytes, bulk items, rounds) from one common
stream instead of from two incompatible charging protocols.

Events are validated at construction — an unknown kind or a negative
count raises :class:`repro.errors.InvalidValue` immediately, a typo'd field
name raises ``TypeError`` — and immutable to callers afterwards.

Build-once protocol: an emitter constructs exactly one :class:`OpEvent` per
operation and hands it to
:meth:`~repro.engine.context.ExecutionContext.close_span`, which stamps the
span's ``loops`` / ``barrier`` / ``round_id`` (plus the emitter stamps in
:data:`EMITTER_STAMPS`) into that same object and records it.  Nothing is
copied, so one recorded event costs one construction and one validation;
an event object can be recorded only once.
"""

from __future__ import annotations

from operator import attrgetter

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

#: Every field of an :class:`OpEvent`, in ``repr`` order.
FIELDS = ("kind", "label", "items", "flops", "bytes_materialized", "loops",
          "round_id", "barrier", "mode", "masked", "gather", "method",
          "in_nvals", "out_nvals", "mask_bytes", "fused",
          "bytes_not_materialized", "shards", "threads")

#: Fields the emitter closing a span may stamp (a backend knows its
#: output's modeled footprint only after the operation ran; the fused
#: ablation backend marks its continuations).  ``loops``, ``barrier`` and
#: ``round_id`` belong to the context; every other field is fixed at
#: construction.
EMITTER_STAMPS = frozenset({"bytes_materialized", "fused",
                            "bytes_not_materialized"})

_new = object.__new__
_set = object.__setattr__
_values = attrgetter(*FIELDS)


class _Slots:
    """Storage layout of :class:`OpEvent` without the write guard: the
    constructor fills an instance of this class with plain (fast) slot
    stores and then seals it by switching its class."""

    __slots__ = FIELDS + ("_recorded",)


class OpEvent(_Slots):
    """One operation of the system under test, as recorded in the trace.

    ``loops``, ``round_id`` and ``barrier`` are stamped by the
    :class:`~repro.engine.context.ExecutionContext` when the emitter's span
    closes; emitters fill in the operation-shaped fields.  Compares, hashes
    and prints by field values, like the frozen dataclass it replaced.

    Fields
    ------
    kind:
        Operation kind; must be one of :data:`OP_KINDS`.
    label:
        Free-form emitter label ("bfs_round", "kcore_below_k", ...).
    items:
        Items the operation processed (frontier size, entries touched, ...).
    flops:
        Semiring multiply-adds performed (0 for element-wise passes).
    bytes_materialized:
        Bytes of output the operation materialized (0 for scalar reductions
        and fused continuations).
    loops:
        Parallel loop nests charged while this event's span was open.
    round_id:
        Value of the round counter when the event was recorded.
    barrier:
        Whether any charged loop ended in a barrier.
    mode:
        SpMV direction for mxv/vxm: "push" or "pull" ("" otherwise).
    masked:
        Whether a mask was applied.
    gather:
        Whether the pass gathers scattered operand positions (extract).
    method:
        SpGEMM method for mxm: "saxpy" or "dot" ("" otherwise).
    in_nvals:
        Explicit entries of the sparse input (mxv/vxm frontier).
    out_nvals:
        Explicit entries of the output after the operation.
    mask_bytes:
        Dense footprint of the mask consulted per candidate (0 unmasked).
    fused:
        Either a modeled continuation of the previous loop (the
        galoisblas-fused ablation backend), or a GraphBLAS operation
        written without the general merge (no mask, no accumulator: numpy
        data movement skipped; modeled charges unchanged).
    bytes_not_materialized:
        Estimate of the intermediate bytes a ``fused`` event did not write
        and re-read — for a no-merge write-back, the merge's values and
        presence temporaries (wall-clock attribution only; 0 otherwise).
    shards:
        Shard count of a blocked kernel fan-out (0 for monolithic kernels).
        Like ``seconds`` elsewhere, wall-clock observability only: no charge
        handler reads ``shards``/``threads``, so modeled accounting is
        identical at every fan-out geometry.
    threads:
        Kernel threads the fan-out actually used (0 for monolithic kernels).
    """

    __slots__ = ()

    def __new__(cls, kind, label="", items=0, flops=0, bytes_materialized=0,
                loops=0, round_id=0, barrier=False, mode="", masked=False,
                gather=False, method="", in_nvals=0, out_nvals=0,
                mask_bytes=0, fused=False, bytes_not_materialized=0,
                shards=0, threads=0):
        self = _new(_Slots)
        self.kind = kind
        self.label = label
        self.items = items
        self.flops = flops
        self.bytes_materialized = bytes_materialized
        self.loops = loops
        self.round_id = round_id
        self.barrier = barrier
        self.mode = mode
        self.masked = masked
        self.gather = gather
        self.method = method
        self.in_nvals = in_nvals
        self.out_nvals = out_nvals
        self.mask_bytes = mask_bytes
        self.fused = fused
        self.bytes_not_materialized = bytes_not_materialized
        self.shards = shards
        self.threads = threads
        self._recorded = False
        if (kind not in OP_KINDS or mode not in _MODES
                or method not in _METHODS
                or items < 0 or flops < 0 or bytes_materialized < 0
                or loops < 0 or round_id < 0 or in_nvals < 0
                or out_nvals < 0 or mask_bytes < 0
                or bytes_not_materialized < 0 or shards < 0 or threads < 0):
            _reject(self)
        self.__class__ = cls  # sealed: attribute writes raise from here on
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"OpEvent is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"OpEvent is immutable (cannot delete {name!r})")

    def as_dict(self) -> dict:
        """Field name -> value, in :data:`FIELDS` order;
        ``OpEvent(**{**event.as_dict(), ...})`` is an edited copy."""
        return dict(zip(FIELDS, _values(self)))

    def __repr__(self):
        return "OpEvent(" + ", ".join(
            f"{name}={value!r}" for name, value in self.as_dict().items()
        ) + ")"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self):
        return hash(_values(self))

    def __reduce__(self):  # copy / pickle rebuild (and re-validate) by field
        return OpEvent, _values(self)


def _reject(event) -> None:
    """Name the field that failed :class:`OpEvent`'s construction check."""
    if event.kind not in OP_KINDS:
        raise InvalidValue(
            f"unknown op-event kind {event.kind!r}; known kinds: "
            f"{', '.join(sorted(OP_KINDS))}")
    for name in _COUNT_FIELDS:
        value = getattr(event, name)
        if value < 0:
            raise InvalidValue(
                f"OpEvent.{name} must be non-negative, got {value!r}")
    if event.mode not in _MODES:
        raise InvalidValue(
            f"OpEvent.mode must be one of {_MODES}, got {event.mode!r}")
    raise InvalidValue(
        f"OpEvent.method must be one of {_METHODS}, got {event.method!r}")


def record_stamps(event: OpEvent, loops: int, barrier: bool, round_id: int,
                  emitter_stamps: dict) -> None:
    """Write a closing span's stamps into ``event`` (context-only).

    ``loops`` / ``barrier`` / ``round_id`` come from the context's own
    counters; ``emitter_stamps`` are checked here (name in
    :data:`EMITTER_STAMPS`, value non-negative), so the recorded event
    satisfies the construction-time guarantees without a second object.
    """
    if event._recorded:
        raise InvalidValue(
            "this OpEvent is already recorded; build one per operation")
    for name, value in emitter_stamps.items():
        if name not in EMITTER_STAMPS:
            raise InvalidValue(
                f"emitters may stamp only {sorted(EMITTER_STAMPS)}, "
                f"not {name!r}")
        if value < 0:
            raise InvalidValue(
                f"OpEvent.{name} must be non-negative, got {value!r}")
        _set(event, name, value)
    _set(event, "loops", loops)
    if barrier:
        _set(event, "barrier", True)
    _set(event, "round_id", round_id)
    _set(event, "_recorded", True)
