"""GraphBLAS operations with mask / accumulator / descriptor semantics.

Each function mutates its output object in place, GraphBLAS-style:

>>> mxv(w, A, u, semiring("min_plus"), mask=frontier, desc=REPLACE_COMP)

Semantics follow the GraphBLAS C spec:

1. compute ``T`` from the inputs with the operation's semiring/operator;
2. ``Z = accum(C, T)`` element-wise if an accumulator is given, else ``Z=T``;
3. write ``Z`` into ``C`` through the (optionally complemented, optionally
   structural) mask; with ``REPLACE``, entries of ``C`` outside the mask are
   deleted, otherwise they are kept.

Every operation emits one typed :class:`~repro.engine.events.OpEvent` to the
output's backend (``backend.emit``), which converts it into parallel loops
on the simulated machine and records it in the machine's execution trace.
One GraphBLAS call is at least one full loop nest plus a barrier — the
"lightweight loops" property (§II-D observation 1) the paper's analysis
builds on.

Not to be confused with :mod:`repro.graphblas.ops`, which defines the
*operators* (unary/binary operators, monoids, semirings) these operations
are parameterized by.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.engine.events import OpEvent
from repro.errors import DimensionMismatch, InvalidValue
from repro.graphblas import pipeline
from repro.graphblas.descriptor import DEFAULT_DESC, Descriptor, GrB_ALL
from repro.graphblas.matrix import Matrix
from repro.graphblas.ops import BinaryOp, Monoid, Semiring, UnaryOp, binary
from repro.graphblas.vector import Vector
from repro.sparse import parallel as _parallel
from repro.sparse import plancache
from repro.sparse import spgemm as _spgemm
from repro.sparse import spmv as _spmv
from repro.sparse.csr import CSRMatrix
from repro.sparse.segreduce import scatter_reduce, segment_reduce
from repro.sparse.semiring_ops import BINARY_FNS, BinaryFn

__all__ = [
    "mxv",
    "vxm",
    "mxm",
    "eWiseAdd",
    "eWiseMult",
    "apply",
    "select",
    "assign",
    "extract",
    "reduce_to_scalar",
    "reduce_to_vector",
    "eWiseAddMatrix",
    "eWiseMultMatrix",
    "applyMatrix",
    "extractMatrix",
]


# ----------------------------------------------------------------------
# Mask / write-back machinery
# ----------------------------------------------------------------------
#
# Operands are read through the vectors' backing arrays (``_values`` /
# ``_present``), never through copies.  Two rules keep that safe under
# any aliasing of ``w`` with ``u``, ``v`` or ``mask``: every read happens
# before the single write-back, and nothing stored into ``w`` may share
# memory with another vector's storage.

def _mask_allowed(mask, size: int, desc: Descriptor) -> Optional[np.ndarray]:
    """Dense boolean 'may write here' array, or None for no mask.

    Read-only: a plain structural mask returns the mask's own bitmap.
    """
    if mask is None:
        if desc.mask_comp:
            # Complement of an absent mask forbids every write.
            return np.zeros(size, dtype=bool)
        return None
    if mask.size != size:
        raise DimensionMismatch("mask size does not match output size")
    allowed = mask._present
    if not desc.mask_structure:
        allowed = allowed & mask._values.astype(bool, copy=False)
    if desc.mask_comp:
        allowed = ~allowed
    return allowed


def _no_merge_stamp(out: Vector) -> dict:
    """OpEvent kwargs for an op written without the general merge: the
    values+presence temporaries the merge would have built (an estimate;
    wall-clock attribution only, no charge handler reads it)."""
    return {"fused": True,
            "bytes_not_materialized": out.size * (out.type.itemsize + 1)}


def _write_back(
    out: Vector,
    t_vals: np.ndarray,
    t_present: np.ndarray,
    allowed: Optional[np.ndarray],
    accum: Optional[BinaryOp],
    replace: bool,
    t_nvals: Optional[int] = None,
) -> dict:
    """Steps 2 and 3 of the GraphBLAS execution semantics.

    ``t_vals``/``t_present`` must be arrays the caller owns; ``t_nvals``
    is ``t_present``'s count when the caller holds it.  Returns the
    OpEvent stamp: :func:`_no_merge_stamp` when ``T`` was stored as is.
    """
    if allowed is None and accum is None:
        out._store(np.ascontiguousarray(t_vals), t_present, t_nvals)
        return _no_merge_stamp(out)

    c_vals, c_present = out._values, out._present
    if accum is not None:
        both = c_present & t_present
        only_t = t_present & ~c_present
        z_vals = c_vals.copy()
        if both.any():
            z_vals[both] = accum.apply(c_vals[both], t_vals[both])
        z_vals[only_t] = t_vals[only_t]
        z_present = c_present | t_present
    else:
        z_vals = t_vals
        z_present = t_present

    if allowed is None:
        new_vals = z_vals
        new_present = z_present
    else:
        new_present = allowed & z_present
        if not replace:
            new_present |= c_present & ~allowed
        new_vals = np.where(allowed, z_vals, c_vals)
    out._store(np.ascontiguousarray(new_vals), new_present)
    return {}


def _emit(out, event: OpEvent, **operands) -> None:
    """Charge one operation to ``out``'s backend and feed the ledger."""
    pipeline.note(out.backend.emit(event, out=out, **operands))


def _owned(result, dtype, *sources) -> np.ndarray:
    """``result`` as a ``dtype`` array that shares no memory with
    ``sources`` (operators such as first/second/identity may hand back
    their argument)."""
    result = np.asarray(result)
    aliased = any(np.may_share_memory(result, s) for s in sources)
    return result.astype(dtype, copy=aliased)


def _mask_dense_bytes(mask) -> int:
    """Dense footprint of a vector mask (0 when unmasked)."""
    if mask is None:
        return 0
    return mask.size * mask.type.itemsize


def _is_full_diagonal(csr: CSRMatrix) -> bool:
    """True when the matrix has exactly one entry per row, on the diagonal."""
    if csr.nrows != csr.ncols or csr.nvals != csr.nrows:
        return False
    return bool(np.array_equal(csr.indices, csr.row_ids()))


#: Operand-swapped form of each multiply.  Registry operators that ignore
#: operand order stand for themselves ("pair" does not: its result dtype
#: follows its first operand); anything else gets a wrapper on first use.
_SECOND = BINARY_FNS["second"]
_SWAPPED: Dict[BinaryFn, BinaryOp] = {
    BINARY_FNS["first"]: binary("second"), _SECOND: binary("first"),
    **{BINARY_FNS[name]: binary(name) for name in (
        "plus", "times", "min", "max", "land", "lor", "eq", "ne")}}


def _swapped(mult: BinaryOp) -> BinaryOp:
    """mult with reversed operand order (memoized per operator)."""
    swapped = _SWAPPED.get(mult.fn)
    if swapped is None:
        swapped = _SWAPPED[mult.fn] = BinaryOp(BinaryFn(
            f"{mult.name}_swapped", lambda a, b: mult.apply(b, a)))
    return swapped


# ----------------------------------------------------------------------
# Matrix-vector products
# ----------------------------------------------------------------------

def mxv(
    w: Vector,
    A: Matrix,
    u: Vector,
    semiring: Semiring,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, A (+.x) u)`` (GrB_mxv).

    ``A u`` is ``u' A'``: the same product as :func:`vxm` over the other
    CSR orientation, with the multiply operands swapped back to (A, u).
    """
    return _matvec("mxv", w, u, A, not desc.transpose_a, semiring.add,
                   semiring.mult, _swapped(semiring.mult), mask, accum, desc)


def vxm(
    w: Vector,
    u: Vector,
    A: Matrix,
    semiring: Semiring,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w'<mask> = accum(w, u' (+.x) A)`` (GrB_vxm)."""
    return _matvec("vxm", w, u, A, desc.transpose_a, semiring.add,
                   _swapped(semiring.mult), semiring.mult, mask, accum, desc)


def _oriented(A: Matrix, transposed: bool) -> CSRMatrix:
    return A.transposed_csr() if transposed else A.csr


def _degree_weights(csr: CSRMatrix) -> np.ndarray:
    weights = csr.row_degrees() + 1
    weights.setflags(write=False)
    return weights


def _matvec(kind, w, u, A, flip, add, pull_mult, push_mult, mask, accum,
            desc) -> Vector:
    """``w'<mask> = accum(w, u' (+.x) B)`` with ``B = A'`` when ``flip``.

    A dense ``u`` pulls (SDOT: dot the rows of ``B'`` with ``u``, the
    kernel multiplying as ``pull_mult(B', u)``); a sparse one pushes
    (SAXPY: scatter ``u``'s explicit entries along the rows of ``B``,
    multiplying as ``push_mult(u, B)``).
    """
    # The orientation desc.transpose_a names is resolved up front, so a
    # transpose it needs is built (and charged) before the product.
    _oriented(A, desc.transpose_a)
    n_in, n_out = (A.ncols, A.nrows) if flip else (A.nrows, A.ncols)
    if u.size != n_in:
        raise DimensionMismatch(
            f"u length must match the {n_in} entries {kind} multiplies")
    if w.size != n_out:
        raise DimensionMismatch(
            f"w length must match the {n_out} entries {kind} produces")
    dtype = w.type.dtype
    u_idx = np.flatnonzero(u._present)
    t_nvals = None
    _parallel.clear_fanout()
    if len(u_idx) == u.size:
        bt = _oriented(A, not flip)
        x = u._values
        if pull_mult.fn is _SECOND:
            # The multiply is the gathered input itself (PageRank's
            # PLUS_FIRST vxm, FastSV's MIN_SECOND mxv): skip the matrix
            # values and gather into one per-matrix scratch buffer — the
            # products are consumed before this call returns.
            key = ("pull", x.dtype.str)
            products = plancache.get(bt, "scratch", key)
            if products is None:
                products = x[bt.indices]
                plancache.put(bt, "scratch", key, products)
            else:
                np.take(x, bt.indices, out=products)
            t_vals = segment_reduce(products, bt.row_ids(), bt.nrows, add.fn,
                                    dtype=dtype, row_splits=bt.indptr,
                                    cache_on=bt)
            t_present = bt.row_degrees() > 0
            flops = bt.nvals
        else:
            t_vals, t_present, flops = _spmv.spmv_pull(
                bt, x, add.fn, pull_mult, out_dtype=dtype)
        # degree + 1 per row is structural: memoized on the matrix.
        weights = plancache.cached(bt, "weights", ("pull",),
                                   lambda: _degree_weights(bt))
        mode = "pull"
    else:
        b = _oriented(A, flip)
        y_idx, y_vals, flops = _spmv.vxm_push(
            b, u_idx, u._values[u_idx], add.fn, push_mult, out_dtype=dtype)
        t_vals = np.zeros(w.size, dtype=dtype)
        t_present = np.zeros(w.size, dtype=bool)
        t_vals[y_idx] = y_vals
        t_present[y_idx] = True
        t_nvals = len(y_idx)  # one entry per distinct output index
        weights = b.row_degrees()[u_idx] + 1
        mode = "push"

    stamp = _write_back(w, t_vals, t_present,
                        _mask_allowed(mask, w.size, desc), accum,
                        desc.replace, t_nvals)
    _emit(w, OpEvent(
        kind=kind, items=len(u_idx), flops=flops, mode=mode,
        masked=mask is not None, in_nvals=len(u_idx), out_nvals=w.nvals,
        mask_bytes=_mask_dense_bytes(mask),
        **_parallel.fanout_fields(), **stamp,
    ), mat=A, weights=weights)
    return w


# ----------------------------------------------------------------------
# Matrix-matrix product
# ----------------------------------------------------------------------

def mxm(
    C: Matrix,
    A: Matrix,
    B: Matrix,
    semiring: Semiring,
    mask: Optional[Matrix] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
    method: Optional[str] = None,
) -> Matrix:
    """``C<mask> = accum(C, A (+.x) B)`` (GrB_mxm).

    Matrix masks are *structural* (all the study's algorithms use pattern
    masks); value masks on matrices are not supported.  The multiply method
    (SAXPY vs SDOT) is chosen by the backend unless forced via ``method``.
    """
    if mask is not None and not desc.mask_structure:
        raise InvalidValue("matrix masks are supported as structural only")
    if accum is not None:
        raise InvalidValue("mxm accumulators are not needed by the study")
    a_csr = A.transposed_csr() if desc.transpose_a else A.csr
    b_csr = B.transposed_csr() if desc.transpose_b else B.csr
    if a_csr.ncols != b_csr.nrows:
        raise DimensionMismatch("inner dimensions of A and B differ")
    add, mult = semiring.add, semiring.mult
    dtype = C.type.dtype

    # GaloisBLAS's diagonal-times-matrix fast path (§III-B): scale each row
    # of B by the matching diagonal entry of A, skipping SpGEMM entirely.
    if (C.backend.supports_diag_opt and mask is None
            and _is_full_diagonal(a_csr)):
        diag = np.zeros(a_csr.nrows, dtype=dtype)
        diag[:] = a_csr.value_array(dtype)
        result, flops = _spgemm.spgemm_diag_left(diag, b_csr, mult.fn,
                                                 out_dtype=dtype)
        C.replace_csr(result)
        _emit(C, OpEvent(
            kind="diag_mxm", items=result.nvals, flops=flops,
            out_nvals=result.nvals,
        ), mat2=B)
        return C

    chosen = method or C.backend.choose_mxm_method(a_csr, b_csr, mask)
    _parallel.clear_fanout()
    if mask is not None:
        if chosen == "dot":
            # SDOT wants B transposed; reuse the cache when possible.
            bt = B.csr if desc.transpose_b else B.transposed_csr()
            result, flops = _spgemm.spgemm_masked_dot(
                a_csr, bt, mask.csr, add.fn, mult.fn, out_dtype=dtype)
        else:
            result, flops = _spgemm.spgemm_masked_saxpy(
                a_csr, b_csr, mask.csr, add.fn, mult.fn, out_dtype=dtype)
    else:
        result, flops = _spgemm.spgemm_saxpy(
            a_csr, b_csr, add.fn, mult.fn, out_dtype=dtype)

    if desc.mask_comp:
        raise InvalidValue("complemented matrix masks are not supported")
    C.replace_csr(result)
    _emit(C, OpEvent(
        kind="mxm", items=result.nvals, flops=flops, method=chosen,
        masked=mask is not None, out_nvals=result.nvals,
        **_parallel.fanout_fields(),
    ), mat=A, mat2=B)
    return C


# ----------------------------------------------------------------------
# Element-wise operations
# ----------------------------------------------------------------------

def _finish(kind, w, t_vals, t_present, mask, accum, desc, items=None,
            t_nvals=None, **detail) -> Vector:
    """Write ``T`` back through the mask and emit the pass over ``items``
    entries (default: T's explicit entries, ``t_nvals`` if the caller
    already counted them)."""
    if items is None:
        if t_nvals is None:
            t_nvals = int(np.count_nonzero(t_present))
        items = t_nvals
    stamp = _write_back(w, t_vals, t_present,
                        _mask_allowed(mask, w.size, desc), accum,
                        desc.replace, t_nvals)
    _emit(w, OpEvent(kind=kind, items=items, out_nvals=w.nvals,
                     masked=mask is not None, **detail, **stamp))
    return w


def eWiseAdd(
    w: Vector,
    u: Vector,
    v: Vector,
    op: Union[BinaryOp, Monoid],
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, u (+) v)`` — set *union* of patterns."""
    if u.size != v.size or u.size != w.size:
        raise DimensionMismatch("eWiseAdd operands must have equal size")
    binop = op.as_binary() if isinstance(op, Monoid) else op
    u_p, v_p, u_d, v_d = u._present, v._present, u._values, v._values
    t_nvals = None
    if u.nvals == u.size:
        # All-present u (the drivers' dist/rank accumulators): start from
        # u and combine only where v has entries.
        t_vals = u_d.astype(w.type.dtype)
        t_vals[v_p] = binop.apply(u_d[v_p], v_d[v_p])
        t_present = np.ones(w.size, dtype=bool)
        t_nvals = w.size
    else:
        t_present = u_p | v_p
        t_vals = np.zeros(w.size, dtype=w.type.dtype)
        both = u_p & v_p
        t_vals[both] = binop.apply(u_d[both], v_d[both])
        only_u = u_p & ~v_p
        t_vals[only_u] = u_d[only_u]
        only_v = v_p & ~u_p
        t_vals[only_v] = v_d[only_v]
    return _finish("ewise_add", w, t_vals, t_present, mask, accum, desc,
                   t_nvals=t_nvals)


def eWiseMult(
    w: Vector,
    u: Vector,
    v: Vector,
    op: Union[BinaryOp, Monoid],
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, u (x) v)`` — set *intersection* of patterns."""
    if u.size != v.size or u.size != w.size:
        raise DimensionMismatch("eWiseMult operands must have equal size")
    binop = op.as_binary() if isinstance(op, Monoid) else op
    u_d, v_d = u._values, v._values
    t_present = u._present & v._present
    if t_present.all():
        t_vals = _owned(binop.apply(u_d, v_d), w.type.dtype, u_d, v_d)
    else:
        t_vals = np.zeros(w.size, dtype=w.type.dtype)
        t_vals[t_present] = binop.apply(u_d[t_present], v_d[t_present])
    return _finish("ewise_mult", w, t_vals, t_present, mask, accum, desc)


# ----------------------------------------------------------------------
# Apply / select
# ----------------------------------------------------------------------

def apply(
    w: Vector,
    op: UnaryOp,
    u: Vector,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, op(u))`` (GrB_apply)."""
    if u.size != w.size:
        raise DimensionMismatch("apply operands must have equal size")
    u_d = u._values
    t_present = u._present.copy()
    t_nvals = u.nvals
    if t_nvals == u.size:
        t_vals = _owned(op.apply(u_d), w.type.dtype, u_d)
    else:
        t_vals = np.zeros(w.size, dtype=w.type.dtype)
        t_vals[t_present] = op.apply(u_d[t_present])
    return _finish("apply", w, t_vals, t_present, mask, accum, desc,
                   t_nvals=t_nvals)


_VALUE_SELECTORS = {
    "gt": lambda vals, thunk: vals > thunk,
    "ge": lambda vals, thunk: vals >= thunk,
    "lt": lambda vals, thunk: vals < thunk,
    "le": lambda vals, thunk: vals <= thunk,
    "eq": lambda vals, thunk: vals == thunk,
    "ne": lambda vals, thunk: vals != thunk,
}


def select(
    out: Union[Vector, Matrix],
    op_name: str,
    source: Union[Vector, Matrix],
    thunk=0,
    mask=None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Union[Vector, Matrix]:
    """``out<mask> = select(source, op, thunk)`` (GxB_select).

    Vector selectors: value comparisons (gt/ge/lt/le/eq/ne).  Matrix
    selectors additionally include ``tril``/``triu`` (strict, with ``thunk``
    as the diagonal offset) and ``diag``/``offdiag``.
    """
    if isinstance(source, Vector):
        if op_name not in _VALUE_SELECTORS:
            raise InvalidValue(f"unknown vector selector {op_name!r}")
        pred = _VALUE_SELECTORS[op_name]
        src_present, vals = source._present, source._values
        keep = np.zeros(source.size, dtype=bool)
        keep[src_present] = pred(vals[src_present], thunk)
        t_vals = np.where(keep, vals, 0).astype(out.type.dtype, copy=False)
        return _finish("select", out, t_vals, keep, mask, accum, desc,
                       items=source.nvals)

    csr: CSRMatrix = source.csr
    rows = csr.row_ids()
    if op_name == "tril":
        keep = csr.indices <= rows + thunk
    elif op_name == "triu":
        keep = csr.indices >= rows + thunk
    elif op_name == "diag":
        keep = csr.indices == rows + thunk
    elif op_name == "offdiag":
        keep = csr.indices != rows + thunk
    elif op_name in _VALUE_SELECTORS:
        keep = _VALUE_SELECTORS[op_name](csr.value_array(), thunk)
    else:
        raise InvalidValue(f"unknown matrix selector {op_name!r}")
    result = csr.filter_entries(np.asarray(keep, dtype=bool))
    out.replace_csr(result)
    _emit(out, OpEvent(
        kind="select_matrix", items=csr.nvals, out_nvals=result.nvals,
    ))
    return out


# ----------------------------------------------------------------------
# Assign / extract
# ----------------------------------------------------------------------

def assign(
    w: Vector,
    value,
    indices=GrB_ALL,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask>(indices) = accum(w, value)`` (GrB_assign).

    ``value`` may be a scalar (GrB_Vector_assign_Scalar, as in Algorithm 2's
    initialization and distance update) or a Vector aligned with ``indices``.
    Duplicate indices with a min/max accumulator combine with the
    accumulator, which is the behaviour LAGraph's FastSV relies on.
    """
    scalar = not isinstance(value, Vector)
    if (scalar and indices is GrB_ALL and accum is None
            and not desc.replace and not desc.mask_comp):
        # The drivers' init / level write: with nothing to merge or
        # delete, the scalar lands in place where the mask allows.
        allowed = _mask_allowed(mask, w.size, desc)
        where = slice(None) if allowed is None else allowed
        w._values[where] = value
        w._present[where] = True
        w._nvals = w.size if allowed is None else None
        return _emit_assign(w, w.size, mask, _no_merge_stamp(w))

    t_vals = np.zeros(w.size, dtype=w.type.dtype)
    t_present = np.zeros(w.size, dtype=bool)
    if not scalar:
        src_present = value._present
        if indices is GrB_ALL:
            if value.size != w.size:
                raise DimensionMismatch("assign source must match w's size")
            t_vals[src_present] = value._values[src_present]
            t_present = src_present.copy()
            n_processed = value.nvals
        else:
            idx = np.asarray(indices, dtype=np.int64)
            if value.size != len(idx):
                raise DimensionMismatch("assign source must match index count")
            # Only explicit entries of the source are assigned.
            targets = idx[src_present]
            vals = value._values[src_present].astype(w.type.dtype)
            if accum is not None and accum.name in ("min", "max"):
                fill = (np.iinfo(w.type.dtype).max
                        if w.type.dtype.kind in "iu" else np.inf)
                if accum.name == "max":
                    fill = (np.iinfo(w.type.dtype).min
                            if w.type.dtype.kind in "iu" else -np.inf)
                combine = np.full(w.size, fill, dtype=w.type.dtype)
                scatter_reduce(combine, targets, vals, accum.name)
                touched = np.zeros(w.size, dtype=bool)
                touched[targets] = True
                t_vals[touched] = combine[touched]
                t_present = touched
            else:
                t_vals[targets] = vals
                t_present[targets] = True
            n_processed = len(targets)
    else:
        if indices is GrB_ALL:
            t_vals[:] = value
            t_present[:] = True
            n_processed = w.size
        else:
            idx = np.asarray(indices, dtype=np.int64)
            t_vals[idx] = value
            t_present[idx] = True
            n_processed = len(idx)

    stamp = _write_back(w, t_vals, t_present,
                        _mask_allowed(mask, w.size, desc), accum,
                        desc.replace)
    return _emit_assign(w, n_processed, mask, stamp)


def _emit_assign(w, n_processed, mask, stamp) -> Vector:
    if mask is not None:
        # Both implementations exploit mask sparsity (§III): a masked
        # assign touches the mask's explicit entries, not all of w.
        n_processed = min(n_processed, max(mask.nvals, 1))
    _emit(w, OpEvent(kind="assign", items=n_processed, out_nvals=w.nvals,
                     masked=mask is not None, **stamp))
    return w


def extract(
    w: Vector,
    u: Vector,
    indices,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, u(indices))`` (GrB_extract) — a gather.

    Duplicate indices are allowed (FastSV gathers grandparents with
    ``extract(gp, f, f)``).
    """
    if indices is GrB_ALL:
        idx = np.arange(u.size, dtype=np.int64)
    else:
        idx = np.asarray(indices, dtype=np.int64)
    if w.size != len(idx):
        raise DimensionMismatch("w length must equal the index count")
    t_present = u._present[idx]
    t_vals = np.where(t_present, u._values[idx], 0).astype(w.type.dtype,
                                                           copy=False)
    return _finish("extract", w, t_vals, t_present, mask, accum, desc,
                   items=len(idx), gather=True)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def reduce_to_scalar(source: Union[Vector, Matrix], mon: Monoid):
    """``s = reduce(source)`` over explicit entries (GrB_reduce)."""
    if isinstance(source, Vector):
        vals = source._values[source._present]
        result = mon.reduce_all(vals, dtype=source.type.dtype)
        _emit(source, OpEvent(kind="reduce_vector", items=len(vals)))
        return result
    vals = source.csr.value_array(source.type.dtype)
    result = mon.reduce_all(vals, dtype=source.type.dtype)
    _emit(source, OpEvent(kind="reduce_matrix", items=source.nvals))
    return result


def reduce_to_vector(
    w: Vector,
    A: Matrix,
    mon: Monoid,
    mask: Optional[Vector] = None,
    accum: Optional[BinaryOp] = None,
    desc: Descriptor = DEFAULT_DESC,
) -> Vector:
    """``w<mask> = accum(w, reduce_rows(A))``; transpose_a reduces columns."""
    csr = A.transposed_csr() if desc.transpose_a else A.csr
    if w.size != csr.nrows:
        raise DimensionMismatch("w length must match the reduced dimension")
    from repro.sparse.semiring_ops import SegmentReducer

    rows = csr.row_ids()
    reducer = SegmentReducer(mon.fn)
    # Row expansions are sorted by construction: presorted reduceat path.
    t_vals = reducer.reduce(csr.value_array(w.type.dtype), rows, csr.nrows,
                            dtype=w.type.dtype, row_splits=csr.indptr,
                            cache_on=csr)
    t_present = csr.row_degrees() > 0
    stamp = _write_back(w, t_vals, t_present,
                        _mask_allowed(mask, w.size, desc), accum,
                        desc.replace)
    _emit(w, OpEvent(kind="reduce_matrix_to_vector", items=csr.nvals,
                     out_nvals=w.nvals, **stamp), mat=A)
    return w


# ----------------------------------------------------------------------
# Matrix element-wise operations
# ----------------------------------------------------------------------

def eWiseAddMatrix(
    C: Matrix,
    A: Matrix,
    B: Matrix,
    op: Union[BinaryOp, Monoid],
) -> Matrix:
    """``C = A (+) B`` — pattern *union* on matrices (GrB_eWiseAdd).

    Matrix masks/accumulators are not needed by the study's algorithms and
    are not supported here; the vector forms carry the full semantics.
    """
    if A.nrows != B.nrows or A.ncols != B.ncols:
        raise DimensionMismatch("eWiseAddMatrix operands differ in shape")
    binop = op.as_binary() if isinstance(op, Monoid) else op
    result = _combine_matrices(A.csr, B.csr, binop, union=True,
                               dtype=C.type.dtype)
    C.replace_csr(result)
    _emit(C, OpEvent(
        kind="ewise_matrix", items=A.nvals + B.nvals,
        out_nvals=result.nvals,
    ))
    return C


def eWiseMultMatrix(
    C: Matrix,
    A: Matrix,
    B: Matrix,
    op: Union[BinaryOp, Monoid],
) -> Matrix:
    """``C = A (x) B`` — pattern *intersection* on matrices."""
    if A.nrows != B.nrows or A.ncols != B.ncols:
        raise DimensionMismatch("eWiseMultMatrix operands differ in shape")
    binop = op.as_binary() if isinstance(op, Monoid) else op
    result = _combine_matrices(A.csr, B.csr, binop, union=False,
                               dtype=C.type.dtype)
    C.replace_csr(result)
    _emit(C, OpEvent(
        kind="ewise_matrix", items=A.nvals + B.nvals,
        out_nvals=result.nvals,
    ))
    return C


def applyMatrix(C: Matrix, op: UnaryOp, A: Matrix) -> Matrix:
    """``C = op(A)`` element-wise over A's explicit entries (GrB_apply)."""
    if A.nrows != C.nrows or A.ncols != C.ncols:
        raise DimensionMismatch("applyMatrix operands differ in shape")
    vals = np.asarray(op.apply(A.csr.value_array(C.type.dtype)))
    result = CSRMatrix(A.nrows, A.ncols, A.csr.indptr.copy(),
                       A.csr.indices.copy(),
                       vals.astype(C.type.dtype, copy=False))
    C.replace_csr(result)
    _emit(C, OpEvent(
        kind="ewise_matrix", items=A.nvals, out_nvals=result.nvals,
    ))
    return C


def _combine_matrices(a: CSRMatrix, b: CSRMatrix, binop: BinaryOp,
                      union: bool, dtype) -> CSRMatrix:
    """Key-aligned union/intersection combine of two CSR matrices."""
    from repro.sparse.csr import build_csr

    a_rows = a.row_ids()
    b_rows = b.row_ids()
    a_keys = a_rows * a.ncols + a.indices
    b_keys = b_rows * b.ncols + b.indices
    a_vals = a.value_array(dtype)
    b_vals = b.value_array(dtype)

    pos_in_b = np.searchsorted(b_keys, a_keys)
    pos_clip = np.minimum(pos_in_b, max(len(b_keys) - 1, 0))
    matched = (b_keys[pos_clip] == a_keys) if len(b_keys) else         np.zeros(len(a_keys), dtype=bool)

    both_keys = a_keys[matched]
    both_vals = np.asarray(binop.apply(a_vals[matched],
                                       b_vals[pos_clip[matched]]))
    if union:
        only_a = ~matched
        in_a = np.zeros(len(b_keys), dtype=bool)
        in_a[pos_clip[matched]] = True
        keys = np.concatenate([both_keys, a_keys[only_a], b_keys[~in_a]])
        vals = np.concatenate([both_vals.astype(dtype),
                               a_vals[only_a].astype(dtype),
                               b_vals[~in_a].astype(dtype)])
    else:
        keys, vals = both_keys, both_vals.astype(dtype)
    rows = keys // a.ncols
    cols = keys % a.ncols
    return build_csr(a.nrows, a.ncols, rows, cols, vals, dedup="error")


def extractMatrix(C: Matrix, A: Matrix, row_indices, col_indices) -> Matrix:
    """``C = A(I, J)`` — submatrix extraction (GrB_Matrix_extract).

    ``row_indices`` / ``col_indices`` are index arrays or ``GrB_ALL``;
    duplicate indices are permitted (rows/columns are then replicated).
    """
    from repro.sparse.csr import build_csr

    rows = (np.arange(A.nrows, dtype=np.int64) if row_indices is GrB_ALL
            else np.asarray(row_indices, dtype=np.int64))
    cols = (np.arange(A.ncols, dtype=np.int64) if col_indices is GrB_ALL
            else np.asarray(col_indices, dtype=np.int64))
    if C.nrows != len(rows) or C.ncols != len(cols):
        raise DimensionMismatch("C's shape must match the index counts")
    if len(rows) and (rows.min() < 0 or rows.max() >= A.nrows):
        raise InvalidValue("row index out of range")
    if len(cols) and (cols.min() < 0 or cols.max() >= A.ncols):
        raise InvalidValue("col index out of range")

    # Column remap: old id -> list of new positions (duplicates allowed).
    from repro.sparse.csr import expand_ranges, gather_rows

    src = A.csr
    cat_cols, positions, seg = gather_rows(src, rows)
    n_processed = len(cat_cols)
    if n_processed:
        order = np.argsort(cols, kind="stable")
        sorted_cols = cols[order]
        lo = np.searchsorted(sorted_cols, cat_cols, side="left")
        hi = np.searchsorted(sorted_cols, cat_cols, side="right")
        counts = hi - lo
        keep = counts > 0
        # Expand entries whose column appears multiple times in J.
        rep = counts[keep]
        out_rows = np.repeat(seg[keep], rep)
        out_cols = order[expand_ranges(lo[keep], hi[keep])]
        vals = None
        if src.values is not None:
            vals = np.repeat(src.values[positions[keep]], rep)
    else:
        out_rows = np.empty(0, dtype=np.int64)
        out_cols = np.empty(0, dtype=np.int64)
        vals = None if src.values is None else np.empty(0, src.values.dtype)
    result = build_csr(len(rows), len(cols), out_rows, out_cols,
                       None if vals is None else
                       vals.astype(C.type.dtype, copy=False),
                       dedup="last")
    C.replace_csr(result)
    _emit(C, OpEvent(
        kind="select_matrix", items=n_processed, out_nvals=result.nvals,
    ))
    return C
