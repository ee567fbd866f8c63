"""Sparse general matrix-matrix multiplication (SpGEMM) kernels.

SuiteSparse implements SpGEMM with two families (§III-A of the paper):

* **SAXPY** (Gustavson / hash): enumerate explicit entries of ``A`` by row
  and accumulate scaled rows of ``B`` into the output row.  Our vectorized
  equivalent expands ``A``'s entries into contributions, then combines them
  with a key sort — the memory behaviour (an intermediate proportional to
  the flop count) is the same as a hash accumulator's traffic.
* **SDOT**: transpose ``B`` and compute each output entry as a dot product
  of two sorted sparse rows.  Needs the output pattern up front, which is
  why it shines for *masked* multiplication (e.g. the SandiaDot triangle
  counting variant: ``C<L> = L * U'``).

All kernels return flop counts for the machine model; allocation of the
result is charged by the GraphBLAS backends that call them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.engine import cancel
from repro.errors import DimensionMismatch
from repro.sparse.csr import CSRMatrix, INDEX_DTYPE, PTR_DTYPE, gather_rows
from repro.sparse.join import cast_values, masked_row_join
from repro.sparse.segreduce import coo_group_reduce, segment_reduce
from repro.sparse.semiring_ops import BinaryFn, MonoidFn, SegmentReducer
from repro.sparse.tricount import (
    same_structure,
    symmetric_supports,
    triangular_supports,
)

#: Default cap on the expansion buffer of one SAXPY batch (elements).
DEFAULT_BATCH_FLOPS = 1 << 21


def spgemm_flop_count(A: CSRMatrix, B: CSRMatrix) -> int:
    """Exact flop count of ``A @ B``: sum over entries (i,k) of deg_B(k).

    This is what SuiteSparse's inspector computes to choose a method and to
    size allocations.
    """
    return int(B.row_degrees()[A.indices].sum())


def spgemm_saxpy(
    A: CSRMatrix,
    B: CSRMatrix,
    add: MonoidFn,
    mult: BinaryFn,
    out_dtype=np.float64,
    batch_flops: int = DEFAULT_BATCH_FLOPS,
) -> Tuple[CSRMatrix, int]:
    """Row-batched SAXPY (Gustavson-style) SpGEMM.  Returns ``(C, flops)``.

    A :class:`repro.sparse.blocked.BlockedCSR` left operand runs
    shard-by-shard (bit-identical result, O(shard) expansion buffers).
    """
    if hasattr(A, "shards"):
        from repro.sparse import blocked

        return blocked.spgemm_saxpy(A, B, add, mult, out_dtype=out_dtype,
                                    batch_flops=batch_flops)
    if A.ncols != B.nrows:
        raise DimensionMismatch(f"inner dimensions differ: {A.ncols} vs {B.nrows}")
    out_dtype = np.dtype(out_dtype)
    b_deg = B.row_degrees()

    # Partition A's rows into batches whose expansion fits the buffer.  The
    # cached row-id expansion is shared with the batch loop below, which
    # slices it instead of rebuilding np.repeat per batch.
    a_rows = A.row_ids()
    row_flops = segment_reduce(b_deg[A.indices], a_rows, A.nrows, "plus",
                               dtype=np.int64, row_splits=A.indptr)
    total_flops = int(row_flops.sum())

    chunks_rows = []
    chunks_cols = []
    chunks_vals = []
    row_lo = 0
    cum = np.concatenate(([0], np.cumsum(row_flops)))
    while row_lo < A.nrows:
        # A tripped deadline cancels a long SpGEMM at the next flop-bounded
        # batch, not only at the next OpEvent boundary.
        cancel.check()
        # Largest row_hi such that batch flops stay within budget (always >= 1 row).
        target = cum[row_lo] + batch_flops
        row_hi = int(np.searchsorted(cum, target, side="right")) - 1
        row_hi = max(row_hi, row_lo + 1)
        row_hi = min(row_hi, A.nrows)
        lo, hi = A.indptr[row_lo], A.indptr[row_hi]
        ks = A.indices[lo:hi].astype(np.int64)
        if len(ks):
            entry_rows = a_rows[lo:hi]
            cols, positions, seg = gather_rows(B, ks)
            if len(cols):
                a_vals = (
                    np.ones(hi - lo, dtype=out_dtype)
                    if A.values is None
                    else A.values[lo:hi].astype(out_dtype, copy=False)
                )
                b_vals = (
                    np.ones(len(cols), dtype=out_dtype)
                    if B.values is None
                    else B.values[positions].astype(out_dtype, copy=False)
                )
                products = mult.apply(a_vals[seg], b_vals)
                # Combine duplicate (row, col) contributions: densify/
                # bincount when the batch's row span affords it, key sort
                # otherwise (bit-identical either way).
                r_rows, r_cols, vals = coo_group_reduce(
                    entry_rows[seg], cols.astype(np.int64), products,
                    B.ncols, add, dtype=out_dtype)
                chunks_rows.append(r_rows)
                chunks_cols.append(r_cols.astype(INDEX_DTYPE))
                chunks_vals.append(vals)
        row_lo = row_hi

    if chunks_rows:
        out_rows = np.concatenate(chunks_rows)
        out_cols = np.concatenate(chunks_cols)
        out_vals = np.concatenate(chunks_vals)
    else:
        out_rows = np.empty(0, dtype=np.int64)
        out_cols = np.empty(0, dtype=INDEX_DTYPE)
        out_vals = np.empty(0, dtype=out_dtype)
    counts = np.bincount(out_rows, minlength=A.nrows)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(PTR_DTYPE)
    C = CSRMatrix(A.nrows, B.ncols, indptr, out_cols, out_vals)
    return C, total_flops


def spgemm_masked_dot(
    A: CSRMatrix,
    Bt: CSRMatrix,
    mask: CSRMatrix,
    add: MonoidFn,
    mult: BinaryFn,
    out_dtype=np.float64,
) -> Tuple[CSRMatrix, int]:
    """SDOT SpGEMM restricted to a structural mask: ``C<mask> = A @ Bt'``.

    ``Bt`` is the transpose of the right operand, in CSR.  Only entries in
    ``mask``'s pattern are computed; mask positions whose dot product has no
    contributing pair produce no explicit entry (GraphBLAS semantics).
    Returns ``(C, work)`` where work counts merge comparisons.

    All mask rows are intersected at once through the batched merge-join
    engine (:mod:`repro.sparse.join`); the operand value casts are hoisted
    to one whole-array cast per side (the seed re-materialized Bt's values
    inside its per-row loop — O(nrows * nnz)).

    A :class:`repro.sparse.blocked.BlockedCSR` left operand joins
    shard-by-shard, with the mask row-sliced along the shard bounds.

    When the semiring is plus-pair and ``A``, ``Bt`` and ``mask`` are one
    symmetric, diagonal-free structure (ktruss's ``C<S> = S*S'``), the
    same ``C`` and the same work count come from listing each triangle
    once (:func:`repro.sparse.tricount.symmetric_supports`); so they do
    when ``A`` and ``mask`` are one strictly lower-triangular ``L`` and
    ``Bt`` is ``L'`` or ``L`` (tc's ``C<L> = L*U'`` and ``L*L'``) and the
    listing gathers enough fewer candidates
    (:func:`repro.sparse.tricount.triangular_supports`).  Both are
    properties read off the operands, not options.
    """
    if hasattr(A, "shards"):
        from repro.sparse import blocked

        return blocked.spgemm_masked_dot(A, Bt, mask, add, mult,
                                         out_dtype=out_dtype)
    if A.nrows != mask.nrows or Bt.nrows != mask.ncols:
        raise DimensionMismatch("mask shape must match A.nrows x Bt.nrows")
    out_dtype = np.dtype(out_dtype)
    if (add.kind == "plus" and mult.name == "pair" and out_dtype.kind in "iuf"
            and same_structure(mask, A)):
        # ``C<S> = S plus.pair S'`` on one symmetric structure (ktruss's
        # support round) and ``C<L> = L plus.pair U'`` or ``L plus.pair
        # L'`` on one strictly lower-triangular L (tc) are triangle
        # listings: any execution returning the same matrix will do, so
        # each triangle is met once.  The work charged is the generic
        # join's either way: every mask row is non-empty, so each entry
        # (i, j) gathers Bt's row j.
        hits = None
        if same_structure(Bt, A):
            listed = symmetric_supports(A)
            hits = None if listed is None else listed[0]
        if hits is None:
            hits = triangular_supports(A, Bt)
        if hits is not None:
            C = mask.with_values(hits.astype(out_dtype, copy=False))
            return (C.filter_entries(hits > 0),
                    int(Bt.row_degrees()[A.indices].sum()))
    reducer = SegmentReducer(add)
    res = masked_row_join(A, Bt, mask)

    if len(res.a_pos):
        a_vals = (
            np.ones(len(res.a_pos), dtype=out_dtype)
            if A.values is None
            else cast_values(A.values, out_dtype)[res.a_pos]
        )
        b_vals = (
            np.ones(len(res.b_pos), dtype=out_dtype)
            if Bt.values is None
            else cast_values(Bt.values, out_dtype)[res.b_pos]
        )
        # Matches arrive pair-major in B-row order — the per-row loops'
        # order — so this one global reduce accumulates each dot product
        # in exactly the sequence the per-row reduces did.
        products = mult.apply(a_vals, b_vals)
        vals = reducer.reduce(products, res.out_seg, mask.nvals,
                              dtype=out_dtype, sorted_ids=True)
        exists = res.hits > 0
        out_rows = mask.row_ids()[exists]
        out_cols = mask.indices[exists]
        out_vals = vals[exists]
    else:
        out_rows = np.empty(0, dtype=np.int64)
        out_cols = np.empty(0, dtype=INDEX_DTYPE)
        out_vals = np.empty(0, dtype=out_dtype)
    counts = np.bincount(out_rows, minlength=mask.nrows)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(PTR_DTYPE)
    C = CSRMatrix(mask.nrows, mask.ncols, indptr, out_cols, out_vals)
    return C, res.work


def spgemm_masked_saxpy(
    A: CSRMatrix,
    B: CSRMatrix,
    mask: CSRMatrix,
    add: MonoidFn,
    mult: BinaryFn,
    out_dtype=np.float64,
    batch_flops: int = DEFAULT_BATCH_FLOPS,
) -> Tuple[CSRMatrix, int]:
    """SAXPY SpGEMM followed by a structural-mask filter.

    The full expansion is computed (that is what the hash/Gustavson methods
    do — the mask only filters the output), so the flop count equals the
    unmasked product's.
    """
    C, flops = spgemm_saxpy(A, B, add, mult, out_dtype, batch_flops)
    mask_keys = mask.row_ids() * np.int64(mask.ncols) + mask.indices
    c_keys = C.row_ids() * np.int64(C.ncols) + C.indices
    keep = np.isin(c_keys, mask_keys, assume_unique=True)
    return C.filter_entries(keep), flops


def spgemm_diag_left(
    diag: np.ndarray, B: CSRMatrix, mult: BinaryFn, out_dtype=np.float64
) -> Tuple[CSRMatrix, int]:
    """GaloisBLAS's optimized ``D @ B`` for diagonal ``D`` (§III-B).

    Each row of ``B`` is scaled by the corresponding diagonal entry, with no
    expansion or key sort — the optimization GaloisBLAS applies when it
    detects a diagonal operand.  The result shares ``B``'s structure (and
    with it ``B``'s transpose plan).
    """
    if len(diag) != B.nrows:
        raise DimensionMismatch("diagonal length must equal B.nrows")
    out_dtype = np.dtype(out_dtype)
    row_of = B.row_ids()
    b_vals = B.value_array(out_dtype)
    vals = mult.apply(diag[row_of].astype(out_dtype, copy=False), b_vals)
    return B.with_values(vals), B.nvals
