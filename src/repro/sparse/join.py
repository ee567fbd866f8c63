"""Batched merge-join engine for sorted-sparse-row intersections.

Every set-intersection hot path in the repo — the masked SDOT SpGEMM
(``C<L> = L * U'``, the SandiaDot triangle-counting variant of §III-A),
both tricount kernels, the ktruss support pass — is some instance of
*row-pair join*: for a list of (a_row, b_row) pairs, find the entries the
two sorted CSR rows share.  This module is the single vectorized entry
point for that operation, the intersection companion of the
:mod:`repro.sparse.segreduce` reduction engine.

:func:`row_pair_join` walks the pairs in A-row order, in batches bounded
by gathered candidates (the same batching discipline as
``spgemm_saxpy``): each batch gathers its B-side rows and tests every
candidate column against the A rows the batch pairs, with one of two
plans:

* **densify** — write the entry positions of the batch's distinct A rows
  into a zeroed ``rows x ncols`` int32 table (one table row per distinct
  A row), answer every candidate with one gather, and zero the written
  slots again.  Cost ``O(row entries + n_cand)``; a batch also ends where
  its distinct rows would overflow the table
  (:data:`DENSIFY_TABLE_BYTES`).
* **merge** — one ``searchsorted`` of composite ``row * ncols + col``
  candidate keys into the sorted A-side key slice.  Cost
  ``O(n_cand * log(slice))`` and no table.

The default is read off the operands: densify when one A row fits the
table and each load of the table serves at least
:data:`DENSIFY_MIN_LOAD` candidates on average, merge otherwise (rows of
a few entries, joins of a few pairs, operands over 2 M columns wide).

Both plans return *identical* outputs in identical order, so the plan
choice — like the batch boundaries — can never change results.  The
engine changes wall-clock time only: all modeled accounting (OpEvents,
flop/work counts) is derived from the returned candidate counts, which
replicate exactly what the per-row loops this engine replaced counted.

:func:`dedup_bounded` is the worklist companion: an O(n) flag-array
deduplication for id arrays with a known domain bound, replacing the
Lonestar frontiers' O(n log n) sort-based ``np.unique``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine import cancel
from repro.errors import DimensionMismatch, InvalidValue
from repro.sparse import plancache
from repro.sparse.csr import CSRMatrix, expand_ranges
from repro.sparse.segreduce import segment_reduce

#: Cap on the gathered candidate buffer of one join batch (elements).  A
#: batch's temporaries are what a grid worker's peak RSS adds on top of
#: its graphs (tc and ktruss on the largest inputs): the cap is sized for
#: memory, and batches this large already amortize numpy's per-call cost.
DEFAULT_BATCH_FLOPS = 1 << 20

#: Cap on the densify plan's position table (bytes, int32 slots).  Only
#: the slots a batch's rows and candidates touch are ever paged in.
DENSIFY_TABLE_BYTES = 1 << 23

#: Fewest gathered candidates one load of the densify table must serve on
#: average for the default plan to use it.  Below it (bounded-degree rows
#: such as the road graphs', whose table loads serve ~1k candidates, or
#: joins of a few pairs) writing and clearing the table costs more than
#: the merge plan's searches.
DENSIFY_MIN_LOAD = 1 << 12

#: Value-array cast bookkeeping for the hoisted-cast regression test:
#: ``calls`` counts :func:`cast_values` invocations since last reset.
CAST_COUNTS = {"calls": 0}


def cast_values(values: np.ndarray, dtype) -> np.ndarray:
    """One sanctioned whole-array value cast (counted; see CAST_COUNTS).

    Kernel call sites route their operand-value casts through here so the
    regression tests can assert the casts happen once per kernel call, not
    once per row (the seed ``spgemm_masked_dot`` re-materialized the full
    B value array inside its per-row loop — O(nrows * nnz)).
    """
    CAST_COUNTS["calls"] += 1
    return values.astype(dtype, copy=False)


class JoinResult:
    """The output of one batched row-pair join.

    ``hits[k]`` counts the matches of pair ``k``; ``a_pos``/``b_pos`` are
    the global entry positions (into the A/B value arrays) of every match,
    and ``out_seg`` maps each match back to its pair index
    (non-decreasing).  ``cand[k]`` is the number of gathered B-side
    candidates pair ``k`` was charged (after the ``b_keep`` filter) and
    ``work`` is their total — exactly the merge-comparison count the
    per-row kernels report to the machine model.

    Unpacks as ``hits, a_pos, b_pos, out_seg = result``.
    """

    __slots__ = ("hits", "a_pos", "b_pos", "out_seg", "cand", "work")

    def __init__(self, hits, a_pos, b_pos, out_seg, cand, work):
        self.hits = hits
        self.a_pos = a_pos
        self.b_pos = b_pos
        self.out_seg = out_seg
        self.cand = cand
        self.work = int(work)

    def __iter__(self):
        return iter((self.hits, self.a_pos, self.b_pos, self.out_seg))

    def __repr__(self):
        return (f"JoinResult(pairs={len(self.hits)}, "
                f"matches={len(self.a_pos)}, work={self.work})")


def _empty_result(n_pairs: int,
                  cand: Optional[np.ndarray] = None) -> JoinResult:
    """A result with no matches (``cand``: the pairs' candidate counts)."""
    empty = np.empty(0, dtype=np.int64)
    if cand is None:
        cand = np.zeros(n_pairs, dtype=np.int64)
    return JoinResult(np.zeros(n_pairs, dtype=np.int64), empty, empty,
                      empty, cand, int(cand.sum()))


def _kept_degrees(M: CSRMatrix, keep: np.ndarray) -> np.ndarray:
    """Per-row count of the entries ``keep`` marks."""
    return segment_reduce(keep, None, M.nrows, "plus", dtype=np.int64,
                          row_splits=M.indptr)


def _hoisted_keys(A: CSRMatrix, col_mult: np.int64) -> np.ndarray:
    """The full sorted composite-key array of A (read-only, memoizable)."""
    keys = A.row_ids() * col_mult + A.indices
    keys.setflags(write=False)
    return keys


def row_pair_join(
    A: CSRMatrix,
    a_rows: np.ndarray,
    Bt: CSRMatrix,
    b_rows: np.ndarray,
    a_keep: Optional[np.ndarray] = None,
    b_keep: Optional[np.ndarray] = None,
    batch_flops: int = DEFAULT_BATCH_FLOPS,
    plan: Optional[str] = None,
) -> JoinResult:
    """Intersect ``A`` row ``a_rows[k]`` with ``Bt`` row ``b_rows[k]`` for
    every pair ``k``, vectorized across all pairs.

    ``a_keep``/``b_keep`` are optional boolean masks over the entries of
    ``A``/``Bt`` restricting each side to its kept entries (the ktruss
    aliveness filter).  A pair whose (kept) A row is empty is *inactive*:
    it gathers no candidates and charges no work, matching the per-row
    kernels' skip-empty-row short-circuit.  ``plan`` forces ``"merge"``
    or ``"densify"`` (tests); by default it is chosen from the pairs' row
    and candidate counts (module docstring).

    Matches are reported in candidate order — pair-major, B-row order
    within a pair — which is exactly the order the per-row loops produced,
    so downstream reductions accumulate bit-identically.
    """
    if A.ncols != Bt.ncols:
        raise DimensionMismatch(
            f"join operands disagree on ncols: {A.ncols} vs {Bt.ncols}")
    if plan not in (None, "merge", "densify"):
        raise InvalidValue(f"unknown join plan {plan!r}")
    a_rows = np.asarray(a_rows, dtype=np.int64)
    b_rows = np.asarray(b_rows, dtype=np.int64)
    if len(a_rows) != len(b_rows):
        raise DimensionMismatch("a_rows and b_rows must have equal length")
    n_pairs = len(a_rows)
    if n_pairs == 0 or A.nvals == 0 or Bt.nvals == 0:
        return _empty_result(n_pairs)

    # Per-pair candidate counts: the kept length of the B row, and zero for
    # a pair whose kept A row is empty (inactive, like the loops this
    # replaced).  Both are degree lookups, known before any gather.
    b_deg_all = Bt.row_degrees()
    if a_keep is None:
        a_deg = A.row_degrees()
    else:
        a_deg = _kept_degrees(A, a_keep)
    b_kept_deg = b_deg_all if b_keep is None else _kept_degrees(Bt, b_keep)
    cand = np.where(a_deg[a_rows] > 0, b_kept_deg[b_rows], 0)
    act_idx = np.flatnonzero(cand)
    if len(act_idx) == 0:
        return _empty_result(n_pairs, cand)

    # Walk the active pairs in A-row order, so a batch's pairs share few
    # distinct A rows; matches are put back in pair order at the end.
    act_a = a_rows[act_idx]
    resort = bool((act_a[1:] < act_a[:-1]).any())
    if resort:
        order = np.argsort(act_a, kind="stable")
        act_idx = act_idx[order]
        act_a = act_a[order]
    act_b = b_rows[act_idx]
    n_act = len(act_idx)

    b_deg = b_deg_all[act_b]
    cum = np.concatenate(([0], np.cumsum(b_deg)))
    # Pair k's A row is the walk's slot[k]-th distinct row.  The densify
    # table gives each of a batch's distinct rows one table row, so rows
    # the batch never pairs cost nothing.
    new_row = np.empty(n_act, dtype=bool)
    new_row[0] = True
    np.not_equal(act_a[1:], act_a[:-1], out=new_row[1:])
    slot = np.cumsum(new_row) - 1
    n_rows = int(slot[-1]) + 1
    col_mult = np.int64(A.ncols)
    # Table cells hold an A entry position + 1 (0: absent).
    cell_dtype = np.int32 if A.nvals < np.iinfo(np.int32).max else np.int64
    rows_fit = DENSIFY_TABLE_BYTES // (np.dtype(cell_dtype).itemsize
                                       * A.ncols)
    if plan is None:
        # The table pays when each load of it serves enough candidates:
        # loads are bounded by the table's rows and by the batch budget.
        loads = max(-(-n_rows // max(rows_fit, 1)),
                    -(-int(cum[-1]) // batch_flops))
        densify = rows_fit > 0 and cum[-1] >= DENSIFY_MIN_LOAD * loads
    else:
        densify = plan == "densify"
    if densify:
        # One zeroed table for the whole call: every batch writes its rows'
        # positions in, gathers, and zeroes them again.
        table_rows = min(max(rows_fit, 1), n_rows)
        table = np.zeros(table_rows * A.ncols, dtype=cell_dtype)
    else:
        # CSR entries sorted by (row, col) make ``row * ncols + col``
        # globally ascending, so a batch's rows map to one sorted slice of
        # this key array (memoized on A: a pure function of its structure).
        keys_a = plancache.cached(A, "join_keys", (),
                                  lambda: _hoisted_keys(A, col_mult))

    a_chunks = []
    b_chunks = []
    seg_chunks = []
    lo = 0
    while lo < n_act:
        # A tripped deadline stops a long join at the next flop-bounded
        # batch (~1M gathered candidates), not only at the next OpEvent.
        cancel.check()
        # Largest hi keeping the gathered batch within budget (>= 1 pair)
        # and, for the table, its distinct rows within the table's rows.
        hi = int(np.searchsorted(cum, cum[lo] + batch_flops,
                                 side="right")) - 1
        if densify:
            hi = min(hi, int(np.searchsorted(slot, slot[lo] + table_rows)))
        hi = min(max(hi, lo + 1), n_act)
        lens = b_deg[lo:hi]
        starts = Bt.indptr[act_b[lo:hi]]
        positions = expand_ranges(starts, starts + lens)
        cols = Bt.indices[positions]
        if densify:
            local = slot[lo:hi] - slot[lo]
            rows = np.empty(int(local[-1]) + 1, dtype=np.int64)
            rows[local] = act_a[lo:hi]
            row_starts = A.indptr[rows]
            row_stops = A.indptr[rows + 1]
            filled = expand_ranges(row_starts, row_stops)
            where = (np.repeat(np.arange(len(rows), dtype=np.int64)
                               * col_mult, row_stops - row_starts)
                     + A.indices[filled])
            if a_keep is not None:
                kept = a_keep[filled]
                filled, where = filled[kept], where[kept]
            table[where] = filled + 1
            found = table[np.repeat(local * col_mult, lens) + cols]
            table[where] = 0
            midx = np.flatnonzero(found)
            a_pos = found[midx] - np.int64(1)
        else:
            keys = np.repeat(act_a[lo:hi] * col_mult, lens) + cols
            ent_lo = int(A.indptr[act_a[lo]])
            key_slice = keys_a[ent_lo:int(A.indptr[act_a[hi - 1] + 1])]
            pos = np.searchsorted(key_slice, keys)
            np.minimum(pos, len(key_slice) - 1, out=pos)
            midx = np.flatnonzero(key_slice[pos] == keys)
            a_pos = pos[midx] + ent_lo
            if a_keep is not None:
                kept = a_keep[a_pos]
                midx, a_pos = midx[kept], a_pos[kept]
        b_pos = positions[midx]
        if b_keep is not None:
            kept = b_keep[b_pos]
            midx, a_pos, b_pos = midx[kept], a_pos[kept], b_pos[kept]
        if len(midx):
            # Each match's pair: a segment-repeat when matches are dense,
            # a search over the batch's pair bounds when they are sparse.
            if 4 * len(midx) > len(cols):
                seg = np.repeat(np.arange(hi - lo), lens)[midx]
            else:
                seg = np.searchsorted(cum[lo:hi + 1] - cum[lo], midx,
                                      side="right") - 1
            a_chunks.append(a_pos)
            b_chunks.append(b_pos)
            seg_chunks.append(act_idx[lo + seg])
        lo = hi

    if not a_chunks:
        return _empty_result(n_pairs, cand)
    a_pos = np.concatenate(a_chunks)
    b_pos = np.concatenate(b_chunks)
    out_seg = np.concatenate(seg_chunks)
    if resort:
        # Within a pair, matches are already in B-row order; a stable sort
        # on the pair index restores the pair-major order.
        order = np.argsort(out_seg, kind="stable")
        a_pos, b_pos, out_seg = a_pos[order], b_pos[order], out_seg[order]
    hits = np.bincount(out_seg, minlength=n_pairs)
    return JoinResult(hits, a_pos, b_pos, out_seg, cand, int(cand.sum()))


def masked_row_join(
    A: CSRMatrix,
    Bt: CSRMatrix,
    mask: CSRMatrix,
    batch_flops: int = DEFAULT_BATCH_FLOPS,
    plan: Optional[str] = None,
) -> JoinResult:
    """Row-pair join driven by a structural mask: one pair per mask entry.

    Mask entry (i, j) intersects ``A`` row i with ``Bt`` row j — the
    access pattern of the masked SDOT SpGEMM and of triangle counting
    (where A = Bt = mask = L).  Pair k is mask entry k, so ``hits``/
    ``cand`` align with the mask's value positions.
    """
    if A.nrows != mask.nrows or Bt.nrows != mask.ncols:
        raise DimensionMismatch("mask shape must match A.nrows x Bt.nrows")
    return row_pair_join(A, mask.row_ids(),
                         Bt, mask.indices.astype(np.int64),
                         batch_flops=batch_flops, plan=plan)


def dedup_bounded(ids: np.ndarray, bound: int) -> np.ndarray:
    """Sorted unique ids, O(n + bound) via a flag array.

    Drop-in for ``np.unique`` over integer ids known to lie in
    ``[0, bound)`` (vertex frontiers, entry positions): identical output
    — sorted, deduplicated, int64 — without the O(n log n) sort.  Tiny
    inputs keep ``np.unique``, since zeroing a |V|-sized flag array would
    dominate a near-empty frontier's round.
    """
    ids = np.asarray(ids)
    if len(ids) <= max(16, int(bound) >> 7):
        return np.unique(ids).astype(np.int64, copy=False)
    flags = np.zeros(int(bound), dtype=bool)
    flags[ids] = True
    return np.flatnonzero(flags)
