"""Batched merge-join engine for sorted-sparse-row intersections.

Every set-intersection hot path in the repo — the masked SDOT SpGEMM
(``C<L> = L * U'``, the SandiaDot triangle-counting variant of §III-A),
both tricount kernels, the ktruss support pass — is some instance of
*row-pair join*: for a list of (a_row, b_row) pairs, find the entries the
two sorted CSR rows share.  This module is the single vectorized entry
point for that operation, the intersection companion of the
:mod:`repro.sparse.segreduce` reduction engine.

:func:`row_pair_join` processes **all** pairs at once in flop-bounded
batches (the same batching discipline as ``spgemm_saxpy``): each batch
gathers its B-side rows with :func:`repro.sparse.csr.gather_rows`, forms
composite ``row * ncols + col`` candidate keys, and then tests membership
against the A side with one of two plans:

* **merge** — one two-sided ``searchsorted`` of the candidate keys into
  the (globally sorted) A-side key slice covering the batch's row span.
  Cost ``O(n_cand * log(slice))``; always applicable.
* **densify-by-column** — scatter the A-side slice into a dense
  ``row_span x ncols`` position table and answer every candidate with one
  gather.  Cost ``O(table + slice + n_cand)``; chosen when the batch's
  row degrees are high enough that the table is comparable to the
  candidate count (and the table fits a fixed budget).

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

from typing import Optional, Tuple

import numpy as np

from repro.engine import cancel
from repro.errors import DimensionMismatch, InvalidValue
from repro.sparse import plancache
from repro.sparse.csr import CSRMatrix, expand_ranges, gather_rows

#: Cap on the gathered candidate buffer of one join batch (elements).  A
#: batch's temporaries are what a grid worker's peak RSS adds on top of
#: its graphs (tc and ktruss on the largest inputs): the cap is sized for
#: memory, and batches this large already amortize numpy's per-call cost.
DEFAULT_BATCH_FLOPS = 1 << 20

#: Cap on the densify plan's position table (elements per batch).
DENSIFY_TABLE_BUDGET = 1 << 22

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


def _empty_result(n_pairs: int) -> JoinResult:
    empty = np.empty(0, dtype=np.int64)
    return JoinResult(np.zeros(n_pairs, dtype=np.int64), empty, empty,
                      empty, np.zeros(n_pairs, dtype=np.int64), 0)


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
    or ``"densify"`` for every batch (tests); the default picks per batch.

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

    # Per-pair A-side degrees (after a_keep): pairs with an empty A row are
    # inactive and never gather candidates, like the loops they replace.
    if a_keep is None:
        a_deg = A.row_degrees()[a_rows]
    else:
        from repro.sparse.segreduce import segment_reduce

        kept_deg = segment_reduce(a_keep, None, A.nrows, "plus",
                                  dtype=np.int64, row_splits=A.indptr)
        a_deg = kept_deg[a_rows]
    act_idx = np.flatnonzero(a_deg > 0)
    if len(act_idx) == 0:
        return _empty_result(n_pairs)
    act_a = a_rows[act_idx]
    act_b = b_rows[act_idx]

    # Hoist the A-side composite keys once per call.  CSR entries sorted by
    # (row, col) make `row * ncols + col` globally ascending, so any row
    # span maps to one sorted contiguous slice; `key_ptr` translates row
    # ids to slice offsets (compacted when a_keep drops entries).  The
    # unfiltered key array is a pure function of A's structure, so it is
    # memoized on A across calls (triangle counting joins the same L per
    # batch; pagerank-style loops rejoin the same matrix per round).
    col_mult = np.int64(A.ncols)
    if a_keep is None:
        keys_a = plancache.cached(A, "join_keys", (),
                                  lambda: _hoisted_keys(A, col_mult))
        a_entry_of = None  # keys_a position == global entry position
        key_ptr = A.indptr
    else:
        a_entry_of = np.flatnonzero(a_keep)
        keys_a = (A.row_ids()[a_entry_of] * col_mult
                  + A.indices[a_entry_of].astype(np.int64))
        key_ptr = np.searchsorted(a_entry_of, A.indptr)

    # Sticky merge/densify decision: the first adaptive call on A records
    # the majority of its per-batch choices; later calls with the same
    # configuration replay it without re-deriving the batch statistics.
    # Both plans produce identical outputs (module invariant), so the
    # sticky replay — like an explicit ``plan`` — can never change results.
    # The key includes the pair count's density decile relative to A's row
    # count: a near-diagonal mask (few pairs) and a dense mask (~nrows
    # pairs or more) have opposite merge-vs-densify economics, so each
    # decile keeps its own sticky slot instead of one mask shape deciding
    # for all of them.
    density_decile = int(min(9, (10 * n_pairs) // max(1, A.nrows)))
    plan_key = (a_keep is None, b_keep is None, int(batch_flops),
                density_decile)
    forced = plan if plan is not None else plancache.get(A, "join_plan",
                                                         plan_key)
    batch_choices = [] if forced is None else None

    hits = np.zeros(n_pairs, dtype=np.int64)
    cand = np.zeros(n_pairs, dtype=np.int64)
    a_chunks = []
    b_chunks = []
    seg_chunks = []

    b_deg = Bt.row_degrees()[act_b]
    cum = np.concatenate(([0], np.cumsum(b_deg)))
    n_act = len(act_idx)
    lo = 0
    while lo < n_act:
        # A tripped deadline stops a long join at the next flop-bounded
        # batch (~2M gathered candidates), not only at the next OpEvent.
        cancel.check()
        # Largest hi keeping the gathered batch within budget (>= 1 pair).
        target = cum[lo] + batch_flops
        hi = int(np.searchsorted(cum, target, side="right")) - 1
        hi = max(hi, lo + 1)
        hi = min(hi, n_act)
        pair_a = act_a[lo:hi]
        cols, positions, seg = gather_rows(Bt, act_b[lo:hi])
        # Composite candidate keys: segment-repeat of the per-pair row
        # base (int64) plus the gathered columns in one broadcast add —
        # cheaper than a per-candidate row gather and an explicit cast.
        cand_keys = np.repeat(pair_a * col_mult, b_deg[lo:hi]) + cols
        if b_keep is not None and len(cols):
            kept = b_keep[positions]
            cand_keys = cand_keys[kept]
            positions = positions[kept]
            seg = seg[kept]
            cand[act_idx[lo:hi]] = np.bincount(seg, minlength=hi - lo)
        else:
            cand[act_idx[lo:hi]] = b_deg[lo:hi]
        if len(cand_keys) == 0:
            lo = hi
            continue

        # The A-side slice covering this batch's row span.
        row_lo = int(pair_a.min())
        row_hi = int(pair_a.max())
        ent_lo = int(key_ptr[row_lo])
        ent_hi = int(key_ptr[row_hi + 1])
        key_slice = keys_a[ent_lo:ent_hi]
        table_elems = (row_hi - row_lo + 1) * A.ncols
        if forced is not None:
            densify = forced == "densify"
        else:
            densify = (table_elems <= DENSIFY_TABLE_BUDGET
                       and table_elems <= 4 * (len(cand_keys)
                                               + len(key_slice)))
            batch_choices.append(densify)
        # A cache-replayed densify must still respect the table budget (a
        # later call may cover a wider row span than the deciding one); an
        # explicit caller ``plan`` keeps its forced choice.
        if densify and plan is None and table_elems > DENSIFY_TABLE_BUDGET:
            densify = False
        base = np.int64(row_lo) * col_mult
        if densify:
            table = np.full(table_elems, -1, dtype=np.int64)
            table[key_slice - base] = np.arange(ent_lo, ent_hi,
                                                dtype=np.int64)
            found = table[cand_keys - base]
            midx = np.flatnonzero(found >= 0)
            slice_pos = found[midx]
        else:
            pos = np.searchsorted(key_slice, cand_keys)
            np.minimum(pos, len(key_slice) - 1, out=pos)
            midx = np.flatnonzero(key_slice[pos] == cand_keys)
            slice_pos = pos[midx] + ent_lo
        if len(midx):
            a_chunks.append(slice_pos if a_entry_of is None
                            else a_entry_of[slice_pos])
            b_chunks.append(positions[midx])
            seg_m = seg[midx]
            seg_chunks.append(act_idx[lo + seg_m])
            hits[act_idx[lo:hi]] = np.bincount(seg_m, minlength=hi - lo)
        lo = hi

    if batch_choices:
        majority = ("densify" if 2 * sum(batch_choices) >= len(batch_choices)
                    else "merge")
        plancache.put(A, "join_plan", plan_key, majority)

    if a_chunks:
        a_pos = np.concatenate(a_chunks)
        b_pos = np.concatenate(b_chunks)
        out_seg = np.concatenate(seg_chunks)
    else:
        a_pos = np.empty(0, dtype=np.int64)
        b_pos = np.empty(0, dtype=np.int64)
        out_seg = np.empty(0, dtype=np.int64)
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


def join_sorted(a: np.ndarray,
                b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of the common elements of two sorted arrays.

    Returns ``(ia, ib)`` with ``a[ia] == b[ib]``, ordered by position in
    ``a`` — the single-pair primitive.  Kernels batch their pairs through
    :func:`row_pair_join` (the ktruss removal cascade too: within a wave a
    triangle is destroyed exactly once, by its smallest doomed edge,
    whatever the order); the scalar reference cascade that the batched
    wave is tested against is written with this.
    """
    if len(a) == 0 or len(b) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos = np.searchsorted(b, a)
    pos = np.minimum(pos, len(b) - 1)
    matched = b[pos] == a
    return np.flatnonzero(matched), pos[matched]


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


def naive_row_pair_join(
    A: CSRMatrix,
    a_rows: np.ndarray,
    Bt: CSRMatrix,
    b_rows: np.ndarray,
    a_keep: Optional[np.ndarray] = None,
    b_keep: Optional[np.ndarray] = None,
) -> JoinResult:
    """Per-pair reference implementation (the seed kernels' idiom).

    One Python iteration per pair, one ``searchsorted`` each — the shape
    of the loops :func:`row_pair_join` replaces.  Kept as the property-
    test oracle and the benchmark baseline; never called by kernels.
    """
    a_rows = np.asarray(a_rows, dtype=np.int64)
    b_rows = np.asarray(b_rows, dtype=np.int64)
    n_pairs = len(a_rows)
    hits = np.zeros(n_pairs, dtype=np.int64)
    cand = np.zeros(n_pairs, dtype=np.int64)
    a_chunks, b_chunks, seg_chunks = [], [], []
    work = 0
    for k in range(n_pairs):
        i = int(a_rows[k])
        a_lo, a_hi = int(A.indptr[i]), int(A.indptr[i + 1])
        a_idx = np.arange(a_lo, a_hi, dtype=np.int64)
        if a_keep is not None:
            a_idx = a_idx[a_keep[a_lo:a_hi]]
        if len(a_idx) == 0:
            continue
        j = int(b_rows[k])
        b_lo, b_hi = int(Bt.indptr[j]), int(Bt.indptr[j + 1])
        b_idx = np.arange(b_lo, b_hi, dtype=np.int64)
        if b_keep is not None:
            b_idx = b_idx[b_keep[b_lo:b_hi]]
        cand[k] = len(b_idx)
        work += len(b_idx)
        if len(b_idx) == 0:
            continue
        a_cols = A.indices[a_idx]
        b_cols = Bt.indices[b_idx]
        pos = np.searchsorted(a_cols, b_cols)
        pos = np.minimum(pos, len(a_cols) - 1)
        matched = a_cols[pos] == b_cols
        n_match = int(np.count_nonzero(matched))
        if n_match:
            hits[k] = n_match
            a_chunks.append(a_idx[pos[matched]])
            b_chunks.append(b_idx[matched])
            seg_chunks.append(np.full(n_match, k, dtype=np.int64))
    if a_chunks:
        a_pos = np.concatenate(a_chunks)
        b_pos = np.concatenate(b_chunks)
        out_seg = np.concatenate(seg_chunks)
    else:
        a_pos = np.empty(0, dtype=np.int64)
        b_pos = np.empty(0, dtype=np.int64)
        out_seg = np.empty(0, dtype=np.int64)
    return JoinResult(hits, a_pos, b_pos, out_seg, cand, work)
