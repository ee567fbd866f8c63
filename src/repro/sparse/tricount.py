"""Set-intersection kernels for triangle counting and truss support.

These back both stacks' triangle work, but with different *materialization*
behaviour, which is the paper's limitation #2:

* Lonestar counts triangles by accumulating a scalar inside the search loop
  (:func:`count_triangles_lower`) — no output matrix;
* the GraphBLAS SandiaDot path (``spgemm_masked_dot`` in
  :mod:`repro.sparse.spgemm`) materializes the per-edge counts into C and
  reduces it afterwards.

:func:`edge_supports` computes per-edge common-neighbor counts restricted
to a set of rows and an aliveness filter, which is what the Gauss-Seidel
Lonestar ktruss needs.  :func:`symmetric_supports` is the same count for
a whole symmetric pattern with each triangle listed once; both stacks'
ktruss support passes run on it (``edge_supports`` here, and the
plus-pair ``C<S> = S*S'`` of ``spgemm_masked_dot``).
:func:`triangular_supports` lists the same forward half for the
GraphBLAS tc variants' ``C<L> = L*U'`` and ``C<L> = L*L'``, crediting each
triangle to the one entry of ``L`` that variant's dot product counts it at.

Every kernel is one call into the batched merge-join engine
(:mod:`repro.sparse.join`) — no per-row Python loop — and reports the same
work/row_work counts the per-row loops they replaced did, so the machine
model sees identical numbers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix, expand_ranges
from repro.sparse.join import masked_row_join, row_pair_join
from repro.sparse.segreduce import segment_reduce


def count_triangles_lower(L: CSRMatrix, check_order: bool = True):
    """Triangles via ordered listing on a lower-triangular pattern.

    For every edge (i, j) in ``L`` (j < i), counts ``|L[i] ∩ L[j]|``.
    Returns ``(ntri, work, row_work)`` where ``work`` counts merge
    comparisons and ``row_work[i]`` is row i's share (the load-balance
    weights of the counting loop).  With ``check_order`` the per-edge
    ordering test (u > v > w) is included in the caller's instruction
    accounting — Lonestar performs it at runtime where gb-ll's
    preprocessing removed the need (§V-B "tc").
    """
    # One batched join, one pair per edge (i, j): intersect row i with
    # row j.  cand[k] is the gathered length of row j, so row-summing it
    # reproduces the per-row loop's `len(cat)` work shares exactly.
    res = masked_row_join(L, L, L)
    row_work = segment_reduce(res.cand, None, L.nrows, "plus",
                              dtype=np.int64, row_splits=L.indptr)
    return int(res.hits.sum()), res.work, row_work


def same_structure(X: CSRMatrix, Y: CSRMatrix) -> bool:
    """Whether two matrices hold one sparsity structure (shared or equal)."""
    return (X.ncols == Y.ncols
            and (X.indptr is Y.indptr or np.array_equal(X.indptr, Y.indptr))
            and (X.indices is Y.indices
                 or np.array_equal(X.indices, Y.indices)))


def symmetric_twins(csr: CSRMatrix) -> Optional[np.ndarray]:
    """``twin`` (see :func:`twin_positions`) when ``csr`` is square,
    structurally symmetric and diagonal-free; ``None`` otherwise.

    The answer is *observed*, never assumed: the transposed pattern must
    equal the pattern itself.  An O(log) probe — the reverse of the first
    entry must exist — turns away triangular operands (triangle counting's
    ``L``) before any O(nnz) work is spent on them.
    """
    if csr.nrows != csr.ncols:
        return None
    if csr.nvals == 0:
        return np.empty(0, dtype=np.int64)
    first_row = int(np.searchsorted(csr.indptr, 0, side="right")) - 1
    if csr.get(int(csr.indices[0]), first_row) is None:
        return None
    order, pattern = csr.transpose_plan()
    if not same_structure(pattern, csr):
        return None
    if (csr.indices == csr.row_ids()).any():
        return None
    return order


def degree_rank(degrees: np.ndarray) -> np.ndarray:
    """Each vertex's position in the (degree, id) order: the orientation
    both triangle listings use, forward from lower to higher rank."""
    rank = np.empty(len(degrees), dtype=np.int64)
    rank[np.argsort(degrees, kind="stable")] = np.arange(len(degrees))
    return rank


def symmetric_supports(
    csr: CSRMatrix,
    keep: Optional[np.ndarray] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per-entry triangle supports of a symmetric pattern, each triangle
    listed once.

    The self-join ``|N(u) ∩ N(v)|`` for every kept entry (u, v) finds each
    triangle six times, always gathering the heavier endpoint's row.  Here
    vertices are ranked by (kept degree, id), only the *forward* entries
    (rank u < rank v) are kept as a CSR, and one :func:`masked_row_join`
    over it meets every triangle exactly once — at its lowest-ranked edge —
    after which +1 is scattered to the triangle's three edges and their
    twins.  Forward rows are short (at most ~sqrt(2 nnz) entries), which is
    where the candidate count collapses.

    Returns ``(supports, cand)``, both aligned with ``csr`` entries and
    zero at dropped ones: ``supports[p]`` is the common kept-neighbour
    count of entry ``p``'s endpoints and ``cand[p]`` the kept degree of its
    column vertex — the candidates the generic join would have gathered
    for that pair, which is what the machine model is charged.  Returns
    ``None`` — caller takes the generic join — unless ``csr`` is
    symmetric and diagonal-free (:func:`symmetric_twins`) and ``keep``
    marks both orientations of every edge alike.
    """
    twin = symmetric_twins(csr)
    if twin is None:
        return None
    if keep is None:
        kept_deg = csr.row_degrees()
        cand = kept_deg[csr.indices]
    else:
        if not np.array_equal(keep, keep[twin]):
            return None
        kept_deg = segment_reduce(keep, None, csr.nrows, "plus",
                                  dtype=np.int64, row_splits=csr.indptr)
        cand = np.where(keep, kept_deg[csr.indices], 0)

    rank = degree_rank(kept_deg)
    forward = rank[csr.row_ids()] < rank[csr.indices]
    if keep is not None:
        forward &= keep
    fwd = csr.with_values(None).filter_entries(forward)
    res = masked_row_join(fwd, fwd, fwd)
    fwd_supports = (res.hits
                    + np.bincount(res.a_pos, minlength=fwd.nvals)
                    + np.bincount(res.b_pos, minlength=fwd.nvals))
    fwd_pos = np.flatnonzero(forward)
    supports = np.zeros(csr.nvals, dtype=np.int64)
    supports[fwd_pos] = fwd_supports
    supports[twin[fwd_pos]] = fwd_supports
    return supports, cand


#: The triangular listing is taken only when the generic join would
#: gather at least ``LISTING_GAIN`` times the listing's candidates, and at
#: least ``LISTING_MIN_WORK`` in all.  The listing also scatters one
#: credit per triangle, so it loses where triangles are dense (eukarya:
#: 2.0x fewer candidates, 882 k triangles) and wins where the join gathers
#: mostly misses (friendster: 10.1x fewer, 204 k triangles).  Below the
#: minimum the generic join takes well under a millisecond, about what
#: ranking and orienting the operands costs (road-USA-W's ``L*U'``
#: gathers 15 k).
LISTING_GAIN = 4
LISTING_MIN_WORK = 1 << 16


def triangular_supports(L: CSRMatrix, Bt: CSRMatrix) -> Optional[np.ndarray]:
    """``C<L> = L plus.pair Bt'`` per entry of a strictly lower-triangular
    ``L``, each triangle listed once; ``None`` — caller takes the generic
    join — when the operands do not qualify or listing would not pay.

    ``Bt`` is ``L'`` (SandiaDot, ``C<L> = L*U'``: entry (hi, lo) counts
    the triangles whose third vertex lies between its endpoints) or ``L``
    itself (gb-ll, ``C<L> = L*L'``: entry (hi, mid) counts those whose
    third vertex lies below both).  Either way every triangle is credited
    to exactly one entry, so the triangles are listed once on the
    degree-oriented forward half of ``L + L'`` (:func:`degree_rank`, as
    :func:`symmetric_supports` does) and each scatters +1 to the entry its
    variant credits.  Whether to list is read off degrees alone: the
    generic join gathers ``sum |Bt row j|`` over the entries (i, j), the
    listing ``sum |forward row v|`` over its forward entries (u, v).
    """
    n = L.nrows
    if n != L.ncols or Bt.nrows != n or L.nvals == 0:
        return None
    cols = L.indices
    generic = int(Bt.row_degrees()[cols].sum())
    if generic < LISTING_MIN_WORK:
        return None
    rows = L.row_ids()
    if not (cols < rows).all():
        return None
    order, LT = L.transpose_plan()
    if same_structure(Bt, L):
        credit_between = False
    elif same_structure(Bt, LT):
        credit_between = True
    else:
        return None

    rank = degree_rank(L.row_degrees() + LT.row_degrees())
    # keep[p]: L entry p = (i, j) runs forward as stored (i -> j);
    # otherwise it runs j -> i, which is LT's entry at the same edge.
    keep = rank[rows] < rank[cols]
    tail = np.where(keep, rows, cols)
    head = np.where(keep, cols, rows)
    fwd_deg = np.bincount(tail, minlength=n)
    if generic < LISTING_GAIN * int(fwd_deg[head].sum()):
        return None

    # Forward row v is v's forward entries of L (columns below v) followed
    # by those of LT (columns above v): already sorted, so the two filtered
    # structures interleave row by row without a sort.
    below = L.with_values(None).filter_entries(keep)
    t_keep = ~keep[order]
    above = LT.filter_entries(t_keep)
    indptr = below.indptr + above.indptr
    below_dest = (np.arange(below.nvals, dtype=np.int64)
                  + above.indptr[below.row_ids()])
    above_dest = (np.arange(above.nvals, dtype=np.int64)
                  + below.indptr[1:][above.row_ids()])
    indices = np.empty(L.nvals, dtype=cols.dtype)
    indices[below_dest] = below.indices
    indices[above_dest] = above.indices
    entry_of = np.empty(L.nvals, dtype=np.int64)  # forward entry -> L entry
    entry_of[below_dest] = np.flatnonzero(keep)
    entry_of[above_dest] = order[t_keep]
    fwd = CSRMatrix(n, n, indptr, indices)

    # Each match is a triangle u -> v -> w (ascending rank) met at its
    # entry (u, v); a_pos is its entry (u, w) and b_pos its entry (v, w).
    res = masked_row_join(fwd, fwd, fwd)
    u = fwd.row_ids()[res.out_seg]
    v = fwd.indices[res.out_seg].astype(np.int64)
    w = fwd.indices[res.a_pos].astype(np.int64)
    lowest = np.minimum(np.minimum(u, v), w)
    if credit_between:
        # The credited entry (hi, lo) is the edge without the middle vertex.
        skipped = u + v + w - lowest - np.maximum(np.maximum(u, v), w)
    else:
        # The credited entry (hi, mid) is the edge without the lowest.
        skipped = lowest
    credited = np.where(w == skipped, entry_of[res.out_seg],
                        np.where(v == skipped, entry_of[res.a_pos],
                                 entry_of[res.b_pos]))
    return np.bincount(credited, minlength=L.nvals)


def edge_supports(
    csr: CSRMatrix,
    alive: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Common-neighbor count per (alive) edge of the given rows.

    ``alive`` is a boolean over csr entries; dead entries neither receive a
    support value nor participate as wedges.  Returns
    ``(supports, work, row_work)`` where ``supports`` is aligned with csr
    entries (0 where dead or not in ``rows``) and ``row_work`` aligns with
    ``rows``.

    Over all rows of a symmetric, diagonal-free pattern (the ktruss
    support pass) the counts come from :func:`symmetric_supports`; ``work``
    and ``row_work`` are the same degree sums either way.
    """
    if rows is None:
        listed = symmetric_supports(csr, alive)
        if listed is not None:
            supports, cand = listed
            row_work = segment_reduce(cand, None, csr.nrows, "plus",
                                      dtype=np.int64, row_splits=csr.indptr)
            return supports, int(cand.sum()), row_work
    supports = np.zeros(csr.nvals, dtype=np.int64)
    row_arr = (np.arange(csr.nrows, dtype=np.int64) if rows is None
               else np.asarray(rows, dtype=np.int64))
    row_work = np.zeros(len(row_arr), dtype=np.int64)
    # One pair per live entry (i, nbr) of the requested rows: intersect
    # row i's live adjacency with row nbr's (both sides filtered by
    # ``alive``, like the per-row loop's pre- and post-gather filters).
    starts = csr.indptr[row_arr]
    stops = csr.indptr[row_arr + 1]
    entry_pos = expand_ranges(starts, stops)
    if len(entry_pos) == 0:
        return supports, 0, row_work
    pair_row = np.repeat(np.arange(len(row_arr), dtype=np.int64),
                         stops - starts)
    live = alive[entry_pos]
    entry_pos = entry_pos[live]
    pair_row = pair_row[live]
    if len(entry_pos) == 0:
        return supports, 0, row_work
    res = row_pair_join(csr, row_arr[pair_row],
                        csr, csr.indices[entry_pos].astype(np.int64),
                        a_keep=alive, b_keep=alive)
    supports[entry_pos] = res.hits
    row_work = segment_reduce(res.cand, pair_row, len(row_arr), "plus",
                              dtype=np.int64, sorted_ids=True)
    return supports, res.work, row_work


def twin_positions(csr: CSRMatrix) -> np.ndarray:
    """For a symmetric pattern, the entry position of each entry's reverse.

    ``twin[p]`` is the index of (col, row) given entry ``p`` = (row, col);
    used to remove both orientations of an undirected edge together.  It
    is the structure's transpose permutation: when the transposed pattern
    is the pattern itself, entry ``k`` of the transpose — entry
    ``order[k]`` of ``csr`` — sits where entry ``k`` of ``csr`` does.
    """
    order, pattern = csr.transpose_plan()
    if not same_structure(pattern, csr):
        raise ValueError("matrix is not structurally symmetric")
    return order.astype(np.int64)
