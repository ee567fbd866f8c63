"""Reference intersections the batched join engine is tested against.

:func:`naive_row_pair_join` is the per-pair shape of the loops
:func:`repro.sparse.join.row_pair_join` replaced, one ``searchsorted`` per
pair; :func:`join_sorted` is its single-pair primitive, which the scalar
ktruss removal cascade in ``test_ktruss_kernels.py`` is written with.
Neither is called by any kernel.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.join import JoinResult


def join_sorted(a: np.ndarray,
                b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of the common elements of two sorted arrays.

    Returns ``(ia, ib)`` with ``a[ia] == b[ib]``, ordered by position in
    ``a``.
    """
    if len(a) == 0 or len(b) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos = np.searchsorted(b, a)
    pos = np.minimum(pos, len(b) - 1)
    matched = b[pos] == a
    return np.flatnonzero(matched), pos[matched]


def naive_row_pair_join(
    A: CSRMatrix,
    a_rows: np.ndarray,
    Bt: CSRMatrix,
    b_rows: np.ndarray,
    a_keep: Optional[np.ndarray] = None,
    b_keep: Optional[np.ndarray] = None,
) -> JoinResult:
    """Per-pair reference for :func:`repro.sparse.join.row_pair_join`.

    One Python iteration per pair: a pair whose kept A row is empty
    charges nothing, otherwise it is charged its kept B row's length and
    reports its matches in B-row order.
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
