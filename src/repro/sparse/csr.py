"""Compressed Sparse Row matrix storage.

This is the storage format SuiteSparse, GaloisBLAS and Galois all share in
the paper (§III).  A :class:`CSRMatrix` is an immutable-shape container of
three numpy arrays: ``indptr`` (int64, length nrows+1), ``indices`` (int32,
column ids sorted within each row) and optional ``values``.

A matrix with ``values is None`` is *pattern-only* (an unweighted graph /
boolean matrix); kernels treat its entries as 1.

"Same structure, different values" is first-class: :meth:`CSRMatrix.with_values`
returns a matrix that shares ``indptr``/``indices`` and the structural memo
(``row_ids``, ``row_degrees``, the kernel plan cache) with its source, and
:meth:`CSRMatrix.transpose` is built on it — the *transpose plan* (the
stable column permutation plus the transposed pattern) is a pure function
of structure, memoized once, and each transpose is one gather of the values.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import DimensionMismatch, IndexOutOfBounds, InvalidValue
from repro.sparse import plancache
from repro.sparse.segreduce import segment_reduce

INDEX_DTYPE = np.int32
PTR_DTYPE = np.int64


class _StructureMemo:
    """Everything memoized about one ``(indptr, indices)`` structure.

    One object per structure, shared by reference between a matrix and its
    :meth:`CSRMatrix.with_values` siblings, so a slot filled (or cleared)
    through one sharer is filled (or cleared) for all of them.  ``plans``
    is the dict of :mod:`repro.sparse.plancache`.
    """

    __slots__ = ("row_ids", "degrees", "plans")

    def __init__(self):
        self.row_ids: Optional[np.ndarray] = None
        self.degrees: Optional[np.ndarray] = None
        self.plans: Optional[dict] = None


class CSRMatrix:
    """A sparse matrix in CSR form with sorted, deduplicated rows."""

    __slots__ = ("nrows", "ncols", "indptr", "indices", "values", "_memo")

    def __init__(self, nrows, ncols, indptr, indices, values=None):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.ascontiguousarray(indptr, dtype=PTR_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.values = None if values is None else np.ascontiguousarray(values)
        # Structural-metadata memo (numpy-level artifacts only: these never
        # appear in the machine model's memory accounting).
        self._memo = _StructureMemo()
        if len(self.indptr) != self.nrows + 1:
            raise DimensionMismatch(
                f"indptr length {len(self.indptr)} != nrows+1 ({self.nrows + 1})"
            )
        if self.indptr[-1] != len(self.indices):
            raise InvalidValue("indptr[-1] must equal len(indices)")
        if self.values is not None and len(self.values) != len(self.indices):
            raise DimensionMismatch("values and indices lengths differ")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nvals(self) -> int:
        """Number of explicit entries."""
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        """Payload bytes of the CSR arrays (Table I's 'CSR size')."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.values is not None:
            total += self.values.nbytes
        return total

    @property
    def _plan_cache(self) -> Optional[dict]:
        """The plan-cache dict :mod:`repro.sparse.plancache` keys hosts on
        (it lives in the structure memo, so every sharer sees one dict)."""
        return self._memo.plans

    @_plan_cache.setter
    def _plan_cache(self, plans: Optional[dict]) -> None:
        self._memo.plans = plans

    def row_degrees(self) -> np.ndarray:
        """Number of explicit entries per row (cached; do not mutate)."""
        memo = self._memo
        if memo.degrees is None:
            degrees = np.diff(self.indptr)
            degrees.setflags(write=False)
            memo.degrees = degrees
        return memo.degrees

    def row_ids(self) -> np.ndarray:
        """Row id of each explicit entry, ascending (cached; do not mutate).

        The expanded ``np.repeat(arange(nrows), diff(indptr))`` array that
        the vectorized kernels all need; computing it once per matrix
        instead of once per kernel call is the structural-metadata cache.
        Being sorted, it is also a valid ``sorted_ids`` argument to
        :func:`repro.sparse.segreduce.segment_reduce`.
        """
        memo = self._memo
        if memo.row_ids is None:
            row_ids = np.repeat(
                np.arange(self.nrows, dtype=np.int64), self.row_degrees()
            )
            row_ids.setflags(write=False)
            memo.row_ids = row_ids
        return memo.row_ids

    def invalidate_memos(self) -> None:
        """Drop the structural memos and every cached kernel plan.

        The library never mutates ``indptr``/``indices`` of a live matrix
        (transformations build new objects), but tooling and tests that do
        must call this so structure-derived plans cannot be replayed
        against the new structure.  The memo is cleared in place: every
        :meth:`with_values` sibling shares the mutated arrays, so every one
        of them re-derives.
        """
        plancache.drop(self)
        self._memo.row_ids = None
        self._memo.degrees = None

    def row(self, i: int):
        """(columns, values) of row ``i``; values is None for pattern."""
        if not 0 <= i < self.nrows:
            raise IndexOutOfBounds(f"row {i} out of range [0, {self.nrows})")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        cols = self.indices[lo:hi]
        vals = None if self.values is None else self.values[lo:hi]
        return cols, vals

    def get(self, i: int, j: int):
        """Value at (i, j), or None if the entry is not explicit."""
        cols, vals = self.row(i)
        pos = np.searchsorted(cols, j)
        if pos < len(cols) and cols[pos] == j:
            return True if vals is None else vals[pos]
        return None

    def value_array(self, dtype=np.float64) -> np.ndarray:
        """values, or an implicit all-ones array for pattern matrices."""
        if self.values is not None:
            return self.values
        return np.ones(self.nvals, dtype=dtype)

    # ------------------------------------------------------------------
    # Transformations (pure; callers account for their cost)
    # ------------------------------------------------------------------
    def with_values(self, values: Optional[np.ndarray]) -> "CSRMatrix":
        """This structure carrying other ``values`` (None: pattern-only).

        No copy: the result shares ``indptr``/``indices`` (read-only by
        convention) and the structural memo, so plans derived through
        either matrix serve both.
        """
        out = CSRMatrix(self.nrows, self.ncols, self.indptr, self.indices,
                        values)
        out._memo = self._memo
        return out

    def transpose_plan(self) -> Tuple[np.ndarray, "CSRMatrix"]:
        """``(order, pattern)``: how to transpose anything of this structure.

        ``order`` is the stable permutation that sorts the entries by
        column — entry ``k`` of the transpose is entry ``order[k]`` of this
        matrix — and ``pattern`` the pattern-only CSR of the transposed
        structure.  Both are pure functions of structure, memoized in the
        plan cache; the arrays are read-only.
        """
        return plancache.cached(self, "transpose", (), self._derive_transpose)

    def _derive_transpose(self) -> Tuple[np.ndarray, "CSRMatrix"]:
        # LSD radix sort of the column ids: numpy's stable sort of 16-bit
        # keys is a counting sort, so one O(nnz) pass per 16-bit digit
        # yields np.argsort(self.indices, kind="stable") exactly.
        order = np.argsort(self.indices.astype(np.uint16), kind="stable")
        if self.ncols > 1 << 16:
            high = (self.indices >> 16).astype(np.uint16)
            order = order[np.argsort(high[order], kind="stable")]
        if self.nvals < 1 << 31:
            order = order.astype(np.int32)
        counts = np.bincount(self.indices, minlength=self.ncols)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(PTR_DTYPE)
        # Row ids in the index dtype, not via row_ids(): that memo is int64
        # and would stay on this structure for as long as the plan does.
        indices = np.repeat(np.arange(self.nrows, dtype=INDEX_DTYPE),
                            self.row_degrees())[order]
        for plan_array in (order, indptr, indices):
            plan_array.setflags(write=False)
        return order, CSRMatrix(self.ncols, self.nrows, indptr, indices)

    def transpose(self) -> "CSRMatrix":
        """The transposed matrix, also in CSR (i.e. this matrix's CSC view)."""
        order, pattern = self.transpose_plan()
        return pattern.with_values(
            None if self.values is None else self.values[order])

    def extract_tril(self, strict: bool = True) -> "CSRMatrix":
        """Lower-triangular part (col < row, or <= when not strict)."""
        return self._triangular(lower=True, strict=strict)

    def extract_triu(self, strict: bool = True) -> "CSRMatrix":
        """Upper-triangular part (col > row, or >= when not strict)."""
        return self._triangular(lower=False, strict=strict)

    def _triangular(self, lower: bool, strict: bool) -> "CSRMatrix":
        rows = self.row_ids()
        if lower:
            keep = self.indices < rows if strict else self.indices <= rows
        else:
            keep = self.indices > rows if strict else self.indices >= rows
        return self.filter_entries(keep)

    def filter_entries(self, keep: np.ndarray) -> "CSRMatrix":
        """New matrix keeping only entries where ``keep`` (bool mask) holds."""
        if len(keep) != self.nvals:
            raise DimensionMismatch("keep mask length must equal nvals")
        new_rows = self.row_ids()[keep]
        counts = np.bincount(new_rows, minlength=self.nrows)
        new_indptr = np.concatenate(([0], np.cumsum(counts))).astype(PTR_DTYPE)
        return CSRMatrix(
            self.nrows,
            self.ncols,
            new_indptr,
            self.indices[keep],
            None if self.values is None else self.values[keep],
        )

    def permute(self, perm: np.ndarray) -> "CSRMatrix":
        """Symmetric relabeling: row/col i of the result is ``perm[i]`` of self.

        ``perm`` maps new ids to old ids (i.e. it is the ordering such that
        ``new[i] = old[perm[i]]``), as produced by ``np.argsort(degrees)``.
        """
        if len(perm) != self.nrows or self.nrows != self.ncols:
            raise DimensionMismatch("permute requires a square matrix and full perm")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm), dtype=perm.dtype)
        new_rows = inverse[self.row_ids()].astype(np.int64)
        new_cols = inverse[self.indices].astype(INDEX_DTYPE)
        vals = self.values
        return build_csr(
            self.nrows, self.ncols, new_rows, new_cols,
            None if vals is None else vals, dedup="error",
        )

    def copy(self) -> "CSRMatrix":
        """Deep copy of all storage arrays."""
        return CSRMatrix(
            self.nrows,
            self.ncols,
            self.indptr.copy(),
            self.indices.copy(),
            None if self.values is None else self.values.copy(),
        )

    def to_scipy(self):
        """Convert to scipy.sparse.csr_matrix (test oracle helper)."""
        import scipy.sparse as sp

        vals = self.value_array()
        return sp.csr_matrix(
            (vals, self.indices, self.indptr), shape=(self.nrows, self.ncols)
        )

    def __repr__(self):
        kind = "pattern" if self.values is None else str(self.values.dtype)
        return (
            f"CSRMatrix({self.nrows}x{self.ncols}, nvals={self.nvals}, {kind})"
        )


def build_csr(
    nrows: int,
    ncols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    values: Optional[np.ndarray] = None,
    dedup: str = "last",
) -> CSRMatrix:
    """Build a CSR matrix from COO triples, sorting and deduplicating.

    ``dedup`` chooses what happens to duplicate (row, col) pairs: ``"last"``
    keeps the last value, ``"sum"`` and ``"min"`` combine, ``"error"`` raises.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if len(rows) != len(cols):
        raise DimensionMismatch("rows and cols must have equal length")
    if values is not None and len(values) != len(rows):
        raise DimensionMismatch("values length must match rows/cols")
    if len(rows) and (rows.min() < 0 or rows.max() >= nrows):
        raise IndexOutOfBounds("row index out of range")
    if len(cols) and (cols.min() < 0 or cols.max() >= ncols):
        raise IndexOutOfBounds("col index out of range")

    keys = rows * ncols + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values_sorted = None if values is None else np.asarray(values)[order]

    unique_keys, first_pos = np.unique(keys, return_index=True)
    if len(unique_keys) != len(keys):
        if dedup == "error":
            raise InvalidValue("duplicate (row, col) entries")
        if values_sorted is not None:
            if dedup == "last":
                # Last occurrence of each key in the stable order.
                last_pos = np.concatenate((first_pos[1:], [len(keys)])) - 1
                values_sorted = values_sorted[last_pos]
            elif dedup in ("sum", "min"):
                # Duplicate runs are contiguous in the stable key order, so
                # first_pos doubles as the reduction's row_splits — and the
                # reduction happens in the value dtype itself (the seed's
                # float64 round-trip truncated int64 and dropped dtype).
                splits = np.concatenate((first_pos, [len(keys)]))
                values_sorted = segment_reduce(
                    values_sorted, None, len(unique_keys),
                    "plus" if dedup == "sum" else "min",
                    dtype=values_sorted.dtype, row_splits=splits,
                )
            else:
                raise InvalidValue(f"unknown dedup policy {dedup!r}")
    elif values_sorted is not None and dedup == "last":
        pass  # already unique

    out_rows = (unique_keys // ncols).astype(np.int64)
    out_cols = (unique_keys % ncols).astype(INDEX_DTYPE)
    if values_sorted is not None and len(values_sorted) != len(unique_keys):
        values_sorted = values_sorted[: len(unique_keys)]
    counts = np.bincount(out_rows, minlength=nrows)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(PTR_DTYPE)
    return CSRMatrix(nrows, ncols, indptr, out_cols, values_sorted)


def expand_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[k], stops[k])`` without a Python loop.

    The index-expansion primitive underneath :func:`gather_rows` and the
    merge-join engine: turns per-row (or per-slice) boundary pairs into the
    flat positions they cover, in order.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lens = stops - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(lens)))
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - bounds[:-1], lens)
    return out


def gather_rows(matrix: CSRMatrix, rows: np.ndarray):
    """Concatenate several CSR rows without a Python loop.

    Returns ``(cols, val_positions, segment_ids)`` where ``cols`` is the
    concatenation of ``matrix.indices`` slices for each requested row,
    ``val_positions`` indexes into ``matrix.indices``/``matrix.values`` and
    ``segment_ids[k]`` tells which position of ``rows`` element ``k`` came
    from.  This is the workhorse of the vectorized SpMV/SpGEMM kernels.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = matrix.indptr[rows]
    lens = matrix.indptr[rows + 1] - starts
    positions = expand_ranges(starts, starts + lens)
    if len(positions) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty.astype(INDEX_DTYPE), empty, empty
    segment_ids = np.repeat(np.arange(len(rows), dtype=np.int64), lens)
    return matrix.indices[positions], positions, segment_ids
