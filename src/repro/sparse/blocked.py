"""Row-partitioned (blocked) CSR storage and shard-wise kernel drivers.

A :class:`BlockedCSR` splits one logical sparse matrix into contiguous
**row-range shards**.  Each :class:`CSRShard` is a self-contained local
``(indptr, indices, values)`` triple (a :class:`~repro.sparse.csr.CSRMatrix`
over its own rows, with global column ids) plus the structural metadata the
planners want without touching the payload arrays: ``nnz`` and the degree
extrema.  Because every shard *is* a ``CSRMatrix``, each one carries its own
``_plan_cache``/``row_ids`` memo slots, so the plan cache of
:mod:`repro.sparse.plancache` keys per shard exactly as it keys per matrix.

Two properties make this the storage substrate for out-of-core graphs:

* **Lazy shards.**  A shard may be constructed from a ``loader`` callable
  instead of live arrays (the artifact store passes ``np.load(...,
  mmap_mode="r")`` thunks).  ``shard.csr`` materializes on first touch and
  ``shard.release()`` drops the reference again, so a shard-wise sweep maps
  one shard at a time and its peak incremental resident set is O(shard),
  not O(graph) — measured, not just claimed, in
  ``benchmarks/bench_artifacts.py``.
* **Bit-identical results.**  The shard-wise drivers below (`spmv_pull`,
  `vxm_push`, `spgemm_saxpy`, `spgemm_masked_dot`) partition only the *row*
  dimension, and every one of the monolithic kernels reduces rows
  independently (SpMV pull) or streams contributions in row-major order
  (push / SAXPY / masked dot), so concatenating per-shard outputs
  reproduces the monolithic result byte for byte.  Sharding changes where
  the bytes live, never what a kernel computes or what the machine model
  charges — the reproducibility invariant the artifact store relies on.

The monolithic kernels in :mod:`repro.sparse.spmv` and
:mod:`repro.sparse.spgemm` accept a ``BlockedCSR`` for their matrix operand
and delegate here, so callers never need to know which storage they hold.

``REPRO_SHARD_ROWS`` sets the default shard geometry (rows per shard); the
default keeps every built-in study graph in a single shard, which makes
``to_csr()`` a zero-copy view over the (possibly mmap-backed) shard arrays.

``REPRO_KERNEL_THREADS`` fans the shard loops below out over the
persistent thread pool of :mod:`repro.sparse.parallel` (the shard kernels
are numpy-bound and release the GIL).  Partials always merge in fixed
shard order, so the result bytes are independent of the thread count;
every shard task starts with a :func:`repro.engine.cancel.check`, so a
tripped deadline stops a long SpGEMM at the next shard boundary instead
of the next OpEvent boundary.  Shard-task plan memos key on each shard's
own ``_plan_cache`` slot; the shared right-hand operands' memos are
guarded by the plan cache's lock (see :mod:`repro.sparse.plancache`).
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple

import numpy as np

import repro.sparse.spgemm as _spgemm
import repro.sparse.spmv as _spmv
from repro.engine import cancel
from repro.errors import DimensionMismatch, InvalidValue, env_value
from repro.sparse import parallel
from repro.sparse.csr import CSRMatrix, INDEX_DTYPE, PTR_DTYPE
from repro.sparse.segreduce import group_reduce, segment_reduce

#: Rows per shard when ``REPRO_SHARD_ROWS`` is unset.  Large enough that
#: each of the nine study twins stays monolithic (single shard, zero-copy
#: ``to_csr``); small enough that beyond-RAM graphs split usefully.
DEFAULT_SHARD_ROWS = 1 << 16


def shard_rows_from_env(environ: Optional[dict] = None) -> int:
    """The ``REPRO_SHARD_ROWS`` knob, validated (positive int)."""
    env = os.environ if environ is None else environ
    return env_value(env, "REPRO_SHARD_ROWS", int, DEFAULT_SHARD_ROWS, low=1)


def shard_bounds(nrows: int, shard_rows: int) -> List[Tuple[int, int]]:
    """Contiguous ``(row_start, row_stop)`` ranges covering ``[0, nrows)``.

    An empty matrix still gets one empty shard so every ``BlockedCSR`` has
    at least one shard to anchor shape metadata.
    """
    if shard_rows < 1:
        raise InvalidValue(f"shard_rows must be >= 1; got {shard_rows}")
    if nrows <= 0:
        return [(0, 0)]
    return [(lo, min(lo + shard_rows, nrows))
            for lo in range(0, nrows, shard_rows)]


def row_slice(csr: CSRMatrix, start: int, stop: int) -> CSRMatrix:
    """The rows ``[start, stop)`` of ``csr`` as a local CSRMatrix.

    ``indices``/``values`` are zero-copy views into the parent's arrays;
    only the O(rows) local ``indptr`` is fresh.  Column ids stay global.
    """
    if not 0 <= start <= stop <= csr.nrows:
        raise DimensionMismatch(
            f"row range [{start}, {stop}) outside [0, {csr.nrows})")
    lo = int(csr.indptr[start])
    hi = int(csr.indptr[stop]) if stop > start else lo
    local_indptr = csr.indptr[start:stop + 1] - lo
    if stop == start:
        local_indptr = np.zeros(1, dtype=PTR_DTYPE)
    return CSRMatrix(
        stop - start, csr.ncols, local_indptr,
        csr.indices[lo:hi],
        None if csr.values is None else csr.values[lo:hi])


class CSRShard:
    """One row-range shard: a local CSR plus structural metadata.

    Exactly one of ``csr`` / ``loader`` must be given.  A loader-backed
    shard materializes its arrays on first ``.csr`` access (the artifact
    store's mmap path) and can be dropped again with :meth:`release`;
    metadata (``nnz``, degree extrema) comes from the manifest, so planning
    a sweep over a blocked graph touches no payload bytes.
    """

    __slots__ = ("row_start", "row_stop", "nnz", "degree_min", "degree_max",
                 "_csr", "_loader")

    def __init__(self, row_start: int, row_stop: int,
                 csr: Optional[CSRMatrix] = None,
                 loader: Optional[Callable[[], CSRMatrix]] = None,
                 nnz: Optional[int] = None,
                 degree_min: Optional[int] = None,
                 degree_max: Optional[int] = None):
        if (csr is None) == (loader is None):
            raise InvalidValue("a shard wants exactly one of csr/loader")
        self.row_start = int(row_start)
        self.row_stop = int(row_stop)
        self._csr = csr
        self._loader = loader
        if csr is not None:
            if csr.nrows != self.nrows:
                raise DimensionMismatch(
                    f"shard rows [{row_start}, {row_stop}) but local CSR "
                    f"has {csr.nrows} rows")
            degrees = csr.row_degrees()
            nnz = csr.nvals
            degree_min = int(degrees.min()) if len(degrees) else 0
            degree_max = int(degrees.max()) if len(degrees) else 0
        elif nnz is None or degree_min is None or degree_max is None:
            raise InvalidValue(
                "a loader-backed shard wants nnz/degree_min/degree_max "
                "metadata up front")
        self.nnz = int(nnz)
        self.degree_min = int(degree_min)
        self.degree_max = int(degree_max)

    @property
    def nrows(self) -> int:
        """Rows this shard covers."""
        return self.row_stop - self.row_start

    @property
    def loaded(self) -> bool:
        """Whether the payload arrays are currently materialized."""
        return self._csr is not None

    @property
    def csr(self) -> CSRMatrix:
        """The shard's local CSR, materializing a lazy shard on demand."""
        if self._csr is None:
            csr = self._loader()
            if csr.nrows != self.nrows or csr.nvals != self.nnz:
                raise InvalidValue(
                    f"shard loader returned {csr.nrows} rows/{csr.nvals} "
                    f"entries, manifest says {self.nrows}/{self.nnz}")
            self._csr = csr
        return self._csr

    def release(self) -> None:
        """Drop a lazy shard's arrays (and their plan memos) again.

        A shard constructed from live arrays keeps them — only
        loader-backed shards can re-materialize, so only they release.
        """
        if self._loader is not None:
            self._csr = None

    def __repr__(self):
        state = "loaded" if self.loaded else "lazy"
        return (f"CSRShard(rows=[{self.row_start}, {self.row_stop}), "
                f"nnz={self.nnz}, deg=[{self.degree_min}, "
                f"{self.degree_max}], {state})")


class BlockedCSR:
    """A logical sparse matrix stored as contiguous row-range shards."""

    __slots__ = ("nrows", "ncols", "shards", "_monolith")

    def __init__(self, nrows: int, ncols: int, shards: List[CSRShard]):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.shards = list(shards)
        self._monolith: Optional[CSRMatrix] = None
        if not self.shards:
            raise InvalidValue("a BlockedCSR wants at least one shard")
        expect = 0
        for shard in self.shards:
            if shard.row_start != expect:
                raise DimensionMismatch(
                    f"shard starting at row {shard.row_start} leaves a gap "
                    f"(expected {expect})")
            expect = shard.row_stop
        if expect != self.nrows:
            raise DimensionMismatch(
                f"shards cover {expect} rows, matrix has {self.nrows}")

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: CSRMatrix,
                 shard_rows: Optional[int] = None) -> "BlockedCSR":
        """Partition a monolithic CSR into row-range view shards.

        Shard ``indices``/``values`` are zero-copy views; only the local
        ``indptr`` arrays (O(rows) total) are fresh.
        """
        shard_rows = shard_rows_from_env() if shard_rows is None \
            else int(shard_rows)
        shards = [CSRShard(lo, hi, csr=row_slice(csr, lo, hi))
                  for lo, hi in shard_bounds(csr.nrows, shard_rows)]
        return cls(csr.nrows, csr.ncols, shards)

    @property
    def nvals(self) -> int:
        """Explicit entries, summed over shard metadata (no payload touch)."""
        return sum(shard.nnz for shard in self.shards)

    @property
    def nshards(self) -> int:
        return len(self.shards)

    @property
    def nbytes(self) -> int:
        """Payload bytes of the materialized form (metadata-derived)."""
        entry = INDEX_DTYPE().itemsize
        ptr = PTR_DTYPE().itemsize
        total = (self.nrows + self.nshards) * ptr + self.nvals * entry
        for shard in self.shards:
            if shard.loaded and shard.csr.values is not None:
                total += shard.csr.values.nbytes
        return total

    def iter_shards(self, release: bool = False):
        """Yield each shard in row order; ``release=True`` drops each lazy
        shard's arrays after its iteration step (the streaming sweep)."""
        for shard in self.shards:
            yield shard
            if release:
                shard.release()

    def row_degrees(self) -> np.ndarray:
        """Per-row explicit-entry counts, concatenated shard-by-shard."""
        return np.concatenate(
            [shard.csr.row_degrees() for shard in self.shards])

    def reduce_rows(self, monoid, values: Optional[np.ndarray] = None,
                    dtype=np.float64) -> np.ndarray:
        """Shard-wise segment reduction of per-entry values into rows.

        ``values`` is entry-aligned over the whole matrix (defaults to the
        stored values / implicit ones); each shard reduces through
        :func:`repro.sparse.segreduce.segment_reduce` with its own
        ``indptr`` as ``row_splits``, so the working set is one shard
        per kernel thread.
        """
        dtype = np.dtype(dtype)
        offsets = np.concatenate(
            ([0], np.cumsum([shard.nnz for shard in self.shards])))

        def task(entry):
            shard, offset = entry
            cancel.check()
            csr = shard.csr
            if values is None:
                vals = csr.value_array(dtype)
            else:
                vals = values[offset:offset + shard.nnz]
            return segment_reduce(vals, None, csr.nrows, monoid,
                                  dtype=dtype, row_splits=csr.indptr,
                                  cache_on=csr)

        threads = parallel.effective_threads(self.nshards)
        out = parallel.map_shards(task, zip(self.shards, offsets),
                                  threads=threads)
        parallel.record_fanout(self.nshards, threads)
        return np.concatenate(out) if len(out) > 1 else out[0]

    def to_csr(self) -> CSRMatrix:
        """The monolithic CSR (memoized).

        Single-shard blocks — the default geometry for every study graph —
        return the shard's CSR itself: zero copies, so an mmap-backed
        artifact stays mmap-backed.  Multi-shard blocks concatenate.
        """
        if self._monolith is not None:
            return self._monolith
        if len(self.shards) == 1:
            self._monolith = self.shards[0].csr
            return self._monolith
        indptr = np.zeros(self.nrows + 1, dtype=PTR_DTYPE)
        chunks_idx = []
        chunks_val = []
        offset = 0
        has_values = None
        for shard in self.shards:
            csr = shard.csr
            indptr[shard.row_start + 1:shard.row_stop + 1] = \
                csr.indptr[1:] + offset
            offset += csr.nvals
            chunks_idx.append(csr.indices)
            if has_values is None:
                has_values = csr.values is not None
            elif has_values != (csr.values is not None):
                raise InvalidValue("shards disagree on having values")
            if csr.values is not None:
                chunks_val.append(csr.values)
        indices = (np.concatenate(chunks_idx) if chunks_idx
                   else np.empty(0, dtype=INDEX_DTYPE))
        values = np.concatenate(chunks_val) if chunks_val else None
        self._monolith = CSRMatrix(self.nrows, self.ncols, indptr,
                                   indices, values)
        return self._monolith

    def release(self) -> None:
        """Drop every lazy shard's arrays and the monolith memo."""
        self._monolith = None
        for shard in self.shards:
            shard.release()

    def __repr__(self):
        return (f"BlockedCSR({self.nrows}x{self.ncols}, "
                f"nvals={self.nvals}, shards={self.nshards})")


def is_blocked(matrix) -> bool:
    """Duck-typed blocked check used by the kernel dispatchers."""
    return isinstance(matrix, BlockedCSR)


# ----------------------------------------------------------------------
# Shard-wise kernel drivers (bit-identical to their monolithic twins)
# ----------------------------------------------------------------------

def spmv_pull(A: BlockedCSR, x: np.ndarray, add, mult, out_dtype=None,
              release: bool = False):
    """Shard-wise ``y = A (+.x) x`` (SDOT pull).  Same contract as
    :func:`repro.sparse.spmv.spmv_pull`.

    Rows reduce independently, so per-shard outputs concatenate to the
    monolithic result bit for bit while the working set (the products
    array) is O(shard) per thread.  ``release=True`` drops each lazy
    shard's mmap after its rows are done — the streaming sweep stays
    O(threads x shard) resident.
    """
    def task(shard):
        cancel.check()
        try:
            return _spmv.spmv_pull(shard.csr, x, add, mult,
                                   out_dtype=out_dtype)
        finally:
            if release:
                shard.release()

    threads = parallel.effective_threads(A.nshards)
    parts = parallel.map_shards(task, A.shards, threads=threads)
    parallel.record_fanout(A.nshards, threads)
    flops = sum(part[2] for part in parts)
    if len(parts) == 1:
        return parts[0][0], parts[0][1], flops
    return (np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]), flops)


def vxm_push(A: BlockedCSR, x_idx: np.ndarray, x_vals: np.ndarray,
             add, mult, out_dtype=None, release: bool = False):
    """Shard-wise sparse ``y' = x' (+.x) A`` (SAXPY push).

    ``x_idx`` must be sorted ascending (every call site's frontiers are).
    Each shard gathers the contributions of the frontier entries landing
    in its row range; the streams concatenate in exactly the order the
    monolithic gather produces, and one final reduction combines them —
    bit-identical to :func:`repro.sparse.spmv.vxm_push`.
    """
    out_dtype = np.dtype(out_dtype or x_vals.dtype)
    if len(x_idx) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.astype(out_dtype), 0
    starts = np.searchsorted(
        x_idx, [shard.row_start for shard in A.shards], side="left")
    stops = np.searchsorted(
        x_idx, [shard.row_stop for shard in A.shards], side="left")

    def task(entry):
        shard, lo, hi = entry
        cancel.check()
        if hi == lo:
            if release:
                shard.release()
            return None
        try:
            csr = shard.csr
            local_idx = x_idx[lo:hi] - shard.row_start
            cols, positions, seg = _spmv.gather_rows(csr, local_idx)
            if not len(cols):
                return None
            a_vals = (np.ones(len(cols), dtype=out_dtype)
                      if csr.values is None
                      else csr.values[positions].astype(out_dtype,
                                                        copy=False))
            seg_vals = x_vals[lo:hi][seg].astype(out_dtype, copy=False)
            return cols.astype(np.int64), mult.apply(seg_vals, a_vals)
        finally:
            if release:
                shard.release()

    threads = parallel.effective_threads(A.nshards)
    parts = parallel.map_shards(task, zip(A.shards, starts, stops),
                                threads=threads)
    parallel.record_fanout(A.nshards, threads)
    chunks_cols = [part[0] for part in parts if part is not None]
    chunks_products = [part[1] for part in parts if part is not None]
    flops = sum(len(chunk) for chunk in chunks_cols)
    if not chunks_cols:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.astype(out_dtype), 0
    cols = np.concatenate(chunks_cols) if len(chunks_cols) > 1 \
        else chunks_cols[0]
    products = np.concatenate(chunks_products) \
        if len(chunks_products) > 1 else chunks_products[0]
    y_idx, y_vals = group_reduce(cols, products, A.ncols, add,
                                 dtype=out_dtype)
    return y_idx, y_vals, flops


def _stack_row_blocks(blocks: List[CSRMatrix], nrows: int,
                      ncols: int) -> CSRMatrix:
    """Vertically concatenate row-range result blocks into one CSR."""
    indptr = np.zeros(nrows + 1, dtype=PTR_DTYPE)
    chunks_idx = []
    chunks_val = []
    offset = 0
    row = 0
    for block in blocks:
        indptr[row + 1:row + block.nrows + 1] = block.indptr[1:] + offset
        offset += block.nvals
        row += block.nrows
        chunks_idx.append(block.indices)
        if block.values is not None:
            chunks_val.append(block.values)
    indices = (np.concatenate(chunks_idx) if chunks_idx
               else np.empty(0, dtype=INDEX_DTYPE))
    values = np.concatenate(chunks_val) if chunks_val else None
    return CSRMatrix(nrows, ncols, indptr, indices, values)


def spgemm_saxpy(A: BlockedCSR, B: CSRMatrix, add, mult,
                 out_dtype=np.float64,
                 batch_flops: int = _spgemm.DEFAULT_BATCH_FLOPS,
                 release: bool = False):
    """Shard-wise SAXPY SpGEMM over ``A``'s row shards.

    Each output row is produced entirely by the shard owning it (the
    monolithic kernel already batches by whole rows), so stacking the
    per-shard blocks is bit-identical to the monolithic product.
    """
    def task(shard):
        cancel.check()
        try:
            return _spgemm.spgemm_saxpy(shard.csr, B, add, mult,
                                        out_dtype=out_dtype,
                                        batch_flops=batch_flops)
        finally:
            if release:
                shard.release()

    threads = parallel.effective_threads(A.nshards)
    parts = parallel.map_shards(task, A.shards, threads=threads)
    parallel.record_fanout(A.nshards, threads)
    blocks = [part[0] for part in parts]
    flops = sum(part[1] for part in parts)
    if len(blocks) == 1:
        return blocks[0], flops
    return _stack_row_blocks(blocks, A.nrows, B.ncols), flops


def spgemm_masked_dot(A: BlockedCSR, Bt: CSRMatrix, mask: CSRMatrix,
                      add, mult, out_dtype=np.float64,
                      release: bool = False):
    """Shard-wise masked SDOT SpGEMM: ``C<mask> = A @ Bt'``.

    The mask is row-sliced along ``A``'s shard bounds so each shard joins
    only its own mask rows through the merge-join engine — shard-by-shard
    row intersections, O(shard) candidate buffers.
    """
    if A.nrows != mask.nrows:
        raise DimensionMismatch("mask rows must match A rows")

    def task(shard):
        cancel.check()
        try:
            mask_block = row_slice(mask, shard.row_start, shard.row_stop)
            return _spgemm.spgemm_masked_dot(shard.csr, Bt, mask_block,
                                             add, mult,
                                             out_dtype=out_dtype)
        finally:
            if release:
                shard.release()

    threads = parallel.effective_threads(A.nshards)
    parts = parallel.map_shards(task, A.shards, threads=threads)
    parallel.record_fanout(A.nshards, threads)
    blocks = [part[0] for part in parts]
    work = sum(part[1] for part in parts)
    if len(blocks) == 1:
        return blocks[0], work
    return _stack_row_blocks(blocks, A.nrows, mask.ncols), work
