"""Wall-clock microbenchmarks for the segment reduction engine.

Unlike every other ``bench_*`` module — which regenerates *modeled* numbers
from the paper's machine model — this one measures real numpy execution
time, validating that the engine's plan selection actually wins on the
interpreter the repo runs on.  It is a plain script (no pytest tests): run

    PYTHONPATH=src python benchmarks/bench_wallclock.py

and it writes ``BENCH_kernels.json`` at the repo root in well under two
minutes.  ``docs/MODEL.md`` ("Wall-clock vs modeled time") explains how
these numbers relate to the modeled results under ``results/``.

What is measured, per pattern the engine replaced:

* ``scatter_min_1m`` — the sssp/bfs-parent relaxation: min-scatter 1M
  candidate distances.  The baseline is the call-site idiom the kernels
  used before the engine: ``np.minimum.at`` with the value array in its
  natural dtype, which numpy silently routes to the generic unbuffered
  loop whenever a cast is involved.  The engine pre-casts and hits the
  indexed fast loop (numpy >= 1.24).  The dtype-matched ``ufunc.at`` time
  is reported too, so the table never hides that numpy itself is fast when
  called carefully — the engine's job is making that the only possibility.
* ``push_accumulate_1m`` — the vxm/mxv push pattern: the seed's
  ``np.unique(return_inverse=True)`` + reduce idiom vs
  :func:`repro.sparse.segreduce.group_reduce` (two bincount passes, no
  sort).
* ``row_reduce_1m`` — the SpMV-pull/reduce-to-vector pattern: scatter vs
  the ``row_splits`` reduceat plan that CSR ``indptr`` enables.
* ``pagerank_rmat16`` — end-to-end sanity: the lonestar pagerank kernel on
  an rmat scale-16 graph (~65k vertices, ~1M directed edges), engine path
  vs the same rounds with the seed's per-call idioms inlined.  The section
  also carries the GraphBLAS residual pagerank at the *same* iteration
  count (``graphblas_ms`` / ``graphblas_over_lonestar``) from the driver
  sweep below — the cross-stack comparison the paper is about, asserted
  <= 2.0x (3.0x ``--quick``): a GraphBLAS layer that copies its operands
  per call reads ~2.4x.
* ``graphblas_drivers`` — the LAGraph hot loops (pagerank/bfs/sssp, rmat
  scale-16) on :mod:`repro.graphblas.operations`: one ``engine_ms`` per
  driver, the steady-state plan-cache hit rate (asserted > 0.9) and the
  no-merge write-back counters (:mod:`repro.graphblas.pipeline`) over the
  timed runs.  ``pagerank_topology`` is ``pagerank_gb`` — the driver the
  registry dispatches for GB, which rebuilds the contribution matrix's
  CSC view every round — asserted <= 3.0x Lonestar pr (4.5x ``--quick``;
  re-sorting the unchanged structure each round reads ~8x) with the
  ``transpose`` plan's own hit rate asserted > 0.9.

And, per pattern the merge-join engine (:mod:`repro.sparse.join`)
replaced — each against a retained copy of the seed's per-row loop, on a
~1M-edge bounded-degree road lattice (the regime where per-row Python
overhead dominates; see :func:`_tc_graph`):

* ``masked_dot_tc`` — the SandiaDot masked SpGEMM ``C<L> = L * L'`` of
  the tc pipeline, all mask rows joined in one batched call vs one Python
  iteration per matrix row.
* ``tricount_lower`` — ``count_triangles_lower`` on the same L.
* ``ktruss_supports`` — the ktruss initial ``edge_supports`` pass
  (aliveness-filtered intersections) on the symmetric pattern; and, on a
  power-law Chung-Lu graph, the same pass (each triangle listed once,
  :func:`repro.sparse.tricount.symmetric_supports`) against the generic
  ``row_pair_join`` self-join it replaced, asserted >= 5x in both modes.

``--quick`` shrinks the graph/array sizes and repeat counts for the CI
perf-smoke job (floor ratio 2x instead of the full run's 5x).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_kernels.json"

N_ENTRIES = 1_000_000
N_SEGMENTS = 65_536
REPEATS = 5


def best_of(fn, repeats=None):
    """Best-of-N wall time in milliseconds (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(REPEATS if repeats is None else repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def bench_scatter_min(rng):
    from repro.sparse.segreduce import segment_reduce

    ids = rng.integers(0, N_SEGMENTS, N_ENTRIES)
    cand = rng.integers(0, 2**40, N_ENTRIES)  # int64 candidate distances
    inf = np.finfo(np.float64).max

    def baseline_generic():
        # The pre-engine call-site idiom: float64 distances, int64
        # candidates — the cast demotes .at to the unbuffered loop.
        out = np.full(N_SEGMENTS, inf)
        np.minimum.at(out, ids, cand)
        return out

    def baseline_indexed():
        out = np.full(N_SEGMENTS, inf)
        np.minimum.at(out, ids, cand.astype(np.float64))
        return out

    def engine():
        return segment_reduce(cand, ids, N_SEGMENTS, "min", dtype=np.float64)

    assert np.array_equal(baseline_generic(), engine())
    generic = best_of(baseline_generic)
    indexed = best_of(baseline_indexed)
    engine_ms = best_of(engine)
    return {
        "baseline_ufunc_at_ms": round(generic, 3),
        "baseline_ufunc_at_dtype_matched_ms": round(indexed, 3),
        "engine_ms": round(engine_ms, 3),
        "speedup_vs_ufunc_at": round(generic / engine_ms, 1),
    }


def bench_push_accumulate(rng):
    from repro.sparse.segreduce import group_reduce

    keys = rng.integers(0, N_SEGMENTS, N_ENTRIES)
    values = rng.standard_normal(N_ENTRIES)

    def baseline_unique():
        uniq, inverse = np.unique(keys, return_inverse=True)
        acc = np.zeros(len(uniq))
        np.add.at(acc, inverse, values)
        return uniq, acc

    def engine():
        return group_reduce(keys, values, N_SEGMENTS, "plus",
                            dtype=np.float64)

    bk, bv = baseline_unique()
    ek, ev = engine()
    assert np.array_equal(bk, ek) and np.allclose(bv, ev)
    baseline = best_of(baseline_unique)
    engine_ms = best_of(engine)
    return {
        "baseline_unique_ms": round(baseline, 3),
        "engine_ms": round(engine_ms, 3),
        "speedup_vs_unique": round(baseline / engine_ms, 1),
    }


def bench_row_reduce(rng):
    from repro.sparse.segreduce import segment_reduce

    lens = rng.multinomial(N_ENTRIES, np.full(N_SEGMENTS, 1 / N_SEGMENTS))
    splits = np.concatenate(([0], np.cumsum(lens)))
    rows = np.repeat(np.arange(N_SEGMENTS, dtype=np.int64), lens)
    values = rng.integers(0, 100, int(splits[-1]))

    def baseline_scatter():
        out = np.full(N_SEGMENTS, np.iinfo(np.int64).max)
        np.minimum.at(out, rows, values)
        return out

    def engine():
        return segment_reduce(values, None, N_SEGMENTS, "min",
                              dtype=np.int64, row_splits=splits)

    assert np.array_equal(baseline_scatter(), engine())
    baseline = best_of(baseline_scatter)
    engine_ms = best_of(engine)
    return {
        "baseline_scatter_ms": round(baseline, 3),
        "engine_row_splits_ms": round(engine_ms, 3),
        "speedup": round(baseline / engine_ms, 1),
    }


#: Both stacks run pagerank for the same number of rounds.
PAGERANK_ITERS = 10


def bench_pagerank(iters=PAGERANK_ITERS):
    from repro.galois.graph import Graph
    from repro.graphs.generators import rmat
    from repro.lonestar import pagerank
    from repro.perf.machine import Machine
    from repro.runtime.galois_rt import GaloisRuntime
    from repro.sparse.csr import build_csr

    n, src, dst = rmat(16)
    csr = build_csr(n, n, src, dst, None)

    def engine():
        return pagerank(Graph(GaloisRuntime(Machine()), csr), iters=iters)

    def baseline_rounds():
        # The same residual rounds with the seed's per-call idioms inlined
        # (np.add.at scatter; the modeled loop charges are skipped, which
        # only *under*states the baseline).
        damping = 0.85
        base = (1.0 - damping) / n
        rank = np.full(n, base)
        residual = np.full(n, base)
        out_deg = np.diff(csr.indptr).astype(np.float64)
        safe_deg = np.where(out_deg == 0, 1.0, out_deg)
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        for _ in range(iters):
            active = np.flatnonzero(residual > 0)
            sel = np.isin(rows, active)
            dsts = csr.indices[sel]
            seg_src = rows[sel]
            contrib = damping * residual / safe_deg
            new_residual = np.zeros(n)
            np.add.at(new_residual, dsts, contrib[seg_src])
            rank += new_residual
            residual = new_residual
        return rank

    assert np.array_equal(engine(), baseline_rounds())
    return {
        "graph": "rmat16",
        "nnodes": int(csr.nrows),
        "nedges": int(csr.nvals),
        "iters": iters,
        "baseline_ms": round(best_of(baseline_rounds, repeats=3), 3),
        "engine_ms": round(best_of(engine, repeats=3), 3),
    }


def bench_graphblas_drivers(quick, iters=PAGERANK_ITERS):
    """The LAGraph hot loops on the GraphBLAS operation layer.

    Times the three round-based drivers on one backend/graph.  The
    plan-cache and write-back counters are reset after the warmup so the
    reported hit rate reflects steady-state iterations only.
    """
    import repro.graphblas as gb
    from repro.galoisblas import GaloisBLASBackend
    from repro.graphblas import pipeline
    from repro.graphs.generators import rmat
    from repro.lagraph import bfs, delta_stepping, pagerank_gb, pagerank_gb_res
    from repro.perf.machine import Machine
    from repro.sparse import plancache
    from repro.sparse.csr import build_csr

    scale = 16
    n, src, dst = rmat(scale)
    csr = build_csr(n, n, src, dst, None)
    rng = np.random.default_rng(7)
    wvals = rng.integers(1, 64, csr.nvals).astype(np.int64)
    wcsr = csr.with_values(wvals)

    backend = GaloisBLASBackend(Machine())
    A = gb.Matrix.from_csr(backend, gb.BOOL, csr, label="bench:A")
    Aw = gb.Matrix.from_csr(backend, gb.INT64, wcsr, label="bench:Aw")
    # The CSC view is built lazily on first use and cached on the Matrix;
    # build it off the clock so the runs time steady-state iterations.
    A.transposed_csr()
    Aw.transposed_csr()

    apps = {
        "pagerank": lambda: pagerank_gb_res(backend, A, iters=iters),
        "pagerank_topology": lambda: pagerank_gb(backend, A, iters=iters),
        "bfs": lambda: bfs(backend, A, 0),
        "sssp": lambda: delta_stepping(backend, Aw, 0, delta=32),
    }
    for fn in apps.values():
        fn()  # warmup
    plancache.reset_stats()
    pipeline.reset_fusion_stats()
    repeats = 2 if quick else 3
    times = {name: best_of(fn, repeats=repeats) for name, fn in apps.items()}

    hit_rate = plancache.hit_rate()
    section = {
        "graph": f"rmat{scale}",
        "nnodes": int(n),
        "nedges": int(csr.nvals),
        "pagerank_iters": iters,
        "plan_cache_hit_rate": (None if hit_rate is None
                                else round(hit_rate, 4)),
        "plan_cache": plancache.plan_cache_stats(),
        "fusion": pipeline.fusion_stats(),
    }
    for name in apps:
        section[name] = {"engine_ms": round(times[name], 3)}
    return section


# ----------------------------------------------------------------------
# Merge-join engine sections (repro.sparse.join) vs the retained per-row
# loops they replaced.
# ----------------------------------------------------------------------

def _tc_graph(quick):
    """Symmetric pattern + strict lower triangle of a road lattice.

    Bounded-degree road graphs are the per-row loops' worst regime — a
    few candidates per row cannot amortize ~20us of Python call overhead
    per row, which is precisely the overhead the batched join removes.
    (On skewed rmat graphs the per-row loop amortizes over hundreds of
    candidates per row and the gap narrows; the paper's road networks
    are this shape.)
    """
    from repro.graphs.generators import road_lattice
    from repro.sparse.csr import build_csr

    length, width = (500, 40) if quick else (3200, 100)
    n, src, dst = road_lattice(length, width)
    sym = build_csr(n, n, src, dst, None)
    return sym, sym.extract_tril(strict=True), f"road-lattice-{length}x{width}"


def _naive_masked_dot(A, Bt, mask, add, mult, out_dtype=np.float64):
    """The seed ``spgemm_masked_dot``: one Python iteration per mask row.

    The seed's in-loop full-array value materialization (O(nrows * nnz))
    is hoisted here so the baseline measures the per-row *loop*, not the
    separately-fixed cast bug — the reported speedup is the engine's own.
    """
    from repro.sparse.csr import CSRMatrix, INDEX_DTYPE, PTR_DTYPE, \
        gather_rows
    from repro.sparse.semiring_ops import SegmentReducer

    out_dtype = np.dtype(out_dtype)
    reducer = SegmentReducer(add)
    a_full = (None if A.values is None
              else A.values.astype(out_dtype, copy=False))
    b_full = (None if Bt.values is None
              else Bt.values.astype(out_dtype, copy=False))
    total_work = 0
    all_rows, all_cols, all_vals = [], [], []
    for i in range(mask.nrows):
        mlo, mhi = mask.indptr[i], mask.indptr[i + 1]
        if mlo == mhi:
            continue
        j_list = mask.indices[mlo:mhi].astype(np.int64)
        a_lo, a_hi = A.indptr[i], A.indptr[i + 1]
        a_cols = A.indices[a_lo:a_hi]
        if len(a_cols) == 0:
            continue
        cat_cols, cat_pos, seg = gather_rows(Bt, j_list)
        total_work += len(cat_cols)
        if len(cat_cols) == 0:
            continue
        pos = np.searchsorted(a_cols, cat_cols)
        pos_clipped = np.minimum(pos, len(a_cols) - 1)
        matched = a_cols[pos_clipped] == cat_cols
        if not matched.any():
            continue
        n_match = int(np.count_nonzero(matched))
        a_sel = (np.ones(n_match, dtype=out_dtype) if a_full is None
                 else a_full[a_lo:a_hi][pos_clipped[matched]])
        b_sel = (np.ones(n_match, dtype=out_dtype) if b_full is None
                 else b_full[cat_pos[matched]])
        products = mult.apply(a_sel, b_sel)
        seg_m = seg[matched]
        vals = reducer.reduce(products, seg_m, len(j_list), dtype=out_dtype)
        exists = reducer.touched(seg_m, len(j_list))
        if exists.any():
            cols_i = j_list[exists]
            all_rows.append(np.full(len(cols_i), i, dtype=np.int64))
            all_cols.append(cols_i.astype(INDEX_DTYPE))
            all_vals.append(vals[exists])
    if all_rows:
        out_rows = np.concatenate(all_rows)
        out_cols = np.concatenate(all_cols)
        out_vals = np.concatenate(all_vals)
    else:
        out_rows = np.empty(0, dtype=np.int64)
        out_cols = np.empty(0, dtype=INDEX_DTYPE)
        out_vals = np.empty(0, dtype=out_dtype)
    counts = np.bincount(out_rows, minlength=mask.nrows)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(PTR_DTYPE)
    return CSRMatrix(mask.nrows, mask.ncols, indptr, out_cols,
                     out_vals), total_work


def _naive_tricount(L):
    """The seed ``count_triangles_lower``: one iteration per matrix row."""
    from repro.sparse.csr import gather_rows

    total = 0
    work = 0
    indptr, indices = L.indptr, L.indices
    row_work = np.zeros(L.nrows, dtype=np.int64)
    for i in range(L.nrows):
        lo, hi = indptr[i], indptr[i + 1]
        if lo == hi:
            continue
        row_i = indices[lo:hi]
        cat, _, _ = gather_rows(L, row_i.astype(np.int64))
        work += len(cat)
        row_work[i] = len(cat)
        if len(cat) == 0:
            continue
        pos = np.searchsorted(row_i, cat)
        pos = np.minimum(pos, len(row_i) - 1)
        total += int(np.count_nonzero(row_i[pos] == cat))
    return total, work, row_work


def _naive_edge_supports(csr, alive):
    """The seed ``edge_supports``: one iteration per row."""
    from repro.sparse.csr import gather_rows

    indptr, indices = csr.indptr, csr.indices
    supports = np.zeros(csr.nvals, dtype=np.int64)
    work = 0
    row_work = np.zeros(csr.nrows, dtype=np.int64)
    for i in range(csr.nrows):
        lo, hi = indptr[i], indptr[i + 1]
        if lo == hi:
            continue
        live_pos = np.flatnonzero(alive[lo:hi]) + lo
        if len(live_pos) == 0:
            continue
        nbrs = indices[live_pos].astype(np.int64)
        cat, cat_positions, seg = gather_rows(csr, nbrs)
        if len(cat) == 0:
            continue
        cat_live = alive[cat_positions]
        cat = cat[cat_live]
        seg = seg[cat_live]
        work += len(cat)
        row_work[i] = len(cat)
        if len(cat) == 0:
            continue
        pos = np.searchsorted(nbrs, cat)
        pos = np.minimum(pos, len(nbrs) - 1)
        matched = nbrs[pos] == cat
        counts = np.bincount(seg[matched], minlength=len(nbrs))
        supports[live_pos] = counts
    return supports, work, row_work


def bench_masked_dot(L):
    from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
    from repro.sparse.spgemm import spgemm_masked_dot

    add, mult = MONOID_FNS["plus"], BINARY_FNS["pair"]

    def engine():
        return spgemm_masked_dot(L, L, L, add, mult, out_dtype=np.int64)

    def baseline():
        return _naive_masked_dot(L, L, L, add, mult, out_dtype=np.int64)

    C_e, work_e = engine()
    C_n, work_n = baseline()
    assert work_e == work_n
    assert np.array_equal(C_e.indptr, C_n.indptr)
    assert np.array_equal(C_e.indices, C_n.indices)
    assert np.array_equal(C_e.values, C_n.values)
    baseline_ms = best_of(baseline, repeats=2)
    engine_ms = best_of(engine)
    return {
        "nedges_mask": int(L.nvals),
        "baseline_per_row_ms": round(baseline_ms, 3),
        "engine_ms": round(engine_ms, 3),
        "speedup_vs_per_row": round(baseline_ms / engine_ms, 1),
    }


def bench_tricount(L):
    from repro.sparse.tricount import count_triangles_lower

    def engine():
        return count_triangles_lower(L)

    def baseline():
        return _naive_tricount(L)

    (t_e, w_e, rw_e), (t_n, w_n, rw_n) = engine(), baseline()
    assert t_e == t_n and w_e == w_n and np.array_equal(rw_e, rw_n)
    baseline_ms = best_of(baseline, repeats=2)
    engine_ms = best_of(engine)
    return {
        "triangles": int(t_e),
        "baseline_per_row_ms": round(baseline_ms, 3),
        "engine_ms": round(engine_ms, 3),
        "speedup_vs_per_row": round(baseline_ms / engine_ms, 1),
    }


def _skewed_graph():
    """Symmetric pattern of a Chung-Lu power-law graph (the recipe of the
    study's friendster twin): a symmetric self-join gathers every hub row
    once per neighbour, so almost all of its candidates are wasted."""
    from repro.graphs.generators import chung_lu
    from repro.sparse.csr import build_csr

    n, src, dst = chung_lu(n=16400, avg_degree=14, exponent=2.3, seed=18)
    keep = src != dst
    return build_csr(n, n, np.concatenate([src[keep], dst[keep]]),
                     np.concatenate([dst[keep], src[keep]]), None)


def bench_ktruss_supports(sym):
    from repro.sparse.tricount import edge_supports

    # What the triangle listing replaced: the generic self-join (any
    # explicit row list keeps it), every triangle found six times.
    skewed = _skewed_graph()
    all_rows = np.arange(skewed.nrows)
    live = np.ones(skewed.nvals, dtype=bool)

    def listed():
        return edge_supports(skewed, live)

    def self_join():
        return edge_supports(skewed, live, rows=all_rows)

    (s_l, w_l, rw_l), (s_j, w_j, rw_j) = listed(), self_join()
    assert w_l == w_j and np.array_equal(s_l, s_j) \
        and np.array_equal(rw_l, rw_j)
    self_join_ms = best_of(self_join, repeats=2)
    listed_ms = best_of(listed)

    alive = np.ones(sym.nvals, dtype=bool)

    def engine():
        return edge_supports(sym, alive)

    def baseline():
        return _naive_edge_supports(sym, alive)

    (s_e, w_e, rw_e), (s_n, w_n, rw_n) = engine(), baseline()
    assert w_e == w_n and np.array_equal(s_e, s_n) \
        and np.array_equal(rw_e, rw_n)
    baseline_ms = best_of(baseline, repeats=2)
    engine_ms = best_of(engine)
    return {
        "nedges": int(sym.nvals),
        "baseline_per_row_ms": round(baseline_ms, 3),
        "engine_ms": round(engine_ms, 3),
        "speedup_vs_per_row": round(baseline_ms / engine_ms, 1),
        "skewed_graph": "chung-lu-16400",
        "skewed_nedges": int(skewed.nvals),
        "self_join_ms": round(self_join_ms, 3),
        "listed_ms": round(listed_ms, 3),
        "speedup_vs_self_join": round(self_join_ms / listed_ms, 1),
    }


def main(argv=None):
    global N_ENTRIES, N_SEGMENTS, REPEATS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes / fewer repeats for the CI "
                             "perf-smoke job (floor ratio 2x, not 5x)")
    args = parser.parse_args(argv)
    if args.quick:
        # Shrink entries and segments together: every segment must stay
        # populated or the min/max identity fills (inf vs finfo.max)
        # legitimately differ between engine and the retained idiom.
        N_ENTRIES = 200_000
        N_SEGMENTS = 8_192
        REPEATS = 2
    floor = 2.0 if args.quick else 5.0

    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    sym, L, graph_name = _tc_graph(args.quick)
    report = {
        "quick": bool(args.quick),
        "n_entries": N_ENTRIES,
        "n_segments": N_SEGMENTS,
        "join_graph": graph_name,
        "join_graph_nedges": int(sym.nvals),
        "numpy": np.__version__,
        "scatter_min_1m": bench_scatter_min(rng),
        "push_accumulate_1m": bench_push_accumulate(rng),
        "row_reduce_1m": bench_row_reduce(rng),
        "pagerank_rmat16": bench_pagerank(),
        "graphblas_drivers": bench_graphblas_drivers(args.quick),
        "masked_dot_tc": bench_masked_dot(L),
        "tricount_lower": bench_tricount(L),
        "ktruss_supports": bench_ktruss_supports(sym),
    }
    # The GraphBLAS pagerank on the same rmat16 graph and iteration count
    # lives with the Lonestar one (and its floor below).
    pr = report["pagerank_rmat16"]
    pr["graphblas_ms"] = report["graphblas_drivers"]["pagerank"]["engine_ms"]
    pr["graphblas_over_lonestar"] = round(
        pr["graphblas_ms"] / pr["engine_ms"], 2)
    pr["graphblas_topology_ms"] = (
        report["graphblas_drivers"]["pagerank_topology"]["engine_ms"])
    pr["graphblas_topology_over_lonestar"] = round(
        pr["graphblas_topology_ms"] / pr["engine_ms"], 2)
    report["total_bench_seconds"] = round(time.perf_counter() - t0, 1)
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"[written to {OUT_PATH}]")
    speedup = report["scatter_min_1m"]["speedup_vs_ufunc_at"]
    assert speedup >= floor, \
        f"segreduce speedup {speedup}x below the {floor}x floor"
    for section in ("masked_dot_tc", "tricount_lower"):
        ratio = report[section]["speedup_vs_per_row"]
        assert ratio >= floor, \
            f"{section} speedup {ratio}x below the {floor}x floor"
    # Not scaled down by --quick: the graph is the same in both modes.
    ratio = report["ktruss_supports"]["speedup_vs_self_join"]
    assert ratio >= 5.0, \
        f"ktruss triangle listing {ratio}x the self-join, below the 5x floor"
    pr_ceiling = 3.0 if args.quick else 2.0
    pr_ratio = pr["graphblas_over_lonestar"]
    assert pr_ratio <= pr_ceiling, \
        f"GraphBLAS pagerank {pr_ratio}x Lonestar's, above {pr_ceiling}x"
    topo_ceiling = 4.5 if args.quick else 3.0
    topo_ratio = pr["graphblas_topology_over_lonestar"]
    assert topo_ratio <= topo_ceiling, \
        f"GaloisBLAS pagerank_gb {topo_ratio}x Lonestar's, above {topo_ceiling}x"
    hit_rate = report["graphblas_drivers"]["plan_cache_hit_rate"]
    if hit_rate is not None:
        assert hit_rate > 0.9, \
            f"steady-state plan-cache hit rate {hit_rate} not above 0.9"
        transposes = report["graphblas_drivers"]["plan_cache"]["transpose"]
        lookups = transposes["hits"] + transposes["misses"]
        assert transposes["hits"] > 0.9 * lookups, \
            f"transpose plan re-derived in steady state: {transposes}"


if __name__ == "__main__":
    main()
