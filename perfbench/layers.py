"""Per-layer numbers for the traced run.

Three sources, as BENCHMARK.json's per-layer list is built from:

* **self times** — the workload's cells replayed under ``cProfile`` with
  spans on, self time attributed to the ``repro.*`` package that caused it
  (:func:`profiled_passes`);
* **direct timed calls** into one layer's public functions on the
  workload's own graph (:func:`direct_probes`);
* **counts** the program keeps itself (plan-cache hits, fused chains, op
  events), which repeat exactly.

Everything here runs only under ``--trace``; the end-to-end numbers come
from a run that never imports this module.
"""

from __future__ import annotations

import cProfile
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

from perfbench import cells, harness

#: Layers reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("sparse", "graphblas", "galois", "lagraph", "lonestar",
                    "engine", "perf")

#: The 12 per-cell names (``cell.<system>.<app>_ms``).
CELL_APPS = ("bfs", "cc", "pr", "sssp")


@dataclass
class Profiled:
    walls: List[float]
    layers: Dict[str, float]
    fusion: Dict[str, float]
    plan_cache_hit_rate: float


def profiled_passes(ctx, order: Sequence[cells.Cell], datasets: dict,
                    budget_s: float) -> Profiled:
    """Replay ``order`` with spans and the profiler on until ``budget_s``.

    Layer seconds and fusion counts are per pass (totals divided by the
    number of passes), so they compare with ``pass_s``.
    """
    from repro.graphblas import pipeline
    from repro.sparse import plancache

    profiler = cProfile.Profile()
    plancache.reset_stats()
    pipeline.reset_fusion_stats()

    def profiled_pass(index: int) -> None:
        trace = f"profiled-pass-{index}"
        with ctx.tracer.span("pass", trace=trace, profiled=True):
            profiler.enable()
            try:
                for cell in order:
                    cells.run_cell(cell, datasets[cell.graph], ctx.tracer,
                                   trace)
            finally:
                profiler.disable()

    walls, _ = ctx.timed_passes(profiled_pass, budget_s)
    n = len(walls)
    return Profiled(
        walls=walls,
        layers={k: v / n
                for k, v in harness.profile_layers(profiler).items()},
        fusion={k: v / n for k, v in pipeline.fusion_stats().items()},
        plan_cache_hit_rate=plancache.hit_rate() or 0.0)


def cell_medians(passes: List[List[cells.CellRun]]
                 ) -> Dict[cells.Cell, float]:
    """Median wall seconds per cell over unprofiled passes."""
    by_cell: Dict[cells.Cell, List[float]] = {}
    for runs in passes:
        for run in runs:
            by_cell.setdefault(run.cell, []).append(run.wall_s)
    return {cell: statistics.median(v) for cell, v in by_cell.items()}


def cell_metrics(medians: Dict[cells.Cell, float],
                 work: Sequence[cells.Cell]) -> Dict[str, float]:
    """``cell.*_ms`` and what one pass of ``work`` sums to in-process."""
    metrics = {}
    for system in cells.SYSTEMS:
        for app in CELL_APPS:
            values = [m for cell, m in medians.items()
                      if cell.system == system and cell.app == app]
            metrics[f"cell.{system.lower()}.{app}_ms"] = (
                statistics.median(values) * 1e3 if values else 0.0)
    metrics["core.cell_sum_s"] = sum(medians[cell] for cell in work)
    return metrics


def self_time_metrics(profiled: Profiled, events_per_pass: float
                      ) -> Dict[str, float]:
    metrics = {f"{layer}.self_s": profiled.layers.get(layer, 0.0)
               for layer in SELF_TIME_LAYERS}
    engine_s = metrics["engine.self_s"] + metrics["perf.self_s"]
    metrics["engine.us_per_event"] = (
        engine_s * 1e6 / events_per_pass if events_per_pass else 0.0)
    metrics["graphblas.fused_chains"] = profiled.fusion.get("chains", 0.0)
    metrics["graphblas.fusion_fallbacks"] = \
        profiled.fusion.get("fallbacks", 0.0)
    metrics["graphblas.bytes_not_materialized"] = \
        profiled.fusion.get("bytes_not_materialized", 0.0)
    metrics["sparse.plan_cache_hit_rate"] = profiled.plan_cache_hit_rate
    return metrics


# ----------------------------------------------------------------------
# Direct timed calls
# ----------------------------------------------------------------------

def direct_probes(ctx, dataset, order: Sequence[cells.Cell], datasets: dict,
                  with_join: bool) -> Dict[str, float]:
    """One layer at a time, on ``dataset`` (the workload's own graph)."""
    metrics = {}
    with ctx.tracer.span("probes", trace="probes", graph=dataset.name):
        metrics.update(_sparse_probes(dataset, with_join, ctx.smoke))
        metrics.update(_graphblas_probes(dataset, ctx.smoke))
        metrics.update(_graph_store_probes(ctx, datasets))
        metrics["core.instantiate_ms"] = statistics.median(
            cells.instantiate_seconds(cell, datasets[cell.graph])
            for cell in order) * 1e3
        metrics["core.cli_startup_s"] = _cli_startup_seconds(ctx)
    return metrics


def _frontier(n: int):
    """Every 16th vertex: the frontier density GaloisBLAS sizes for."""
    import numpy as np

    return np.arange(0, n, 16, dtype=np.int64)


def _sparse_probes(dataset, with_join: bool, smoke: bool) -> Dict[str, float]:
    import numpy as np

    from repro.sparse import blocked, parallel
    from repro.sparse.segreduce import segment_reduce
    from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
    from repro.sparse.spgemm import spgemm_masked_dot
    from repro.sparse.spmv import spmv_pull, vxm_push

    repeats = 2 if smoke else 7
    csr, _weights = dataset.build()
    n, nnz = csr.nrows, csr.nvals
    plus, times = MONOID_FNS["plus"], BINARY_FNS["times"]
    x = np.linspace(0.5, 1.5, n)
    metrics = {}

    pull_s = harness.timed(
        lambda: spmv_pull(csr, x, plus, times, out_dtype=np.float64),
        repeats)
    metrics["sparse.spmv_pull_ms"] = pull_s * 1e3
    metrics["sparse.spmv_edges_per_s"] = nnz / pull_s
    # Computed from array sizes (cache misses ignored): per edge a column
    # index, an x gather and a product; per row two indptr reads and a y.
    metrics["sparse.spmv_bytes_computed"] = float(
        nnz * (csr.indices.itemsize + 8 + 8)
        + n * (2 * csr.indptr.itemsize + 8))

    idx = _frontier(n)
    vals = np.ones(len(idx), dtype=bool)
    metrics["sparse.vxm_push_ms"] = harness.timed(
        lambda: vxm_push(csr, idx, vals, MONOID_FNS["lor"],
                         BINARY_FNS["land"], out_dtype=bool),
        repeats) * 1e3

    candidates = np.arange(nnz, dtype=np.int64)[::-1].copy()
    targets = np.asarray(csr.indices)
    metrics["sparse.segment_reduce_ms"] = harness.timed(
        lambda: segment_reduce(candidates, targets, n, "min",
                               dtype=np.int64),
        repeats) * 1e3

    sharded = blocked.BlockedCSR.from_csr(csr, shard_rows=-(-n // 16))
    for threads in (1, 2):
        previous = parallel.set_kernel_threads(threads)
        try:
            metrics[f"sparse.sharded_spmv_t{threads}_ms"] = harness.timed(
                lambda: blocked.spmv_pull(sharded, x, plus, times,
                                          out_dtype=np.float64),
                repeats) * 1e3
        finally:
            parallel.set_kernel_threads(previous)

    metrics["sparse.masked_dot_ms"] = 0.0
    if with_join:
        sym, _ = dataset.build_symmetric()
        lower = sym.extract_tril(strict=True)
        metrics["sparse.masked_dot_ms"] = harness.timed(
            lambda: spgemm_masked_dot(lower, lower, lower, plus,
                                      BINARY_FNS["pair"],
                                      out_dtype=np.int64),
            1 if smoke else 3) * 1e3
    return metrics


def _graphblas_probes(dataset, smoke: bool) -> Dict[str, float]:
    import numpy as np

    import repro.graphblas as gb
    from repro.galoisblas import GaloisBLASBackend
    from repro.graphblas.ops import LOR_LAND
    from repro.perf.machine import Machine
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
    from repro.sparse.spmv import vxm_push

    csr, _weights = dataset.build()
    pattern = CSRMatrix(csr.nrows, csr.ncols, csr.indptr, csr.indices, None)
    n = csr.nrows
    backend = GaloisBLASBackend(Machine())
    matrix = gb.Matrix.from_csr(backend, gb.BOOL, pattern, label="probe:A")

    def vector(indices):
        v = gb.Vector(backend, gb.BOOL, n, label="probe:u")
        v.build(indices, np.ones(len(indices), dtype=bool))
        return v

    out = gb.Vector(backend, gb.BOOL, n, label="probe:w")
    one = vector(np.array([dataset.source_vertex()], dtype=np.int64))
    small_s = harness.timed(lambda: gb.vxm(out, one, matrix, LOR_LAND),
                            20 if smoke else 200, warmup=3)

    idx = _frontier(n)
    many = vector(idx)
    vals = np.ones(len(idx), dtype=bool)
    repeats = 2 if smoke else 9
    api_s = harness.timed(lambda: gb.vxm(out, many, matrix, LOR_LAND),
                          repeats)
    kernel_s = harness.timed(
        lambda: vxm_push(pattern, idx, vals, MONOID_FNS["lor"],
                         BINARY_FNS["land"], out_dtype=bool), repeats)
    return {"graphblas.vxm_small_us": small_s * 1e6,
            "graphblas.vxm_over_kernel": api_s / kernel_s}


def _graph_store_probes(ctx, datasets: dict) -> Dict[str, float]:
    """Generate, publish and cold-load the workload's graphs, separately."""
    from repro.graphs import artifacts
    from repro.graphs.transform import symmetrize
    from repro.sparse.csr import build_csr

    scratch = artifacts.ArtifactStore(ctx.tmp / "store-probe")
    generate_s = publish_s = 0.0
    for dataset in datasets.values():
        t0 = time.perf_counter()
        n, src, dst = dataset.builder()
        csr = build_csr(n, n, src, dst, None, dedup="last")
        sym, _ = symmetrize(csr, None)
        generate_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        scratch.publish(dataset.name, "dir", csr, spec="probe")
        scratch.publish(dataset.name, "sym", sym, spec="probe")
        publish_s += time.perf_counter() - t0

    # A fresh interpreter against the warm store: what each pool worker
    # and each CLI start pays before its first cell.
    code = (
        "import sys, time\n"
        "import repro.core.systems\n"
        "from perfbench import cells\n"
        "names, seed = sys.argv[1:-1], int(sys.argv[-1])\n"
        "t0 = time.perf_counter()\n"
        "for name in names:\n"
        "    ds = cells.resolve_dataset(name, seed)\n"
        "    ds.build(); ds.build_symmetric()\n"
        "print((time.perf_counter() - t0) * 1e3)\n")
    graphs = sorted(datasets)
    out_path = ctx.tmp / "mmap_load.out"
    with open(out_path, "w") as out:
        ctx.children.run_python(["-c", code, *graphs, str(ctx.seed)],
                                timeout=60, stdout=out)
    return {
        "graphs.generate_s": generate_s,
        "graphs.publish_s": publish_s,
        "graphs.store_mb": harness.dir_mb(ctx.store),
        "graphs.mmap_load_ms": float(out_path.read_text().strip()),
    }


def _cli_startup_seconds(ctx) -> float:
    samples = []
    for _ in range(1 if ctx.smoke else 3):
        t0 = time.perf_counter()
        with open(ctx.tmp / "cli_help.out", "w") as out:
            proc = ctx.children.run_python(
                ["-m", "repro.core.runner", "--help"], timeout=60,
                stdout=out)
        if proc.returncode != 0:
            raise RuntimeError("repro.core.runner --help failed")
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
