"""Every file of the evaluation, and the one command that writes them.

:data:`RESULTS` is the ordered registry of the rendered files under
``benchmarks/results/``: each name maps to its renderer ``(graphs, apps)
-> object`` (the file holds ``str(object)``) and to the grid cells the
renderer reads.  ``repro-study all --out DIR`` drains the union of those
cells once (:func:`grid`, through :func:`repro.service.run_grid`), then
:func:`write_all` writes every registered file and ``DIR/cells.json``.
The ``benchmarks/`` modules call the same functions and assert on what
they return; they write nothing.

The tables and figures render in :mod:`repro.core.tables`,
:mod:`repro.core.figures` and :mod:`repro.engine.analysis`.  The two
ablations and the two extensions that write a file are computed here,
each on its fixed graph, and memoized per process like the grid cells:
each returns ``(text, numbers)``, the numbers being what the benchmarks
assert on.
"""

from __future__ import annotations

import functools
import pathlib
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

import repro.graphblas as gb
from repro import lagraph, lonestar
from repro.core import experiments, figures, tables
from repro.core.systems import SYSTEMS
from repro.galois.graph import Graph
from repro.galoisblas import GaloisBLASBackend
from repro.graphs.datasets import get_dataset
from repro.perf.machine import Machine
from repro.runtime.galois_rt import GaloisRuntime
from repro.sparse.csr import CSRMatrix

#: Sources of the betweenness-centrality extension (a LAGraph-style batch).
BC_BATCH = 4
#: ``k`` of the k-core extension.
KCORE_K = 8


class Result(NamedTuple):
    """One rendered file: its renderer and the grid cells it reads."""

    render: Callable[[List[str], List[str]], object]
    #: Systems whose ``graphs x apps`` cells the renderer reads.
    systems: Tuple[str, ...] = ()
    #: Whether it reads Figure 2's thread sweeps.
    sweep: bool = False


def _pattern(csr) -> CSRMatrix:
    return CSRMatrix(csr.nrows, csr.ncols, csr.indptr, csr.indices, None)


def _matrix_run(ds, csr, run, backend_cls=GaloisBLASBackend):
    """``(simulated seconds, answer)`` of ``run(backend, A)`` on a fresh
    machine, with the pattern matrix built before the measurement."""
    machine = Machine(byte_scale=ds.scale, time_scale=ds.scale)
    backend = backend_cls(machine)
    A = gb.Matrix.from_csr(backend, gb.BOOL, _pattern(csr))
    machine.reset_measurement()
    answer = run(backend, A)
    return machine.simulated_seconds(), answer


def _graph_run(ds, csr, run, huge_pages=True):
    """``(simulated seconds, answer)`` of ``run(graph)`` on the graph API."""
    machine = Machine(byte_scale=ds.scale, time_scale=ds.scale)
    runtime = GaloisRuntime(machine)
    runtime.huge_pages = huge_pages
    graph = Graph(runtime, _pattern(csr))
    machine.reset_measurement()
    answer = run(graph)
    return machine.simulated_seconds(), answer


@functools.lru_cache(maxsize=None)
def ablation_fusion():
    """GB vs GB+fusion vs LS on round-dominated bfs (road-USA): a
    loop-fusing compiler removes the per-call passes but not the rounds.
    Numbers: simulated seconds per ``gb``/``gb-fused``/``ls``."""
    from repro.galoisblas.fused import FusedGaloisBLASBackend

    ds = get_dataset("road-USA")
    csr, _ = ds.build()
    source = ds.source_vertex()
    times = {}
    for name, backend_cls in (("gb", GaloisBLASBackend),
                              ("gb-fused", FusedGaloisBLASBackend)):
        times[name], _ = _matrix_run(
            ds, csr, lambda backend, A: lagraph.bfs(backend, A, source),
            backend_cls)
    times["ls"], _ = _graph_run(ds, csr,
                                lambda graph: lonestar.bfs(graph, source))
    lines = ["ablation: loop fusion (bfs on road-USA)"]
    lines += [f"  {name:10s} {sec:8.3f} s ({times['gb'] / sec:4.1f}x vs gb)"
              for name, sec in times.items()]
    lines.append("  fusion removes the per-call passes (limitations i, ii) "
                 "but not the rounds (iv)")
    return "\n".join(lines), times


@functools.lru_cache(maxsize=None)
def ablation_huge_pages():
    """Galois's huge pages vs 4k pages, Lonestar bfs on rmat26: measurable
    but secondary.  Numbers: simulated seconds per page size."""
    ds = get_dataset("rmat26")
    csr, _ = ds.build()
    source = ds.source_vertex()
    times = {}
    for name, huge_pages in (("huge pages", True), ("4k pages", False)):
        times[name], _ = _graph_run(
            ds, csr, lambda graph: lonestar.bfs(graph, source), huge_pages)
    lines = ["ablation: huge pages (bfs on rmat26)"]
    lines += [f"  {name:12s} {sec:8.4f} s" for name, sec in times.items()]
    return "\n".join(lines), times


def _api_pair(label, ds, csr, matrix_run, graph_run):
    t_matrix, matrix_answer = _matrix_run(ds, csr, matrix_run)
    t_graph, graph_answer = _graph_run(ds, csr, graph_run)
    text = (f"{label}: matrix API {t_matrix:.3f} s, graph API "
            f"{t_graph:.3f} s ({t_matrix / t_graph:.1f}x)")
    return text, {"matrix": t_matrix, "graph": t_graph,
                  "matrix_answer": matrix_answer,
                  "graph_answer": graph_answer}


@functools.lru_cache(maxsize=None)
def extension_bc(graph: str):
    """Betweenness centrality (the paper's §I motivating application) on
    both APIs from :data:`BC_BATCH` seeded sources.  Numbers: simulated
    seconds (``matrix``/``graph``) and the two score vectors."""
    ds = get_dataset(graph)
    csr, _ = ds.build()
    sources = np.random.default_rng(5).integers(
        0, csr.nrows, BC_BATCH).tolist()
    return _api_pair(
        f"bc ({BC_BATCH} sources, {graph})", ds, csr,
        lambda backend, A: lagraph.betweenness_centrality(
            backend, A, sources).dense_values(),
        lambda g: lonestar.betweenness_centrality(g, sources))


@functools.lru_cache(maxsize=None)
def extension_kcore(graph: str):
    """k-core (k = :data:`KCORE_K`): bulk re-materialized peeling vs a
    decremental worklist.  Numbers: simulated seconds and the two
    membership masks."""
    ds = get_dataset(graph)
    sym, _ = ds.build_symmetric()
    return _api_pair(
        f"k-core (k={KCORE_K}, {graph})", ds, sym,
        lambda backend, A: lagraph.k_core(backend, A, KCORE_K)[0],
        lambda g: lonestar.k_core(g, KCORE_K)[0])


def _differential(graphs, apps) -> str:
    from repro.engine.analysis import differential_table

    return differential_table(graphs, apps)


#: File name (without ``.txt``) -> renderer, in the order they are written.
RESULTS: Dict[str, Result] = {
    "table1": Result(lambda graphs, apps: tables.table1(graphs)),
    "table2": Result(tables.table2, SYSTEMS),
    "table3": Result(tables.table3, SYSTEMS),
    "table4": Result(tables.table4, ("GB", "LS")),
    "table5": Result(lambda graphs, apps: tables.table5(graphs)),
    "figure2": Result(lambda graphs, apps: figures.figure2(
        *figures.figure2_panel(graphs, apps)), sweep=True),
    "figure3": Result(lambda graphs, apps: figures.figure3(graphs=graphs)),
    "differential": Result(_differential),
    "ablation_fusion": Result(lambda graphs, apps: ablation_fusion()[0]),
    "ablation_huge_pages": Result(
        lambda graphs, apps: ablation_huge_pages()[0]),
    **{f"extension_bc_{graph}": Result(
        lambda graphs, apps, graph=graph: extension_bc(graph)[0])
       for graph in ("road-USA-W", "rmat22")},
    "extension_kcore_rmat22": Result(
        lambda graphs, apps: extension_kcore("rmat22")[0]),
}


def grid(names, graphs, apps) -> list:
    """The canonical task list of the cells the named files read, each
    cell once (:func:`repro.service.grid_tasks`)."""
    from repro.service import grid_tasks

    read = [RESULTS[name] for name in names]
    systems = [s for s in SYSTEMS if any(s in r.systems for r in read)]
    sweep_apps, sweep_graphs = (figures.figure2_panel(graphs, apps)
                                if any(r.sweep for r in read) else ((), ()))
    return grid_tasks(graphs, apps, systems, sweep_apps, sweep_graphs)


def write_all(out: pathlib.Path, graphs, apps) -> None:
    """Write every registered file and ``cells.json`` into ``out``."""
    experiments.save_results(str(out / "cells.json"))
    for name, result in RESULTS.items():
        (out / f"{name}.txt").write_text(f"{result.render(graphs, apps)}\n")
