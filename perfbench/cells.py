"""Cells: the unit of work every workload is made of, and how it is checked.

A cell is one (system, application, graph) triple.  The in-process
workloads run cells here directly; the subprocess workloads get their rows
back from the program and use the same comparison against the pinned
expected rows.  Imports of ``repro`` happen inside functions so ``run.py``
can time them as part of set-up.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

SYSTEMS = ("SS", "GB", "LS")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected" / "cells.json"

#: Which ``SystemInstance.load_*`` an application's ``run`` resolves to —
#: the traced path calls it first so load and run get separate spans.
LOADER = {
    "bfs": "load_directed", "pr": "load_directed",
    "sssp": "load_weighted",
    "cc": "load_symmetric", "tc": "load_symmetric",
    "ktruss": "load_symmetric",
}

#: Row fields an in-process run can reproduce (the program adds
#: ``attempts``/``error`` only on its own ``run_cell`` path).
MODELED_FIELDS = ("status", "answer", "seconds", "mrss_gb", "counters")


class Cell(NamedTuple):
    system: str
    app: str
    graph: str


@dataclass
class CellRun:
    """One executed cell: wall seconds plus the row to verify."""

    cell: Cell
    wall_s: float
    row: dict
    events: int = 0


def grid(systems: Sequence[str], apps: Sequence[str],
         graphs: Sequence[str]) -> List[Cell]:
    return [Cell(s, a, g) for g in graphs for a in apps for s in systems]


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------

def rmat16_dataset(seed: int):
    """The seeded ``kernels-rmat16`` input, resolved through the store.

    Not registered in ``DATASETS``: only this benchmark uses it, and
    ``SystemInstance`` takes the object.  ``paper_e`` is set so the scale
    factor is ~64 like the study's rmat twins (modeled seconds stay in a
    sane range; nothing times them).
    """
    from repro.graphs import generators as gen
    from repro.graphs.datasets import Dataset

    return Dataset(
        name=f"rmat16-seed{seed}", kind="synthetic power-law",
        directed=True, native_weights=False, weight_style="random",
        builder=lambda: gen.rmat(scale=16, edge_factor=16, seed=seed),
        paper_v=float(1 << 16) * 64, paper_e=float(16 << 16) * 64,
        paper_csr_gb=0.5, seed=seed)


def resolve_dataset(graph: str, seed: int):
    if graph == "rmat16":
        return rmat16_dataset(seed)
    from repro.graphs.datasets import get_dataset

    return get_dataset(graph)


# ----------------------------------------------------------------------
# Running one cell in-process
# ----------------------------------------------------------------------

def _jsonable(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _row(instance, answer, dataset) -> dict:
    machine = instance.machine
    row = {
        "status": "ok",
        "answer": answer,
        "seconds": machine.simulated_seconds(),
        "mrss_gb": machine.mrss_bytes() * dataset.scale / 2 ** 30,
        "counters": machine.counters.as_dict(),
    }
    # One JSON round trip, as the program's own rows get: numpy scalars
    # become plain numbers and compare equal to the pinned file.
    return json.loads(json.dumps(row, default=_jsonable))


def _error_row(exc: BaseException) -> dict:
    return {"status": "ERR", "answer": None, "seconds": None,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=4)}


def run_cell(cell: Cell, dataset, tracer=None, trace=None) -> CellRun:
    """``SystemInstance(code, ds).run(app)``, timed.

    With a tracer the same work is split at the layer boundaries the
    harness can see from outside: instantiate, load, run.  A cell that
    raises is recorded as a failed row; the pass carries on.
    """
    from repro.core.systems import SystemInstance

    t0 = time.perf_counter()
    try:
        if tracer is None or not tracer.enabled:
            instance = SystemInstance(cell.system, dataset)
            answer = instance.run(cell.app)
        else:
            with tracer.span("cell", trace=trace, system=cell.system,
                             app=cell.app, graph=cell.graph):
                with tracer.span("instantiate"):
                    instance = SystemInstance(cell.system, dataset)
                with tracer.span("load"):
                    getattr(instance, LOADER[cell.app])()
                with tracer.span("run"):
                    answer = instance.run(cell.app)
    except Exception as exc:  # a wrong cell is a result, not a crash
        return CellRun(cell, time.perf_counter() - t0, _error_row(exc))
    wall = time.perf_counter() - t0
    return CellRun(cell, wall, _row(instance, answer, dataset),
                   events=len(instance.machine.context.events))


def instantiate_seconds(cell: Cell, dataset) -> float:
    """Direct timing of ``SystemInstance`` + graph load for one cell."""
    from repro.core.systems import SystemInstance

    t0 = time.perf_counter()
    instance = SystemInstance(cell.system, dataset)
    getattr(instance, LOADER[cell.app])()
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Checking rows
# ----------------------------------------------------------------------

def load_expected() -> Dict[Cell, dict]:
    """Pinned rows, keyed by cell (provenance: the file's ``about`` note)."""
    payload = json.loads(EXPECTED_PATH.read_text())
    return {Cell(r["system"], r["app"], r["graph"]): r
            for r in payload["cells"]}


def mismatched_fields(row: Optional[dict], expected: Optional[dict],
                      fields: Optional[Sequence[str]] = None) -> List[str]:
    """Names of the fields on which ``row`` differs from ``expected``.

    ``fields`` defaults to every field the expected row pins.
    """
    if expected is None:
        return ["<no expected row>"]
    if row is None:
        return ["<no row>"]
    names = fields if fields is not None else sorted(expected)
    return [name for name in names if row.get(name) != expected.get(name)]


# ----------------------------------------------------------------------
# Independent oracles for the seeded graph
# ----------------------------------------------------------------------

def checksum(values) -> int:
    """The study's order-independent answer summary, restated here so the
    oracle does not call the code it checks."""
    import numpy as np

    arr = np.asarray(values, dtype=np.int64)
    return int(arr.sum() % (1 << 61)) ^ int((arr * arr % 1000003).sum()
                                            % (1 << 61))


def oracle_answers(dataset) -> Dict[str, int]:
    """bfs/cc/sssp answers from ``scipy.sparse.csgraph`` (pr has none)."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, dijkstra

    csr, weights = dataset.build()
    sym, _ = dataset.build_symmetric()
    source = dataset.source_vertex()
    shape = (csr.nrows, csr.ncols)
    indices, indptr = np.asarray(csr.indices), np.asarray(csr.indptr)

    pattern = csr_matrix((np.ones(csr.nvals), indices, indptr), shape=shape)
    hops = dijkstra(pattern, directed=True, indices=source, unweighted=True)
    levels = np.where(np.isfinite(hops), hops + 1, 0).astype(np.int64)

    weighted = csr_matrix((np.asarray(weights, dtype=np.float64), indices,
                           indptr), shape=shape)
    dist = dijkstra(weighted, directed=True, indices=source)
    dist = np.where(np.isfinite(dist), dist, -1).astype(np.int64)

    undirected = csr_matrix((np.ones(sym.nvals), np.asarray(sym.indices),
                             np.asarray(sym.indptr)), shape=shape)
    components, _labels = connected_components(undirected, directed=False)
    return {"bfs": checksum(levels), "cc": int(components),
            "sssp": checksum(dist)}
