"""Shared fixtures: seeded small graphs, machines, backends, oracles."""

import numpy as np
import pytest

from repro import faults as _faults
from repro.core import experiments as _experiments

from repro.galois.graph import Graph
from repro.galoisblas import GaloisBLASBackend
from repro.graphs.transform import symmetrize
from repro.perf.machine import Machine
from repro.runtime.galois_rt import GaloisRuntime
from repro.runtime.openmp import OpenMPRuntime
from repro.sparse.csr import build_csr
from repro.suitesparse import SuiteSparseBackend

import repro.graphblas as gb


def random_digraph(n=150, m=600, seed=3, weight_high=50):
    """A seeded random weighted digraph as (csr, sym_csr)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    w = rng.integers(1, weight_high, int(keep.sum())).astype(np.int64)
    csr = build_csr(n, n, src[keep], dst[keep], w, dedup="min")
    sym, _ = symmetrize(csr, csr.values)
    return csr, sym


@pytest.fixture
def isolated_grid():
    """An empty experiment memo and no faults — restored on exit.

    Fault/resume tests produce deliberately broken cells; this keeps
    them out of the session-wide memo other tests share.
    """
    saved = _experiments.all_results()
    _experiments.clear_cache()
    try:
        yield
    finally:
        _faults.clear()
        _experiments.clear_cache()
        _experiments.seed_results(saved.values())


def ok_row(system, app, graph, seconds=1.0):
    """A committed ``ok`` cell row, as a worker would send it."""
    return {"system": system, "app": app, "graph": graph, "status": "ok",
            "seconds": seconds, "mrss_gb": 0.25, "counters": {},
            "answer": None, "thread_sweep": {}, "attempts": 1,
            "error": None}


@pytest.fixture
def inline_pool(monkeypatch):
    """``QueueSupervisor.drain`` without worker processes, and fast.

    Every drain takes the production in-process path
    (``QueueSupervisor._run_inline``) whatever its worker count, with
    ``run_cell`` stubbed to :func:`ok_row`.  Returns a log of ``(job_id,
    memo keys right after that job's commit)``.
    """
    from repro.service.queue_supervisor import QueueSupervisor

    log = []
    task_done = QueueSupervisor._task_done

    def run_cell(system, app, graph, **_options):
        return _experiments.cell_from_row(ok_row(system, app, graph))

    def logged_task_done(self, job_id, row):
        task_done(self, job_id, row)
        log.append((job_id, set(_experiments.all_results())))

    monkeypatch.setattr(_experiments, "run_cell", run_cell)
    monkeypatch.setattr(QueueSupervisor, "_run_pool",
                        lambda self, _initial_workers: self._run_inline())
    monkeypatch.setattr(QueueSupervisor, "_task_done", logged_task_done)
    return log


@pytest.fixture
def digraph():
    return random_digraph()[0]


@pytest.fixture
def sym_graph():
    return random_digraph()[1]


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture(params=["SS", "GB"])
def backend(request):
    m = Machine()
    if request.param == "SS":
        return SuiteSparseBackend(m)
    return GaloisBLASBackend(m)


@pytest.fixture
def ss_backend():
    return SuiteSparseBackend(Machine())


@pytest.fixture
def gb_backend():
    return GaloisBLASBackend(Machine())


@pytest.fixture
def galois_runtime():
    return GaloisRuntime(Machine())


@pytest.fixture
def openmp_runtime():
    return OpenMPRuntime(Machine())


def make_graph(csr, weights=None, runtime=None):
    return Graph(runtime or GaloisRuntime(Machine()), csr, weights)


def pattern_matrix(backend, csr, label="A"):
    """Boolean pattern Matrix from a CSR (drops values)."""
    from repro.sparse.csr import CSRMatrix

    pattern = CSRMatrix(csr.nrows, csr.ncols, csr.indptr, csr.indices, None)
    return gb.Matrix.from_csr(backend, gb.BOOL, pattern, label=label)


def weighted_matrix(backend, csr, label="Aw"):
    return gb.Matrix.from_csr(backend, gb.INT64, csr, label=label)


def nx_digraph(csr):
    """networkx oracle view of a weighted CSR digraph."""
    import networkx as nx

    G = nx.DiGraph()
    G.add_nodes_from(range(csr.nrows))
    rows = np.repeat(np.arange(csr.nrows), np.diff(csr.indptr))
    vals = csr.value_array()
    for r, c, w in zip(rows, csr.indices, vals):
        G.add_edge(int(r), int(c), weight=float(w))
    return G


def assert_partition_equal(labels, components):
    """Labels agree with an oracle's component partition."""
    labels = np.asarray(labels)
    components = list(components)
    for comp in components:
        assert len({labels[v] for v in comp}) == 1, "component split"
    reps = {labels[next(iter(c))] for c in components}
    assert len(reps) == len(components), "components merged"
