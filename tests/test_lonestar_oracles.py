"""Lonestar cc and sssp against retained and independent oracles.

* :func:`retained_afforest` is Afforest as it ran before its union-find
  moved onto Python lists: the same phases, with ``_find``/``_link``
  reading and writing the numpy parent array one scalar at a time.  The
  list version must give the same labels, the same machine counters and
  the same op-event stream, since path halving makes the charged ``hops``
  depend on every pointer write and its order.
* ``scipy.sparse.csgraph`` is the independent oracle for the answers of
  both cc variants, both sssp variants and Dijkstra.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.engine.events import OpEvent
from repro.lonestar import afforest, delta_stepping, dijkstra, shiloach_vishkin
from repro.lonestar.cc import SAMPLE_SIZE, _compress
from repro.sparse.csr import CSRMatrix, build_csr

from tests.conftest import make_graph
from tests.test_modeled_rows_pinned import event_digest

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _find_scalar(parent, u):
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


def _link_scalar(parent, u, v):
    hops = 0
    while True:
        ru, rv = u, v
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
            hops += 1
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
            hops += 1
        if ru == rv:
            return hops + 2
        lo, hi = (ru, rv) if ru < rv else (rv, ru)
        parent[hi] = lo
        return hops + 3


def retained_afforest(graph, neighbor_rounds=2):
    """Afforest with union-find on numpy scalars (the retained oracle)."""
    rt = graph.runtime
    n = graph.nnodes
    parent = graph.add_node_data("cc_parent", np.int64, fill=0)
    parent[:] = np.arange(n)
    indptr, indices = graph.csr.indptr, graph.csr.indices
    degrees = np.diff(indptr)

    for r in range(neighbor_rounds):
        rt.round()
        srcs = np.flatnonzero(degrees > r)
        hops = 0
        for u in srcs:
            hops += _link_scalar(parent, int(u), int(indices[indptr[u] + r]))
        rt.do_all(
            OpEvent(kind="do_all", label="cc_neighbor_round",
                    items=len(srcs)),
            instr_per_item=2.0,
            extra_instr=hops * 2,
            streams=[rt.rand(parent.nbytes, hops + len(srcs), elem_bytes=8),
                     rt.strided(graph.csr.nbytes, len(srcs))],
        )

    _compress(rt, parent)

    rng = np.random.default_rng(0xAF)
    sample = rng.integers(0, n, min(SAMPLE_SIZE, n))
    roots = parent[parent[sample]]
    giant = np.bincount(roots, minlength=n).argmax()
    rt.do_all(
        OpEvent(kind="do_all", label="cc_sample", items=len(sample)),
        instr_per_item=4.0,
        streams=[rt.rand(parent.nbytes, 2 * len(sample), elem_bytes=8)],
    )

    rt.round()
    outside = np.flatnonzero(parent[parent] != giant)
    hops = 0
    scanned = 0
    for u in outside:
        if _find_scalar(parent, int(u)) == giant:
            continue
        lo, hi = indptr[u] + neighbor_rounds, indptr[u + 1]
        scanned += max(0, hi - lo)
        for v in indices[lo:hi]:
            hops += _link_scalar(parent, int(u), int(v))
    rt.do_all(
        OpEvent(kind="do_all", label="cc_finish",
                items=max(len(outside), 1)),
        instr_per_item=2.0,
        extra_instr=hops * 2 + scanned * 2,
        streams=[rt.rand(parent.nbytes, hops + scanned, elem_bytes=8),
                 rt.strided(graph.csr.nbytes, scanned)],
        weights=degrees[outside] + 1 if len(outside) else None,
    )

    _compress(rt, parent)
    return parent.copy()


@st.composite
def undirected_multigraph(draw, max_n=40, max_m=120):
    """A symmetric CSR that keeps self-loops and duplicate edges.

    Built directly rather than through ``build_csr`` (which would
    deduplicate), so Afforest sees repeated neighbors and ``u == v``
    links.  Vertices past every drawn edge stay isolated; ``m == 0``
    gives an edgeless graph.
    """
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                 max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                 max_size=m)), dtype=np.int64)
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return CSRMatrix(n, n, indptr, cols[order], None)


@st.composite
def weighted_digraph(draw, max_n=30, max_m=100):
    """A weighted digraph plus a delta its weights span >= 1 000 times."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    delta = draw(st.integers(1, 4))
    vertices = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.array(draw(vertices), dtype=np.int64)
    dst = np.array(draw(vertices), dtype=np.int64)
    w = np.array(draw(st.lists(st.integers(1, 1000 * delta), min_size=m,
                               max_size=m)), dtype=np.int64)
    csr = build_csr(n, n, src, dst, w, dedup="min")
    return csr, delta, draw(st.integers(0, n - 1))


def min_id_labels(csr):
    """Each vertex's label: the smallest vertex id in its component."""
    n = csr.nrows
    A = csr_matrix((np.ones(csr.nvals), csr.indices, csr.indptr),
                   shape=(n, n))
    _, comp = connected_components(A, directed=False)
    smallest = np.full(n, n, dtype=np.int64)
    np.minimum.at(smallest, comp, np.arange(n))
    return smallest[comp]


def scipy_distances(csr, source):
    A = csr_matrix((csr.values.astype(np.float64), csr.indices, csr.indptr),
                   shape=(csr.nrows, csr.ncols))
    ref = scipy_dijkstra(A, directed=True, indices=source)
    dist = np.full(csr.nrows, np.iinfo(np.int64).max, dtype=np.int64)
    reached = np.isfinite(ref)
    dist[reached] = ref[reached]
    return dist


class TestAfforestRetainedOracle:
    @SETTINGS
    @given(undirected_multigraph(), st.integers(1, 3))
    def test_labels_counters_and_events_identical(self, csr, rounds):
        g_new, g_old = make_graph(csr), make_graph(csr)
        labels = afforest(g_new, neighbor_rounds=rounds)
        expected = retained_afforest(g_old, neighbor_rounds=rounds)
        new, old = g_new.runtime.machine, g_old.runtime.machine
        assert np.array_equal(labels, expected)
        assert new.counters.as_dict() == old.counters.as_dict()
        assert event_digest(new.context.events) == \
            event_digest(old.context.events)


class TestCcAgainstScipy:
    @SETTINGS
    @given(undirected_multigraph())
    @pytest.mark.parametrize("variant", [afforest, shiloach_vishkin])
    def test_min_id_labels(self, variant, csr):
        assert np.array_equal(variant(make_graph(csr)), min_id_labels(csr))


class TestSsspAgainstScipy:
    @SETTINGS
    @given(weighted_digraph())
    @pytest.mark.parametrize("tiled", [True, False])
    def test_delta_stepping(self, tiled, case):
        csr, delta, source = case
        dist = delta_stepping(make_graph(csr, csr.values), source, delta,
                              tiled=tiled)
        assert np.array_equal(dist, scipy_distances(csr, source))

    @SETTINGS
    @given(weighted_digraph())
    def test_dijkstra(self, case):
        csr, _, source = case
        dist = dijkstra(make_graph(csr, csr.values), source)
        assert np.array_equal(dist, scipy_distances(csr, source))
