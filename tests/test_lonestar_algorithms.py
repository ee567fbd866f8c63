"""Lonestar algorithms validated against networkx oracles."""

import networkx as nx
import numpy as np
import pytest

from repro.galois.graph import Graph
from repro.lonestar import (
    afforest,
    bfs,
    delta_stepping,
    ktruss,
    pagerank,
    shiloach_vishkin,
    triangle_count,
)
from repro.perf.machine import Machine
from repro.runtime.galois_rt import GaloisRuntime

from tests.conftest import assert_partition_equal, nx_digraph, random_digraph


@pytest.fixture(scope="module")
def oracle():
    csr, sym = random_digraph()
    G = nx_digraph(csr)
    return csr, sym, G, G.to_undirected()


def fresh_graph(csr, weights=None):
    return Graph(GaloisRuntime(Machine()), csr, weights)


class TestBfs:
    def test_levels_match_oracle(self, oracle):
        csr, _, G, _ = oracle
        dist = bfs(fresh_graph(csr), 0)
        ref = nx.single_source_shortest_path_length(G, 0)
        for v in range(csr.nrows):
            assert dist[v] == (ref[v] + 1 if v in ref else 0)

    def test_matches_lagraph(self, oracle, ss_backend):
        from repro.lagraph import bfs as la_bfs
        from tests.conftest import pattern_matrix

        csr = oracle[0]
        ls = bfs(fresh_graph(csr), 2)
        la = la_bfs(ss_backend, pattern_matrix(ss_backend, csr), 2)
        assert np.array_equal(ls, la.dense_values())

    def test_single_fused_loop_per_round(self, oracle):
        csr = oracle[0]
        g = fresh_graph(csr)
        bfs(g, 0)
        m = g.runtime.machine
        # One do_all per round (Algorithm 1), plus the distance-array
        # initialization loop: the loop-fusion property.
        assert m.counters.loops == m.counters.rounds + 1


class TestSssp:
    @pytest.mark.parametrize("tiled", [True, False])
    def test_matches_dijkstra(self, oracle, tiled):
        csr, _, G, _ = oracle
        g = fresh_graph(csr, csr.values)
        dist = delta_stepping(g, 0, delta=64, tiled=tiled)
        ref = nx.single_source_dijkstra_path_length(G, 0)
        inf = np.iinfo(np.int64).max
        for v in range(csr.nrows):
            assert dist[v] == ref.get(v, inf)

    def test_delta_invariance(self, oracle):
        csr = oracle[0]
        a = delta_stepping(fresh_graph(csr, csr.values), 1, delta=8)
        b = delta_stepping(fresh_graph(csr, csr.values), 1, delta=1 << 13)
        assert np.array_equal(a, b)

    def test_requires_weights(self, oracle):
        with pytest.raises(ValueError):
            delta_stepping(fresh_graph(oracle[0]), 0, delta=8)

    def test_no_global_barriers_inside_buckets(self, oracle):
        csr = oracle[0]
        g = fresh_graph(csr, csr.values)
        delta_stepping(g, 0, delta=64)
        m = g.runtime.machine
        barriers = sum(1 for r in m.loop_records if r.barrier)
        slices = sum(1 for r in m.loop_records if not r.barrier
                     and r.n_items > 0)
        assert barriers <= m.counters.rounds + 2
        assert slices >= barriers  # asynchronous slices dominate


class TestCc:
    def test_afforest_partition(self, oracle):
        _, sym, _, Gu = oracle
        labels = afforest(fresh_graph(sym))
        assert_partition_equal(labels, nx.connected_components(Gu))

    def test_sv_partition(self, oracle):
        _, sym, _, Gu = oracle
        labels = shiloach_vishkin(fresh_graph(sym))
        assert_partition_equal(labels, nx.connected_components(Gu))

    def test_afforest_equals_sv_labels(self, oracle):
        sym = oracle[1]
        a = afforest(fresh_graph(sym))
        b = shiloach_vishkin(fresh_graph(sym))
        assert np.array_equal(a, b)  # both produce min-id labels

    def test_afforest_fewer_instructions_than_sv(self, oracle):
        # The fine-grained advantage (Table IV / Figure 3c).
        sym = oracle[1]
        ga = fresh_graph(sym)
        afforest(ga)
        gs = fresh_graph(sym)
        shiloach_vishkin(gs)
        assert (ga.runtime.machine.counters.instructions
                < gs.runtime.machine.counters.instructions)

    def test_edgeless(self):
        from repro.sparse.csr import build_csr

        sym = build_csr(4, 4, [], [], None)
        assert np.array_equal(afforest(fresh_graph(sym)), np.arange(4))

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("variant", [afforest, shiloach_vishkin])
    def test_empty_single_and_isolated(self, variant, n):
        from repro.sparse.csr import build_csr

        labels = variant(fresh_graph(build_csr(n, n, [], [], None)))
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.arange(n))


class TestTc:
    def test_matches_oracle(self, oracle):
        _, sym, _, Gu = oracle
        ref = sum(nx.triangles(Gu).values()) // 3
        assert triangle_count(fresh_graph(sym)) == ref

    def test_no_intermediate_matrix_allocated(self, oracle):
        # Materialization check: the counting loop allocates nothing
        # beyond the sorted graph + L built in preprocessing.
        sym = oracle[1]
        g = fresh_graph(sym)
        alloc = g.runtime.machine.allocator
        triangle_count(g)
        labels = [a for a in [] ]  # counting itself adds no allocations
        assert alloc.live_bytes < 3 * sym.nbytes + 4096


class TestKtruss:
    def _oracle_truss(self, Gu, k):
        H = Gu.copy()
        changed = True
        while changed:
            changed = False
            for u, v in list(H.edges()):
                if len(set(H[u]) & set(H[v])) < k - 2:
                    H.remove_edge(u, v)
                    changed = True
        return H.number_of_edges()

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_oracle(self, oracle, k):
        _, sym, _, Gu = oracle
        alive, rounds = ktruss(fresh_graph(sym), k)
        assert alive.sum() == 2 * self._oracle_truss(Gu, k)

    def test_matches_lagraph(self, oracle, gb_backend):
        from repro.lagraph import ktruss as la_ktruss
        from tests.conftest import pattern_matrix

        sym = oracle[1]
        alive, _ = ktruss(fresh_graph(sym), 4)
        S, _ = la_ktruss(gb_backend, pattern_matrix(gb_backend, sym), 4)
        assert alive.sum() == S.nvals

    def test_alive_pattern_is_symmetric(self, oracle):
        sym = oracle[1]
        from repro.sparse.tricount import twin_positions

        alive, _ = ktruss(fresh_graph(sym), 4)
        twin = twin_positions(sym)
        assert np.array_equal(alive, alive[twin])


class TestPagerank:
    def test_layouts_identical(self, oracle):
        csr = oracle[0]
        a = pagerank(fresh_graph(csr), iters=10, layout="aos")
        b = pagerank(fresh_graph(csr), iters=10, layout="soa")
        assert np.array_equal(a, b)

    def test_matches_lagraph(self, oracle, gb_backend):
        from repro.lagraph import pagerank_gb_res
        from tests.conftest import pattern_matrix

        csr = oracle[0]
        ls = pagerank(fresh_graph(csr), iters=10)
        la = pagerank_gb_res(gb_backend, pattern_matrix(gb_backend, csr),
                             iters=10).dense_values()
        assert np.allclose(ls, la, rtol=1e-10)

    def test_unknown_layout(self, oracle):
        with pytest.raises(ValueError):
            pagerank(fresh_graph(oracle[0]), layout="csr")

    def test_soa_more_memory_traffic_than_aos(self, oracle):
        # The Figure 3a data-layout effect.
        csr = oracle[0]
        ga = fresh_graph(csr)
        pagerank(ga, iters=10, layout="aos")
        gs = fresh_graph(csr)
        pagerank(gs, iters=10, layout="soa")
        assert (gs.runtime.machine.counters.memory_accesses()
                > ga.runtime.machine.counters.memory_accesses())
