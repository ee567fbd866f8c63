"""LAGraph algorithms validated against networkx / scipy oracles."""

import networkx as nx
import numpy as np
import pytest

import repro.graphblas as gb
from repro.lagraph import (
    bfs,
    delta_stepping,
    fastsv,
    ktruss,
    pagerank_gb,
    pagerank_gb_res,
    triangle_count,
)

from tests.conftest import (
    assert_partition_equal,
    nx_digraph,
    pattern_matrix,
    random_digraph,
    weighted_matrix,
)


@pytest.fixture(scope="module")
def oracle():
    csr, sym = random_digraph()
    G = nx_digraph(csr)
    return csr, sym, G, G.to_undirected()


class TestBfs:
    def test_levels_match_oracle(self, backend, oracle):
        csr, _, G, _ = oracle
        A = pattern_matrix(backend, csr)
        dist = bfs(backend, A, 0).dense_values()
        ref = nx.single_source_shortest_path_length(G, 0)
        for v in range(csr.nrows):
            expected = ref[v] + 1 if v in ref else 0
            assert dist[v] == expected

    def test_source_level_one(self, backend, oracle):
        csr = oracle[0]
        A = pattern_matrix(backend, csr)
        assert bfs(backend, A, 5).dense_values()[5] == 1

    def test_isolated_source(self, backend):
        from repro.sparse.csr import build_csr

        csr = build_csr(3, 3, [1], [2], None)
        A = pattern_matrix(backend, csr)
        dist = bfs(backend, A, 0).dense_values()
        assert dist[0] == 1 and dist[1] == 0 and dist[2] == 0

    def test_counts_rounds(self, backend, oracle):
        csr = oracle[0]
        A = pattern_matrix(backend, csr)
        bfs(backend, A, 0)
        assert backend.machine.counters.rounds > 1


class TestFastSV:
    def test_partition(self, backend, oracle):
        _, sym, _, Gu = oracle
        A = pattern_matrix(backend, sym, "Asym")
        labels = fastsv(backend, A).dense_values()
        assert_partition_equal(labels, nx.connected_components(Gu))

    def test_labels_are_component_minimum(self, backend, oracle):
        _, sym, _, Gu = oracle
        A = pattern_matrix(backend, sym, "Asym")
        labels = fastsv(backend, A).dense_values()
        for comp in nx.connected_components(Gu):
            assert labels[min(comp)] == min(comp)

    def test_edgeless_graph(self, backend):
        from repro.sparse.csr import build_csr

        csr = build_csr(5, 5, [], [], None)
        A = pattern_matrix(backend, csr)
        labels = fastsv(backend, A).dense_values()
        assert np.array_equal(labels, np.arange(5))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_empty_single_and_isolated(self, backend, n):
        from repro.sparse.csr import build_csr

        A = pattern_matrix(backend, build_csr(n, n, [], [], None))
        assert np.array_equal(fastsv(backend, A).dense_values(), np.arange(n))


class TestTriangleCount:
    def test_matches_oracle(self, backend, oracle):
        _, sym, _, Gu = oracle
        A = pattern_matrix(backend, sym, "Asym")
        ref = sum(nx.triangles(Gu).values()) // 3
        assert triangle_count(backend, A, "gb") == ref

    def test_variants_agree(self, backend, oracle):
        _, sym, _, Gu = oracle
        ref = sum(nx.triangles(Gu).values()) // 3
        # gb-sort / gb-ll run on the degree-sorted graph: relabeling does
        # not change the count.
        total = np.diff(sym.indptr) + np.bincount(sym.indices,
                                                  minlength=sym.nrows)
        perm = np.argsort(total, kind="stable").astype(np.int64)
        sorted_csr = sym.permute(perm)
        for variant in ("gb-sort", "gb-ll"):
            A = pattern_matrix(backend, sorted_csr, "Asorted")
            assert triangle_count(backend, A, variant) == ref

    def test_unknown_variant(self, backend, oracle):
        A = pattern_matrix(backend, oracle[1], "Asym")
        with pytest.raises(ValueError):
            triangle_count(backend, A, "gb-quantum")

    def test_triangle_free(self, backend):
        from repro.sparse.csr import build_csr

        # A 4-cycle has no triangles.
        csr = build_csr(4, 4, [0, 1, 2, 3, 1, 2, 3, 0],
                        [1, 2, 3, 0, 0, 1, 2, 3], None)
        A = pattern_matrix(backend, csr)
        assert triangle_count(backend, A, "gb") == 0


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

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_oracle(self, backend, oracle, k):
        _, sym, _, Gu = oracle
        A = pattern_matrix(backend, sym, "Asym")
        S, rounds = ktruss(backend, A, k)
        assert S.nvals == 2 * self._oracle_truss(Gu, k)
        assert rounds >= 1

    def test_k3_of_triangle(self, backend):
        from repro.sparse.csr import build_csr

        csr = build_csr(3, 3, [0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 1], None)
        A = pattern_matrix(backend, csr)
        S, _ = ktruss(backend, A, 3)
        assert S.nvals == 6


class TestPagerank:
    def test_variants_identical(self, backend, oracle):
        csr = oracle[0]
        A = pattern_matrix(backend, csr)
        p1 = pagerank_gb(backend, A, iters=10).dense_values()
        p2 = pagerank_gb_res(backend, A, iters=10).dense_values()
        assert np.allclose(p1, p2, rtol=1e-10)

    def test_matches_power_iteration_oracle(self, backend, oracle):
        csr = oracle[0]
        n = csr.nrows
        A = pattern_matrix(backend, csr)
        got = pagerank_gb(backend, A, iters=10).dense_values()
        # Reference: pr = base + sum of 10 pushed residual waves.
        alpha, base = 0.85, 0.15 / n
        deg = np.maximum(np.diff(csr.indptr), 1)
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        y = np.full(n, base)
        pr = np.full(n, base)
        for _ in range(10):
            contrib = alpha * y / deg
            y = np.zeros(n)
            np.add.at(y, csr.indices, contrib[rows])
            pr += y
        assert np.allclose(got, pr, rtol=1e-9)

    def test_more_iters_changes_result(self, backend, oracle):
        A = pattern_matrix(backend, oracle[0])
        p5 = pagerank_gb_res(backend, A, iters=5).dense_values()
        p10 = pagerank_gb_res(backend, A, iters=10).dense_values()
        assert not np.allclose(p5, p10)


class TestDeltaStepping:
    def test_matches_dijkstra(self, backend, oracle):
        csr, _, G, _ = oracle
        Aw = weighted_matrix(backend, csr)
        dist = delta_stepping(backend, Aw, 0, delta=64).dense_values()
        ref = nx.single_source_dijkstra_path_length(G, 0)
        inf = np.iinfo(np.int64).max
        for v in range(csr.nrows):
            assert dist[v] == ref.get(v, inf)

    @pytest.mark.parametrize("delta", [1, 16, 1 << 13])
    def test_delta_invariance(self, backend, oracle, delta):
        csr = oracle[0]
        Aw = weighted_matrix(backend, csr)
        base = delta_stepping(backend, Aw, 3, delta=64).dense_values()
        got = delta_stepping(backend, Aw, 3, delta=delta).dense_values()
        assert np.array_equal(base, got)

    def test_int32_distance_type(self, backend, oracle):
        csr = oracle[0]
        Aw = weighted_matrix(backend, csr)
        d32 = delta_stepping(backend, Aw, 0, delta=64,
                             dist_type=gb.INT32).dense_values()
        d64 = delta_stepping(backend, Aw, 0, delta=64).dense_values()
        reached = d64 < np.iinfo(np.int64).max
        assert np.array_equal(d32[reached].astype(np.int64), d64[reached])
