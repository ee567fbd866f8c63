"""Property-based tests (hypothesis) on kernels, semantics and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
from repro.graphblas.ops import binary, monoid, semiring
from repro.perf.costmodel import LoopCost, Schedule, static_block_imbalance
from repro.perf.machine import Machine
from repro.perf.memmodel import AccessPattern, AccessStream, CacheHierarchy
from repro.sparse.csr import build_csr
from repro.sparse.semiring_ops import MONOID_FNS, SegmentReducer
from repro.suitesparse import SuiteSparseBackend

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def coo_graph(draw, max_n=24, max_m=80):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    vals = draw(st.lists(st.integers(1, 50), min_size=m, max_size=m))
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), \
        np.array(vals, dtype=np.int64)


class TestMonoidLaws:
    @SETTINGS
    @given(st.sampled_from(["plus", "min", "max", "times"]),
           st.lists(st.integers(-50, 50), min_size=0, max_size=20))
    def test_reduce_is_order_independent(self, kind, values):
        mon = MONOID_FNS[kind]
        a = np.array(values, dtype=np.int64)
        forward = mon.reduce_all(a, np.int64)
        backward = mon.reduce_all(a[::-1].copy(), np.int64)
        assert forward == backward

    @SETTINGS
    @given(st.sampled_from(["plus", "min", "max", "lor", "land"]),
           st.lists(st.integers(0, 5), min_size=1, max_size=10))
    def test_identity_neutral(self, kind, values):
        mon = MONOID_FNS[kind]
        if kind in ("lor", "land"):
            # Logical monoids operate on {0, 1}.
            values = [v % 2 for v in values]
        a = np.array(values, dtype=np.int64)
        ident = mon.identity(np.int64)
        combined = mon.combine(a, np.full_like(a, ident))
        assert np.array_equal(np.asarray(combined, dtype=np.int64), a)

    @SETTINGS
    @given(st.sampled_from(["plus", "min", "max"]),
           st.lists(st.tuples(st.integers(0, 4), st.integers(-9, 9)),
                    min_size=0, max_size=30))
    def test_segment_reduce_matches_python(self, kind, pairs):
        mon = MONOID_FNS[kind]
        segs = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.int64)
        out = SegmentReducer(mon).reduce(vals, segs, 5, dtype=np.int64)
        for s in range(5):
            chunk = vals[segs == s]
            expected = mon.reduce_all(chunk, np.int64)
            assert out[s] == expected


class TestCsrProperties:
    @SETTINGS
    @given(coo_graph())
    def test_build_roundtrip_scipy(self, g):
        n, src, dst, vals = g
        csr = build_csr(n, n, src, dst, vals, dedup="min")
        import scipy.sparse as sp

        ref = sp.coo_matrix((vals, (src, dst)), shape=(n, n)).tocsr()
        # scipy sums duplicates; compare patterns and per-pattern min.
        assert csr.nvals == len(set(zip(src.tolist(), dst.tolist())))
        for i, j in set(zip(src.tolist(), dst.tolist())):
            dup_vals = vals[(src == i) & (dst == j)]
            assert csr.get(int(i), int(j)) == dup_vals.min()

    @SETTINGS
    @given(coo_graph())
    def test_transpose_involution(self, g):
        n, src, dst, vals = g
        csr = build_csr(n, n, src, dst, vals, dedup="min")
        tt = csr.transpose().transpose()
        assert np.array_equal(tt.indptr, csr.indptr)
        assert np.array_equal(tt.indices, csr.indices)

    @SETTINGS
    @given(coo_graph())
    def test_tril_triu_disjoint_cover(self, g):
        n, src, dst, vals = g
        csr = build_csr(n, n, src, dst, None, dedup="last")
        low = csr.extract_tril(strict=True).nvals
        up = csr.extract_triu(strict=True).nvals
        diag = csr.extract_tril(strict=False).nvals - low
        assert low + up + diag == csr.nvals

    @SETTINGS
    @given(coo_graph())
    def test_symmetrize_is_symmetric_and_superset(self, g):
        from repro.graphs.transform import symmetrize

        n, src, dst, vals = g
        csr = build_csr(n, n, src, dst, vals, dedup="min")
        sym, w = symmetrize(csr, csr.values)
        t = sym.transpose()
        assert np.array_equal(t.indices, sym.indices)
        assert sym.nvals >= csr.nvals


class TestSpgemmProperties:
    @SETTINGS
    @given(coo_graph(max_n=14, max_m=40))
    def test_saxpy_matches_scipy(self, g):
        from repro.sparse.semiring_ops import BINARY_FNS
        from repro.sparse.spgemm import spgemm_saxpy

        n, src, dst, vals = g
        csr = build_csr(n, n, src, dst, vals.astype(np.float64),
                        dedup="last")
        C, _ = spgemm_saxpy(csr, csr, MONOID_FNS["plus"],
                            BINARY_FNS["times"])
        ref = csr.to_scipy() @ csr.to_scipy()
        assert np.allclose(C.to_scipy().toarray(), ref.toarray())


class TestGraphBLASSemantics:
    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(-5, 5)),
                    max_size=10),
           st.lists(st.integers(0, 9), max_size=10),
           st.booleans(), st.booleans())
    def test_assign_mask_replace_semantics(self, w_pairs, mask_idx,
                                           comp, replace):
        backend = SuiteSparseBackend(Machine())
        w = gb.Vector(backend, gb.INT64, 10)
        for i, v in w_pairs:
            w.set_element(i, v)
        mask = gb.Vector(backend, gb.BOOL, 10)
        for i in mask_idx:
            mask.set_element(i, True)
        before_present = w.present_mask()
        before_vals = w.dense_values()
        desc = gb.Descriptor(mask_comp=comp, replace=replace,
                             mask_structure=True)
        gb.assign(w, 77, mask=mask, desc=desc)
        allowed = mask.present_mask()
        if comp:
            allowed = ~allowed
        for i in range(10):
            if allowed[i]:
                assert w._present[i] and w._values[i] == 77
            elif replace:
                assert not w._present[i]
            else:
                assert w._present[i] == before_present[i]
                if before_present[i]:
                    assert w._values[i] == before_vals[i]

    @SETTINGS
    @given(coo_graph(max_n=16, max_m=50))
    def test_bfs_level_invariant(self, g):
        # Adjacent vertices' levels differ by at most 1 (when both reached).
        from repro.lonestar import bfs
        from repro.galois.graph import Graph
        from repro.runtime.galois_rt import GaloisRuntime

        n, src, dst, _ = g
        keep = src != dst
        csr = build_csr(n, n, src[keep], dst[keep], None, dedup="last")
        dist = bfs(Graph(GaloisRuntime(Machine()), csr), 0)
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        for u, v in zip(rows, csr.indices):
            if dist[u] > 0:
                assert dist[v] > 0 and dist[v] <= dist[u] + 1

    @SETTINGS
    @given(coo_graph(max_n=16, max_m=50))
    def test_sssp_triangle_inequality(self, g):
        from repro.lonestar import delta_stepping
        from repro.galois.graph import Graph
        from repro.runtime.galois_rt import GaloisRuntime

        n, src, dst, vals = g
        keep = src != dst
        csr = build_csr(n, n, src[keep], dst[keep],
                        vals[keep], dedup="min")
        graph = Graph(GaloisRuntime(Machine()), csr, csr.values)
        dist = delta_stepping(graph, 0, delta=16)
        inf = np.iinfo(np.int64).max
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        for u, v, w in zip(rows, csr.indices, csr.value_array()):
            if dist[u] < inf:
                assert dist[v] <= dist[u] + w

    @SETTINGS
    @given(coo_graph(max_n=14, max_m=40), st.integers(3, 5))
    def test_ktruss_support_invariant(self, g, k):
        from repro.lonestar import ktruss
        from repro.galois.graph import Graph
        from repro.graphs.transform import symmetrize
        from repro.runtime.galois_rt import GaloisRuntime
        from repro.sparse.tricount import edge_supports

        n, src, dst, _ = g
        keep = src != dst
        csr = build_csr(n, n, src[keep], dst[keep], None, dedup="last")
        sym, _ = symmetrize(csr)
        graph = Graph(GaloisRuntime(Machine()), sym)
        alive, _ = ktruss(graph, k)
        sup, _, _ = edge_supports(sym, alive)
        assert np.all(sup[alive] >= k - 2)


class TestCostModelProperties:
    @SETTINGS
    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=200))
    def test_static_imbalance_at_least_one(self, weights):
        imb = static_block_imbalance(np.array(weights))
        assert all(v >= 0.999 for v in imb.values())

    @SETTINGS
    @given(st.integers(0, 10**6), st.integers(0, 10**5),
           st.sampled_from([1, 2, 8, 56]))
    def test_loop_time_nonnegative_and_monotone_in_work(self, instr, dram, p):
        from repro.perf.costmodel import CostModel

        m = CostModel(CacheHierarchy())
        small = LoopCost(Schedule.STEAL, instructions=instr,
                         hits={"dram": dram})
        big = LoopCost(Schedule.STEAL, instructions=instr * 2,
                       hits={"dram": dram * 2})
        assert m.price(small, p)[0] >= 0
        assert m.price(big, p)[0] >= m.price(small, p)[0]

    @SETTINGS
    @given(st.integers(1, 10**7), st.sampled_from(
        [AccessPattern.SEQUENTIAL, AccessPattern.RANDOM,
         AccessPattern.STRIDED]),
           st.integers(1, 10**5))
    def test_classification_conserves_accesses(self, array_bytes, pattern,
                                               n_accesses):
        h = CacheHierarchy()
        hits = h.hits([AccessStream(array_bytes, n_accesses, pattern)])
        assert sum(hits.values()) == n_accesses
