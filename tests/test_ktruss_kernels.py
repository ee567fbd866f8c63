"""The ktruss wall-clock kernels against their references.

Three equivalences the study grid's ktruss cells rest on, each on
generated graphs (hypothesis) plus the shapes that break orientation
tricks (empty graph, isolated vertices, star, clique, regular ring — all
rank ties):

* :func:`repro.sparse.tricount.symmetric_supports` (each triangle listed
  once on the degree-oriented forward half) vs the per-pair reference
  join: supports, ``cand``, ``work``, ``row_work`` under symmetric
  ``alive`` masks; asymmetric, self-looped or unevenly masked inputs must
  be turned away and get the generic join's result;
* Lonestar's batched removal wave vs the scalar Gauss-Seidel cascade it
  replaced (kept here as the oracle): ``alive``, ``rounds``, the event
  stream and every charged loop;
* ``spgemm_masked_dot``'s plus-pair fast path vs the generic masked join
  on the same operands, and a ``BlockedCSR`` left operand still going
  through the shard-wise kernel;

and one independent oracle: ``networkx.k_truss`` edge sets vs both stacks.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
import repro.sparse.blocked as blocked
import repro.sparse.parallel as parallel
import repro.sparse.spgemm as spgemm
from repro.engine.events import OpEvent
from repro.galois.graph import Graph
from repro.galois.loops import DEFAULT_TILE
from repro.galoisblas import GaloisBLASBackend
from repro.lagraph import ktruss as la_ktruss
from repro.lonestar import ktruss as ls_ktruss
from repro.perf.machine import Machine
from repro.runtime.galois_rt import GaloisRuntime
from repro.sparse.blocked import BlockedCSR
from repro.sparse.csr import CSRMatrix, build_csr
from repro.sparse.join import dedup_bounded, masked_row_join
from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
from repro.sparse.tricount import (
    edge_supports,
    symmetric_supports,
    symmetric_twins,
    twin_positions,
)
from repro.suitesparse import SuiteSparseBackend
from tests.join_oracles import join_sorted, naive_row_pair_join

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

PLUS, PAIR = MONOID_FNS["plus"], BINARY_FNS["pair"]


def undirected(n, edges):
    """Symmetric, diagonal-free pattern CSR of an undirected edge list."""
    edges = [(u, v) for u, v in edges if u != v]
    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    return build_csr(n, n, rows, cols, None, dedup="last")


def shapes():
    clique = [(u, v) for u in range(7) for v in range(u)]
    return {
        "empty": undirected(5, []),
        "isolated": undirected(9, [(1, 2), (2, 4), (1, 4), (4, 7)]),
        "star": undirected(8, [(0, v) for v in range(1, 8)]),
        "clique": undirected(7, clique),
        # Every vertex has degree 4: the rank is decided by ids alone.
        "ring": undirected(10, [(v, (v + d) % 10)
                                for v in range(10) for d in (1, 2)]),
        "two_cliques": undirected(9, clique + [(6, 7), (7, 8), (6, 8)]),
    }


SHAPES = shapes()


@st.composite
def sym_graph(draw, max_n=18, max_m=70):
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=max_m))
    return undirected(n, pairs)


@st.composite
def dense_graph(draw, max_n=12):
    """Each vertex pair drawn on its own: about half present, so removal
    waves hold triangles with two and three doomed edges."""
    n = draw(st.integers(3, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs),
                            max_size=len(pairs)))
    return undirected(n, [p for p, keep in zip(pairs, present) if keep])


@st.composite
def sym_graph_and_mask(draw):
    """A symmetric graph and an ``alive`` bitmap symmetric over twins."""
    csr = draw(st.one_of(sym_graph(), dense_graph()))
    twin = twin_positions(csr)
    flags = np.array(draw(st.lists(st.booleans(), min_size=csr.nvals,
                                   max_size=csr.nvals)), dtype=bool)
    canon = np.minimum(np.arange(csr.nvals), twin)
    return csr, flags[canon]


def reference_supports(csr, alive):
    """(supports, cand, work, row_work) from the per-pair reference join."""
    pos = np.flatnonzero(alive)
    res = naive_row_pair_join(csr, csr.row_ids()[pos], csr,
                              csr.indices[pos].astype(np.int64),
                              a_keep=alive, b_keep=alive)
    supports = np.zeros(csr.nvals, dtype=np.int64)
    cand = np.zeros(csr.nvals, dtype=np.int64)
    supports[pos] = res.hits
    cand[pos] = res.cand
    row_work = np.bincount(csr.row_ids()[pos], weights=res.cand,
                           minlength=csr.nrows).astype(np.int64)
    return supports, cand, res.work, row_work


def assert_supports_match(csr, alive):
    ref_sup, ref_cand, ref_work, ref_row_work = reference_supports(csr, alive)
    listed = symmetric_supports(csr, alive)
    assert listed is not None
    supports, cand = listed
    assert supports.dtype == np.int64 and cand.dtype == np.int64
    assert np.array_equal(supports, ref_sup)
    assert np.array_equal(cand, ref_cand)
    sup2, work, row_work = edge_supports(csr, alive)
    assert np.array_equal(sup2, ref_sup)
    assert work == ref_work and isinstance(work, int)
    assert np.array_equal(row_work, ref_row_work)
    # The generic self-join (any explicit row list) agrees on all three.
    sup3, work3, row_work3 = edge_supports(csr, alive,
                                           rows=np.arange(csr.nrows))
    assert np.array_equal(sup3, ref_sup) and work3 == ref_work
    assert np.array_equal(row_work3, ref_row_work)


class TestSymmetricSupports:
    @SETTINGS
    @given(sym_graph_and_mask())
    def test_matches_reference_under_masks(self, case):
        assert_supports_match(*case)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shapes(self, name):
        csr = SHAPES[name]
        assert_supports_match(csr, np.ones(csr.nvals, dtype=bool))
        listed = symmetric_supports(csr)
        assert np.array_equal(
            listed[0], symmetric_supports(csr, np.ones(csr.nvals, bool))[0])
        # Drop every third undirected edge.
        twin = twin_positions(csr)
        canon = np.minimum(np.arange(csr.nvals), twin)
        assert_supports_match(csr, canon % 3 != 0)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_twins_point_at_the_reverse_entry(self, name):
        csr = SHAPES[name]
        where = {(int(r), int(c)): p for p, (r, c)
                 in enumerate(zip(csr.row_ids(), csr.indices))}
        want = [where[c, r] for r, c in where]
        assert symmetric_twins(csr).tolist() == want
        assert twin_positions(csr).tolist() == want
        assert twin_positions(csr).dtype == np.int64

    def test_self_loop_takes_generic_path(self):
        csr = build_csr(4, 4, [0, 1, 0, 2, 1, 2, 1], [1, 0, 2, 0, 2, 1, 1],
                        None)
        assert symmetric_twins(csr) is None
        assert symmetric_supports(csr) is None
        alive = np.ones(csr.nvals, dtype=bool)
        sup, work, row_work = edge_supports(csr, alive)
        ref = naive_row_pair_join(csr, csr.row_ids(), csr,
                                  csr.indices.astype(np.int64),
                                  a_keep=alive, b_keep=alive)
        assert np.array_equal(sup, ref.hits) and work == ref.work

    @SETTINGS
    @given(st.integers(2, 12), st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40))
    def test_asymmetric_takes_generic_path(self, n, pairs):
        pairs = [(u % n, v % n) for u, v in pairs]
        csr = build_csr(n, n, [u for u, _ in pairs], [v for _, v in pairs],
                        None, dedup="last")
        alive = np.ones(csr.nvals, dtype=bool)
        sup, work, _ = edge_supports(csr, alive)
        ref = naive_row_pair_join(csr, csr.row_ids(), csr,
                                  csr.indices.astype(np.int64),
                                  a_keep=alive, b_keep=alive)
        assert np.array_equal(sup, ref.hits) and work == ref.work

    def test_triangular_operand_is_turned_away(self):
        L = SHAPES["clique"].extract_tril()
        assert symmetric_twins(L) is None
        assert symmetric_twins(build_csr(2, 3, [0], [1], None)) is None

    def test_uneven_mask_takes_generic_path(self):
        csr = SHAPES["clique"]
        alive = np.ones(csr.nvals, dtype=bool)
        alive[0] = False  # one orientation only
        assert symmetric_supports(csr, alive) is None
        sup, work, _ = edge_supports(csr, alive)
        pos = np.flatnonzero(alive)
        ref = naive_row_pair_join(csr, csr.row_ids()[pos], csr,
                                  csr.indices[pos].astype(np.int64),
                                  a_keep=alive, b_keep=alive)
        assert np.array_equal(sup[pos], ref.hits) and work == ref.work


# ----------------------------------------------------------------------
# The batched removal wave vs the scalar cascade it replaced
# ----------------------------------------------------------------------

class RecordingRuntime(GaloisRuntime):
    """A Galois runtime that also keeps what every loop was charged."""

    def __init__(self, machine):
        super().__init__(machine)
        self.charges = []

    def _note(self, event, kwargs):
        self.charges.append((
            event.kind, event.label, event.items,
            kwargs.get("instr_per_item"), kwargs.get("extra_instr"),
            tuple(kwargs.get("streams", ())),
            None if kwargs.get("weights") is None
            else tuple(kwargs["weights"].tolist())))

    def do_all(self, event, **kwargs):
        self._note(event, kwargs)
        return super().do_all(event, **kwargs)

    def for_each(self, event, **kwargs):
        self._note(event, kwargs)
        return super().for_each(event, **kwargs)


def scalar_ktruss(graph, k, max_rounds=100000):
    """Lonestar ktruss with the one-edge-at-a-time removal loop."""
    rt = graph.runtime
    csr = graph.csr
    needed = k - 2
    indptr, indices = csr.indptr, csr.indices
    entry_rows = csr.row_ids()

    alive = np.ones(csr.nvals, dtype=bool)
    rt.charge_alloc(alive.nbytes, "ktruss:alive")
    twin = twin_positions(csr)
    rt.charge_alloc(twin.nbytes, "ktruss:twin")
    supports, work, row_work = edge_supports(csr, alive,
                                             rows=np.arange(csr.nrows))
    rt.charge_alloc(supports.nbytes, "ktruss:supports")
    rt.do_all(
        OpEvent(kind="do_all", label="ktruss_supports", items=csr.nrows),
        instr_per_item=2.0,
        extra_instr=work * 3,
        streams=[rt.strided(csr.nbytes, work),
                 rt.seq(supports.nbytes, csr.nvals, elem_bytes=8)],
        weights=row_work + 1,
        tile_edges=DEFAULT_TILE,
    )
    doomed = np.flatnonzero(alive & (supports < needed))
    doomed = dedup_bounded(np.minimum(doomed, twin[doomed]), csr.nvals)
    rounds = 0
    while len(doomed) and rounds < max_rounds:
        rounds += 1
        rt.round()
        wave_work = 0
        freshly_doomed = []
        for p in doomed:
            assert alive[p]
            alive[p] = False
            alive[twin[p]] = False
            u = int(entry_rows[p])
            v = int(indices[p])
            lo_u, hi_u = indptr[u], indptr[u + 1]
            lo_v, hi_v = indptr[v], indptr[v + 1]
            u_idx, v_idx = join_sorted(indices[lo_u:hi_u],
                                       indices[lo_v:hi_v])
            wave_work += int(hi_u - lo_u)
            live = alive[lo_u + u_idx] & alive[lo_v + v_idx]
            for q in np.concatenate([lo_u + u_idx[live],
                                     lo_v + v_idx[live]]):
                supports[q] -= 1
                supports[twin[q]] -= 1
                if alive[q] and supports[q] < needed:
                    freshly_doomed.append(min(int(q), int(twin[q])))
        rt.for_each(
            OpEvent(kind="for_each", label="ktruss_wave",
                    items=len(doomed)),
            instr_per_item=4.0,
            extra_instr=wave_work * 3,
            streams=[rt.strided(csr.nbytes, wave_work),
                     rt.rand(supports.nbytes, wave_work, elem_bytes=8)],
        )
        doomed = dedup_bounded(
            np.asarray(freshly_doomed, dtype=np.int64), csr.nvals)
        doomed = doomed[alive[doomed]]
    return alive, rounds


def run_recorded(fn, csr, k, **kwargs):
    rt = RecordingRuntime(Machine())
    alive, rounds = fn(Graph(rt, csr), k, **kwargs)
    events = [e.as_dict() for e in rt.machine.context.events]
    return alive, rounds, events, rt.charges, rt.machine.counters.as_dict()


def assert_same_cascade(csr, k, **kwargs):
    got = run_recorded(ls_ktruss, csr, k, **kwargs)
    want = run_recorded(scalar_ktruss, csr, k, **kwargs)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3] == want[3]
    assert got[4] == want[4]


class TestBatchedWave:
    @SETTINGS
    @given(st.one_of(sym_graph(max_n=16, max_m=90), dense_graph()),
           st.integers(3, 6))
    def test_matches_scalar_cascade(self, csr, k):
        assert_same_cascade(csr, k)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_shapes(self, name, k):
        assert_same_cascade(SHAPES[name], k)

    def test_long_cascade_on_a_denser_graph(self):
        rng = np.random.default_rng(11)
        pairs = list(zip(rng.integers(0, 60, 700).tolist(),
                         rng.integers(0, 60, 700).tolist()))
        csr = undirected(60, pairs)
        for k in (5, 7, 9):
            assert_same_cascade(csr, k)

    def test_max_rounds_stops_both_alike(self):
        rng = np.random.default_rng(5)
        pairs = list(zip(rng.integers(0, 40, 300).tolist(),
                         rng.integers(0, 40, 300).tolist()))
        assert_same_cascade(undirected(40, pairs), 6, max_rounds=1)


# ----------------------------------------------------------------------
# spgemm_masked_dot: plus-pair fast path vs the generic masked join
# ----------------------------------------------------------------------

def generic_masked_dot(A, Bt, mask, out_dtype, monkeypatch):
    """``spgemm_masked_dot`` with the structural dispatch switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(spgemm, "symmetric_supports", lambda csr: None)
        return spgemm.spgemm_masked_dot(A, Bt, mask, PLUS, PAIR,
                                        out_dtype=out_dtype)


def assert_same_matrix(C, D):
    assert (C.nrows, C.ncols) == (D.nrows, D.ncols)
    assert np.array_equal(C.indptr, D.indptr)
    assert np.array_equal(C.indices, D.indices)
    assert C.indices.dtype == D.indices.dtype
    assert C.indptr.dtype == D.indptr.dtype
    assert C.values.dtype == D.values.dtype
    assert np.array_equal(C.values, D.values)


class TestMaskedDotFastPath:
    @SETTINGS
    @given(st.one_of(sym_graph(), dense_graph()),
           st.sampled_from([np.int64, np.int32, np.float64]))
    def test_matches_generic_join(self, csr, dtype):
        # Bt as LAGraph passes it: a separately built transpose, carrying
        # values (round 2+ multiplies the previous round's supports).
        A = csr.with_values(np.arange(csr.nvals, dtype=np.int64))
        Bt = A.transpose()
        listed = []
        real = spgemm.symmetric_supports

        def spy(operand):
            listed.append(operand)
            return real(operand)

        mp = pytest.MonkeyPatch()
        try:
            mp.setattr(spgemm, "symmetric_supports", spy)
            C, flops = spgemm.spgemm_masked_dot(A, Bt, A, PLUS, PAIR,
                                                out_dtype=dtype)
            assert listed == [A]
            D, work = generic_masked_dot(A, Bt, A, dtype, mp)
        finally:
            mp.undo()
        assert_same_matrix(C, D)
        assert flops == work == masked_row_join(A, Bt, A).work

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shapes(self, name, monkeypatch):
        csr = SHAPES[name]
        C, flops = spgemm.spgemm_masked_dot(csr, csr.transpose(), csr,
                                            PLUS, PAIR, out_dtype=np.int64)
        D, work = generic_masked_dot(csr, csr.transpose(), csr, np.int64,
                                     monkeypatch)
        assert_same_matrix(C, D)
        assert flops == work

    def test_other_operands_keep_the_generic_join(self, monkeypatch):
        def refuse(_csr):
            raise AssertionError("structural dispatch taken")

        monkeypatch.setattr(spgemm, "symmetric_supports", refuse)
        sym = SHAPES["two_cliques"]
        L, U = sym.extract_tril(), sym.extract_triu()
        # tc's SandiaDot (Bt = U, another structure: the triangular
        # listing's case, never the symmetric one) ...
        C, _ = spgemm.spgemm_masked_dot(L, U, L, PLUS, PAIR,
                                        out_dtype=np.int64)
        assert int(C.values.sum()) == 35 + 1
        # ... a valued semiring, and a mask that is not the operand.
        weighted = sym.with_values(np.ones(sym.nvals, dtype=np.int64))
        spgemm.spgemm_masked_dot(weighted, weighted, weighted, PLUS,
                                 BINARY_FNS["times"], out_dtype=np.int64)
        spgemm.spgemm_masked_dot(sym, sym, L, PLUS, PAIR,
                                 out_dtype=np.int64)

    def test_triangular_self_join_is_observed_not_assumed(self):
        # gb-ll's C<L> = L*L': A, Bt and mask are one structure, but not a
        # symmetric one — the dispatch must see that and leave it to the
        # triangular listing or the generic join, which agree.
        L = SHAPES["two_cliques"].extract_tril()
        C, work = spgemm.spgemm_masked_dot(L, L, L, PLUS, PAIR,
                                           out_dtype=np.int64)
        ref = masked_row_join(L, L, L)
        assert work == ref.work
        assert int(C.values.sum()) == int(ref.hits.sum()) == 35 + 1

    def test_blocked_operand_routes_through_shards(self, monkeypatch):
        sym = SHAPES["two_cliques"]
        calls = []
        real = blocked.spgemm_masked_dot

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(blocked, "spgemm_masked_dot", spy)
        A = BlockedCSR.from_csr(sym, 4)
        parallel.clear_fanout()
        C, flops = spgemm.spgemm_masked_dot(A, sym, sym, PLUS, PAIR,
                                            out_dtype=np.int64)
        assert calls == [A]
        stamps = parallel.fanout_fields()
        assert stamps["shards"] == A.nshards > 1
        assert stamps["threads"] == parallel.effective_threads(A.nshards)
        D, work = spgemm.spgemm_masked_dot(sym, sym, sym, PLUS, PAIR,
                                           out_dtype=np.int64)
        assert_same_matrix(C, D)
        assert flops == work


# ----------------------------------------------------------------------
# Independent oracle: networkx.k_truss
# ----------------------------------------------------------------------

def truss_edges_lonestar(csr, k):
    alive, _ = ls_ktruss(Graph(GaloisRuntime(Machine()), csr), k)
    rows, cols = csr.row_ids()[alive], csr.indices[alive]
    assert np.array_equal(alive, alive[twin_positions(csr)])
    return {(int(u), int(v)) for u, v in zip(rows, cols) if u < v}


def truss_edges_lagraph(backend_cls, csr, k):
    backend = backend_cls(Machine())
    pattern = CSRMatrix(csr.nrows, csr.ncols, csr.indptr, csr.indices, None)
    S, _ = la_ktruss(backend,
                     gb.Matrix.from_csr(backend, gb.BOOL, pattern), k)
    out = S.csr
    assert np.all(out.values >= k - 2)
    return {(int(u), int(v))
            for u, v in zip(out.row_ids(), out.indices) if u < v}


def truss_edges_networkx(csr, k):
    G = nx.Graph()
    G.add_nodes_from(range(csr.nrows))
    G.add_edges_from(zip(csr.row_ids().tolist(), csr.indices.tolist()))
    return {(min(u, v), max(u, v)) for u, v in nx.k_truss(G, k).edges()}


class TestNetworkxOracle:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(sym_graph(max_n=14, max_m=80), dense_graph()))
    def test_both_stacks_match_networkx(self, csr):
        for k in (3, 4, 5, 7):
            want = truss_edges_networkx(csr, k)
            assert truss_edges_lonestar(csr, k) == want
            assert truss_edges_lagraph(SuiteSparseBackend, csr, k) == want
            assert truss_edges_lagraph(GaloisBLASBackend, csr, k) == want

    @pytest.mark.parametrize("k", [3, 4, 5, 7])
    def test_two_cliques(self, k):
        csr = SHAPES["two_cliques"]
        want = truss_edges_networkx(csr, k)
        assert truss_edges_lonestar(csr, k) == want
        assert truss_edges_lagraph(SuiteSparseBackend, csr, k) == want
        assert truss_edges_lagraph(GaloisBLASBackend, csr, k) == want
        assert len(want) == {3: 24, 4: 21, 5: 21, 7: 21}[k]
