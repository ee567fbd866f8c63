"""tc's triangle listing against the generic join, and tc against networkx.

* :func:`repro.sparse.tricount.triangular_supports` — the listing that
  ``spgemm_masked_dot`` runs for ``C<L> = L plus.pair U'`` (SandiaDot: gb
  and gb-sort) and ``C<L> = L plus.pair L'`` (gb-ll) — returns the same
  ``C`` (indptr, indices, values, dtype) and the same ``flops`` as the
  generic masked join on hypothesis graphs and on the shapes that break
  orientation tricks; operands that are not one strictly
  lower-triangular structure, or another semiring, a ``BlockedCSR`` left
  operand or a non-numeric output, keep the generic join; the listing is
  chosen off degrees alone (friendster lists, eukarya joins).
* ``networkx.triangles`` is the independent oracle for every tc variant —
  gb, gb-sort, gb-ll on both backends and Lonestar's ls — on hypothesis
  graphs with isolated vertices, duplicate edges, self-loops and n = 0,
  with the listing forced on and with the default rule.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
import repro.sparse.spgemm as spgemm
import repro.sparse.tricount as tricount
from repro.galois.graph import Graph
from repro.galoisblas import GaloisBLASBackend
from repro.graphs import datasets
from repro.graphs.transform import symmetrize
from repro.lagraph import triangle_count as la_triangle_count
from repro.lonestar import triangle_count as ls_triangle_count
from repro.perf.machine import Machine
from repro.runtime.galois_rt import GaloisRuntime
from repro.sparse.blocked import BlockedCSR
from repro.sparse.csr import build_csr
from repro.sparse.join import masked_row_join
from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
from repro.suitesparse import SuiteSparseBackend
from tests.test_ktruss_kernels import SHAPES, dense_graph, sym_graph

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

PLUS, PAIR = MONOID_FNS["plus"], BINARY_FNS["pair"]


def operands(sym, variant):
    """``(L, Bt)`` as tc's mxm hands them to ``spgemm_masked_dot``."""
    L = sym.extract_tril()
    return L, (sym.extract_triu() if variant == "dot" else L)


def force_listing(patch):
    """Switch off the degree rule: list whenever the operands qualify."""
    patch.setattr(tricount, "LISTING_GAIN", 0)
    patch.setattr(tricount, "LISTING_MIN_WORK", 0)


def forced_listing(L, Bt):
    """``triangular_supports`` with the degree rule switched off."""
    with pytest.MonkeyPatch.context() as patch:
        force_listing(patch)
        return tricount.triangular_supports(L, Bt)


def listed_masked_dot(L, Bt, out_dtype, monkeypatch):
    """``spgemm_masked_dot`` with the listing taken whenever it qualifies;
    also returns what each listing call answered."""
    answers = []
    real = spgemm.triangular_supports

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]

    with monkeypatch.context() as patch:
        force_listing(patch)
        patch.setattr(spgemm, "triangular_supports", spy)
        C, flops = spgemm.spgemm_masked_dot(L, Bt, L, PLUS, PAIR,
                                            out_dtype=out_dtype)
    return C, flops, answers


def generic_masked_dot(A, Bt, mask, out_dtype, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(spgemm, "triangular_supports", lambda *args: None)
        return spgemm.spgemm_masked_dot(A, Bt, mask, PLUS, PAIR,
                                        out_dtype=out_dtype)


def assert_same_matrix(C, D):
    assert (C.nrows, C.ncols) == (D.nrows, D.ncols)
    for field in ("indptr", "indices", "values"):
        got, want = getattr(C, field), getattr(D, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


def assert_listing_matches_generic(sym, variant, dtype, monkeypatch):
    L, Bt = operands(sym, variant)
    C, flops, answers = listed_masked_dot(L, Bt, dtype, monkeypatch)
    if L.nvals:
        # The listing ran.  (An empty L is symmetric too: it takes the
        # symmetric listing and never gets here.)
        assert len(answers) == 1 and answers[0] is not None
    D, work = generic_masked_dot(L, Bt, L, dtype, monkeypatch)
    assert_same_matrix(C, D)
    assert flops == work == masked_row_join(L, Bt, L).work
    assert isinstance(flops, int)


class TestTriangularListing:
    @SETTINGS
    @given(st.one_of(sym_graph(), dense_graph()),
           st.sampled_from(["dot", "ll"]),
           st.sampled_from([np.int64, np.int32, np.float64]))
    def test_matches_generic_join(self, sym, variant, dtype):
        mp = pytest.MonkeyPatch()
        try:
            assert_listing_matches_generic(sym, variant, dtype, mp)
        finally:
            mp.undo()

    @pytest.mark.parametrize("variant", ["dot", "ll"])
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shapes(self, name, variant, monkeypatch):
        assert_listing_matches_generic(SHAPES[name], variant, np.int64,
                                       monkeypatch)

    @pytest.mark.parametrize("variant", ["dot", "ll"])
    def test_each_variant_credits_its_entry(self, variant):
        # One triangle 0 < 1 < 2: SandiaDot credits (2, 0), whose third
        # vertex lies between; gb-ll credits (2, 1), whose third is below.
        tri = build_csr(3, 3, [1, 2, 2, 0, 0, 1], [0, 0, 1, 1, 2, 2], None)
        for csr in (tri, SHAPES["two_cliques"]):
            L, Bt = operands(csr, variant)
            listed = forced_listing(L, Bt)
            want = masked_row_join(L, Bt, L).hits
            assert np.array_equal(listed, want)
        L, Bt = operands(tri, variant)
        credited = {"dot": (2, 0), "ll": (2, 1)}[variant]
        counts = forced_listing(L, Bt)
        entries = list(zip(L.row_ids().tolist(), L.indices.tolist()))
        assert [e for e, c in zip(entries, counts) if c] == [credited]

    def test_rule_is_read_off_degrees(self):
        # The two grid graphs on either side of the rule: friendster's
        # generic join gathers ~10x the listing's candidates, eukarya's
        # ~2x with dense triangles.
        for name, lists in (("friendster", True), ("eukarya", False)):
            sym = datasets.get_dataset(name).build_symmetric()[0]
            L, U = operands(sym, "dot")
            assert (tricount.triangular_supports(L, U) is not None) == lists


class TestTurnedAway:
    def test_operands_that_do_not_qualify(self):
        sym = SHAPES["two_cliques"]
        L, U = sym.extract_tril(), sym.extract_triu()
        forced = forced_listing
        # Not strictly lower-triangular: U itself, L plus a diagonal entry.
        assert forced(U, L) is None
        diag = build_csr(sym.nrows, sym.ncols,
                         np.concatenate([L.row_ids(), [3]]),
                         np.concatenate([L.indices, [3]]), None)
        assert forced(diag, diag) is None
        # Bt neither L nor L': one entry short, or another structure.
        short = U.filter_entries(np.arange(U.nvals) > 0)
        assert forced(L, short) is None
        assert forced(L, sym) is None
        # Non-square and empty operands.
        assert forced(build_csr(2, 3, [1], [0], None),
                      build_csr(2, 3, [1], [0], None)) is None
        empty = build_csr(4, 4, [], [], None)
        assert forced(empty, empty) is None

    def test_other_dispatch_inputs_keep_the_generic_join(self, monkeypatch):
        # The plus-pair checks come first; a shard of a BlockedCSR is
        # asked, and refused as non-square.
        answers = []
        real = spgemm.triangular_supports

        def spy(*args):
            answers.append(real(*args))
            return answers[-1]

        monkeypatch.setattr(spgemm, "triangular_supports", spy)
        force_listing(monkeypatch)
        sym = SHAPES["two_cliques"]
        L, U = sym.extract_tril(), sym.extract_triu()
        valued = L.with_values(np.ones(L.nvals, dtype=np.int64))
        # Another semiring, a non-numeric output, a mask that is not A.
        C, _ = spgemm.spgemm_masked_dot(valued, U, valued, PLUS,
                                        BINARY_FNS["times"],
                                        out_dtype=np.int64)
        assert int(C.values.sum()) == 36
        spgemm.spgemm_masked_dot(L, U, L, PLUS, PAIR, out_dtype=np.bool_)
        spgemm.spgemm_masked_dot(L, U, sym.extract_tril().filter_entries(
            np.arange(L.nvals) > 0), PLUS, PAIR, out_dtype=np.int64)
        # A BlockedCSR left operand goes through the shard-wise kernel.
        C, flops = spgemm.spgemm_masked_dot(BlockedCSR.from_csr(L, 4), U, L,
                                            PLUS, PAIR, out_dtype=np.int64)
        assert int(C.values.sum()) == 36
        assert flops == masked_row_join(L, U, L).work
        assert answers and all(answer is None for answer in answers)


# ----------------------------------------------------------------------
# Independent oracle: networkx.triangles
# ----------------------------------------------------------------------

@st.composite
def raw_graph(draw, max_n=14, max_m=70):
    """A directed edge list with duplicates, self-loops and isolated
    vertices, symmetrized the way tc's input is; n may be 0."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        pairs = []
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=max_m))
    csr = build_csr(n, n, [u for u, _ in pairs], [v for _, v in pairs],
                    None, dedup="last")
    sym, _ = symmetrize(csr)
    return sym, pairs


def networkx_triangles(n, pairs):
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from((u, v) for u, v in pairs if u != v)
    return sum(nx.triangles(G).values()) // 3


def degree_sorted(sym):
    """gb-sort / gb-ll's input: relabeled in ascending degree order."""
    total = np.diff(sym.indptr) + np.bincount(sym.indices,
                                              minlength=sym.nrows)
    return sym.permute(np.argsort(total, kind="stable").astype(np.int64))


def all_counts(sym):
    counts = {}
    for backend_cls in (SuiteSparseBackend, GaloisBLASBackend):
        for variant in ("gb", "gb-sort", "gb-ll"):
            backend = backend_cls(Machine())
            csr = sym if variant == "gb" else degree_sorted(sym)
            A = gb.Matrix.from_csr(backend, gb.BOOL, csr)
            counts[backend_cls.__name__, variant] = \
                la_triangle_count(backend, A, variant)
    counts["LS"] = ls_triangle_count(Graph(GaloisRuntime(Machine()), sym))
    return counts


class TestNetworkxOracle:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_graph(), st.booleans())
    def test_every_variant_matches_networkx(self, case, listing):
        sym, pairs = case
        want = networkx_triangles(sym.nrows, pairs)
        mp = pytest.MonkeyPatch()
        try:
            if listing:
                force_listing(mp)
            counts = all_counts(sym)
        finally:
            mp.undo()
        assert counts == dict.fromkeys(counts, want)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shapes(self, name):
        sym = SHAPES[name]
        rows, cols = sym.row_ids().tolist(), sym.indices.tolist()
        want = networkx_triangles(sym.nrows, list(zip(rows, cols)))
        counts = all_counts(sym)
        assert counts == dict.fromkeys(counts, want)
