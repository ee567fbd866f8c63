"""Structure-shared matrices and the memoized transpose plan.

``CSRMatrix.with_values`` shares ``indptr``/``indices`` and the structure
memo with its source; ``CSRMatrix.transpose`` is
``pattern.with_values(values[order])`` over the plan-cached
``transpose_plan()``, whose permutation is derived by 16-bit LSD radix
passes.  These tests check the transposes against scipy and bit-for-bit
against the one-line comparison-sort formula the radix passes replaced
(kept here as the reference), on both radix branches, with the plan cache
on and off and at 4 kernel threads; and pin what is shared, what is
read-only, and that invalidating through any sharer clears all of them.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sparse import plancache
from repro.sparse.csr import CSRMatrix, build_csr
from repro.sparse.parallel import set_kernel_threads
from repro.sparse.spgemm import spgemm_diag_left
from repro.sparse.semiring_ops import BINARY_FNS

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Column counts on both sides of the one-pass / two-pass radix boundary.
NCOLS = st.sampled_from([1, 2, 7, 300, (1 << 16) - 1, 1 << 16,
                         (1 << 16) + 1, 200_000])
VALUE_KINDS = st.sampled_from(["pattern", "float64", "int64"])


@pytest.fixture(autouse=True)
def live_cache():
    previous = plancache.set_enabled(True)
    plancache.reset_stats()
    try:
        yield
    finally:
        plancache.set_enabled(previous)
        plancache.reset_stats()


def _values(kind: str, nvals: int, rng) -> np.ndarray:
    if kind == "pattern":
        return None
    if kind == "float64":
        return rng.random(nvals)
    # Integers a float64 round trip would corrupt.
    return (1 << 53) + rng.integers(1, 1 << 20, nvals).astype(np.int64)


@st.composite
def csr_matrices(draw):
    """CSRs with empty rows/columns, a dense column, any value kind."""
    nrows = draw(st.integers(0, 40))
    ncols = draw(NCOLS)
    nnz = draw(st.integers(0, 400)) if nrows else 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.integers(0, max(nrows, 1), nnz)
    # Columns cluster at both ends so the high radix digit varies; a
    # dense column puts one entry in every row.
    cols = np.where(rng.random(nnz) < 0.5,
                    rng.integers(0, min(ncols, 50), nnz),
                    ncols - 1 - rng.integers(0, min(ncols, 50), nnz))
    if nrows and draw(st.booleans()):
        dense = int(rng.integers(0, ncols))
        rows = np.concatenate((rows, np.arange(nrows)))
        cols = np.concatenate((cols, np.full(nrows, dense)))
    pattern = build_csr(nrows, ncols, rows, cols, None)
    return pattern.with_values(
        _values(draw(VALUE_KINDS), pattern.nvals, rng))


def reference_transpose(A: CSRMatrix) -> CSRMatrix:
    """The comparison-sort transpose the plan replaced (the oracle)."""
    order = np.argsort(A.indices, kind="stable")
    counts = np.bincount(A.indices, minlength=A.ncols)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CSRMatrix(A.ncols, A.nrows, indptr, A.row_ids()[order],
                     None if A.values is None else A.values[order])


def assert_same_matrix(got: CSRMatrix, want: CSRMatrix) -> None:
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert got.indptr.dtype == want.indptr.dtype
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    if want.values is None:
        assert got.values is None
    else:
        assert got.values.dtype == want.values.dtype
        assert got.values.tobytes() == want.values.tobytes()


class TestTransposeAgainstOracles:
    @SETTINGS
    @given(csr_matrices())
    def test_matches_argsort_formula_bit_for_bit(self, A):
        order, _pattern = A.transpose_plan()
        assert np.array_equal(order,
                              np.argsort(A.indices, kind="stable"))
        assert_same_matrix(A.transpose(), reference_transpose(A))

    @SETTINGS
    @given(csr_matrices())
    def test_matches_scipy(self, A):
        want = A.to_scipy().T.tocsr()
        want.sort_indices()
        got = A.transpose()
        assert got.to_scipy().shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        if A.values is not None and A.values.dtype == np.float64:
            assert np.array_equal(got.values, want.data)

    @SETTINGS
    @given(csr_matrices())
    def test_double_transpose_is_identity(self, A):
        assert_same_matrix(A.transpose().transpose(), A)

    @SETTINGS
    @given(csr_matrices())
    def test_same_with_cache_off_and_at_four_threads(self, A):
        want = A.transpose()
        plancache.set_enabled(False)
        previous = set_kernel_threads(4)
        try:
            assert_same_matrix(A.transpose(), want)
            plancache.set_enabled(True)
            assert_same_matrix(A.copy().transpose(), want)
        finally:
            plancache.set_enabled(True)
            set_kernel_threads(previous)

    def test_disabled_cache_derives_every_time(self):
        plancache.set_enabled(False)
        A = build_csr(3, 3, [0, 1, 2], [2, 0, 1], np.arange(3.0))
        first, second = A.transpose_plan(), A.transpose_plan()
        assert first[0] is not second[0]
        assert A._plan_cache is None


def _weighted(n=50, m=300, seed=4) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    return build_csr(n, n, rng.integers(0, n, m), rng.integers(0, n, m),
                     rng.random(m), dedup="sum")


class TestSharing:
    def test_with_values_shares_structure_and_memo(self):
        A = _weighted()
        B = A.with_values(np.arange(A.nvals))
        P = A.with_values(None)
        for sibling in (B, P):
            assert np.shares_memory(sibling.indptr, A.indptr)
            assert np.shares_memory(sibling.indices, A.indices)
            assert sibling._memo is A._memo
        assert P.values is None and B.values.dtype == np.int64
        # Filled lazily, through whichever sharer asks first.
        assert A._memo.row_ids is None
        assert B.row_ids() is A.row_ids()
        assert P.row_degrees() is A.row_degrees()
        assert B.transpose_plan() is A.transpose_plan()
        assert plancache.plan_cache_stats()["transpose"] == {
            "hits": 1, "misses": 1, "entries": 1}

    def test_with_values_rejects_wrong_length(self):
        from repro.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            _weighted().with_values(np.zeros(3))

    def test_plan_arrays_are_read_only(self):
        A = _weighted()
        order, pattern = A.transpose_plan()
        At = A.transpose()
        for array in (order, pattern.indptr, pattern.indices,
                      At.indptr, At.indices):
            assert not array.flags.writeable
        assert order.dtype == np.int32
        assert At._memo is pattern._memo
        assert At.values.flags.writeable  # the gather is the caller's own

    def test_diag_product_shares_the_operand_plan(self):
        A = _weighted()
        A.transpose_plan()
        C, flops = spgemm_diag_left(np.full(A.nrows, 2.0), A,
                                    BINARY_FNS["times"])
        assert flops == A.nvals
        assert np.shares_memory(C.indices, A.indices)
        assert np.array_equal(C.values, 2.0 * A.values)
        plancache.reset_stats()
        assert_same_matrix(C.transpose(), reference_transpose(C))
        assert plancache.plan_cache_stats()["transpose"]["misses"] == 0


class TestInvalidationUnderSharing:
    def test_mutate_then_invalidate_on_a_sibling_rederives_both(self):
        indptr = np.array([0, 2, 3, 4], dtype=np.int64)
        indices = np.array([0, 2, 1, 0], dtype=np.int32)
        A = CSRMatrix(3, 3, indptr, indices, np.arange(4.0))
        B = A.with_values(np.arange(4.0) * 10)
        stale = A.transpose()
        A.row_ids()
        assert plancache.plan_cache_stats()["transpose"]["entries"] == 1

        # Row 0 gives its second entry to row 1; row 2 moves a column.
        B.indptr[1] = 1
        B.indices[:] = [0, 1, 2, 2]
        B.invalidate_memos()

        assert A._plan_cache is None and B._plan_cache is None
        assert A._memo.row_ids is None and A._memo.degrees is None
        assert plancache.plan_cache_stats()["transpose"]["entries"] == 0
        for matrix in (A, B):
            assert np.array_equal(matrix.row_degrees(), [1, 2, 1])
            assert_same_matrix(matrix.transpose(),
                               reference_transpose(matrix))
        assert not np.array_equal(A.transpose().indices, stale.indices)
        # One re-derivation served both sharers; dropping again through
        # the other sharer subtracts it exactly once.
        assert plancache.plan_cache_stats()["transpose"]["entries"] == 1
        plancache.drop(A)
        plancache.drop(B)
        assert plancache.plan_cache_stats()["transpose"]["entries"] == 0


def test_concurrent_sharers_see_one_consistent_plan():
    """Siblings transposed from more threads than cores, racing to fill
    the one shared memo: every result is the reference, one plan is counted."""
    A = _weighted(n=400, m=6000, seed=8)
    siblings = [A.with_values(A.values * k) for k in range(1, 9)]
    want = [reference_transpose(s) for s in siblings]
    A.invalidate_memos()
    barrier = threading.Barrier(len(siblings))

    def transpose(sibling):
        barrier.wait(timeout=30)
        return [sibling.transpose() for _ in range(20)][-1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(siblings)) as pool:
            got = list(pool.map(transpose, siblings, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want):
        assert_same_matrix(g, w)
    assert plancache.plan_cache_stats()["transpose"]["entries"] == 1
