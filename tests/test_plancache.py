"""Tests for the per-graph kernel plan cache (repro.sparse.plancache).

The cache memoizes pure-structural decisions — segreduce plan selection,
the join engine's hoisted keys, the pull loop weights — on the host CSR's
``_plan_cache`` slot.  These tests pin the bookkeeping (hits/misses/entries),
the invalidation path, the disabled-mode passthrough, and that cached plans
replay the exact value the deriving code would recompute.
"""

import numpy as np
import pytest

from repro.sparse import plancache
from repro.sparse.csr import build_csr
from repro.sparse.join import row_pair_join
from repro.sparse.segreduce import segment_reduce, select_plan

from tests.conftest import random_digraph


@pytest.fixture(autouse=True)
def live_cache():
    """Force the cache on with clean stats; restore the env setting after.

    The CI matrix runs the suite with ``REPRO_PLAN_CACHE=0`` to prove
    cache hits cannot change results; these bookkeeping tests need the
    cache live regardless, so they toggle it explicitly.
    """
    previous = plancache.set_enabled(True)
    plancache.reset_stats()
    try:
        yield
    finally:
        plancache.set_enabled(previous)
        plancache.reset_stats()


def _matrix():
    return random_digraph(n=60, m=240, seed=5)[0]


class TestBookkeeping:
    def test_miss_then_hit(self):
        csr = _matrix()
        assert plancache.get(csr, "k", ("a",)) is None
        plancache.put(csr, "k", ("a",), "plan-a")
        assert plancache.get(csr, "k", ("a",)) == "plan-a"
        stats = plancache.plan_cache_stats()
        assert stats["k"] == {"hits": 1, "misses": 1, "entries": 1}
        assert plancache.hit_rate() == 0.5

    def test_cached_derives_once(self):
        csr = _matrix()
        calls = []
        for _ in range(3):
            value = plancache.cached(csr, "k", (), lambda: calls.append(1))
        # derive() returning None is never stored; a real value is.
        assert len(calls) == 3
        value = plancache.cached(csr, "k2", ("x",), lambda: "v")
        assert value == "v"
        assert plancache.cached(csr, "k2", ("x",), lambda: "other") == "v"

    def test_none_host_misses_without_stats(self):
        assert plancache.get(None, "k", ()) is None
        plancache.put(None, "k", (), "v")
        assert plancache.plan_cache_stats() == {}
        assert plancache.hit_rate() is None

    def test_slotless_host_always_misses(self):
        host = object()
        plancache.put(host, "k", (), "v")
        assert plancache.get(host, "k", ()) is None

    def test_summary_line_mentions_each_kernel(self):
        csr = _matrix()
        plancache.cached(csr, "segreduce", (), lambda: "p")
        plancache.cached(csr, "segreduce", (), lambda: "p")
        assert plancache.plan_cache_stats() == {
            "segreduce": {"hits": 1, "misses": 1, "entries": 1}}
        assert plancache.hit_rate() == 0.5


class TestDisabledMode:
    def test_disabled_cache_never_stores_or_hits(self):
        plancache.set_enabled(False)
        csr = _matrix()
        derived = []
        for _ in range(2):
            plancache.cached(csr, "k", (), lambda: derived.append(1) or "v")
        assert len(derived) == 2
        assert csr._plan_cache is None
        assert plancache.plan_cache_stats() == {}
        assert plancache.hit_rate() is None

    def test_segment_reduce_identical_with_cache_toggled(self):
        csr = _matrix()
        vals = np.random.default_rng(0).random(csr.nvals)
        ids = csr.row_ids()
        on = segment_reduce(vals, ids, csr.nrows, "plus",
                            dtype=np.float64, row_splits=csr.indptr,
                            cache_on=csr)
        plancache.set_enabled(False)
        off = segment_reduce(vals, ids, csr.nrows, "plus",
                             dtype=np.float64, row_splits=csr.indptr,
                             cache_on=csr)
        assert np.array_equal(on, off)


class TestInvalidation:
    def test_invalidate_memos_drops_cached_plans(self):
        csr = _matrix()
        plancache.put(csr, "k", (), "stale")
        csr.invalidate_memos()
        assert csr._plan_cache is None
        assert plancache.get(csr, "k", ()) is None
        # The dropped entry is subtracted from the bookkeeping.
        assert plancache.plan_cache_stats()["k"]["entries"] == 0

    def test_drop_is_idempotent(self):
        csr = _matrix()
        plancache.drop(csr)
        plancache.drop(csr)
        assert csr._plan_cache is None


class TestKernelIntegration:
    def test_segreduce_plan_cached_and_correct(self):
        csr = _matrix()
        vals = np.random.default_rng(1).random(csr.nvals)
        for _ in range(2):
            out = segment_reduce(vals, csr.row_ids(), csr.nrows, "plus",
                                 dtype=np.float64, row_splits=csr.indptr,
                                 cache_on=csr)
        stats = plancache.plan_cache_stats()["segreduce"]
        assert stats == {"hits": 1, "misses": 1, "entries": 1}
        key = ("segreduce", ("plus", np.dtype(np.float64).str, False, True))
        assert csr._plan_cache[key] == select_plan(
            "plus", np.float64, False, True)
        naive = np.zeros(csr.nrows)
        np.add.at(naive, csr.row_ids(), vals)
        assert np.array_equal(out, naive)

    def test_join_hoisted_keys_memoized(self):
        csr = _matrix()
        rows = np.arange(min(8, csr.nrows), dtype=np.int64)
        first = row_pair_join(csr, rows, csr, rows)
        second = row_pair_join(csr, rows, csr, rows)
        assert plancache.plan_cache_stats()["join_keys"]["hits"] >= 1
        assert np.array_equal(first.hits, second.hits)

