"""Shard-parallel executor: fan-out mechanics, determinism, lock discipline.

The tentpole invariant under test: ``REPRO_KERNEL_THREADS`` changes
*wall-clock only*.  Every blocked kernel must return byte-identical
results at every thread count and shard geometry (the fixed-shard-order
merge of :mod:`repro.sparse.parallel`), whole traced cells must produce
identical answers, counters, and event streams on both API stacks, and
the plan cache must survive concurrent shard tasks without losing or
double-counting entries.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import Cancelled, InvalidValue
from repro.sparse import blocked, parallel, plancache
from repro.sparse.blocked import BlockedCSR
from repro.sparse.csr import build_csr
from repro.sparse.semiring_ops import BINARY_FNS, MONOID_FNS
from repro.sparse.spgemm import spgemm_masked_dot, spgemm_saxpy
from repro.sparse.spmv import spmv_pull, vxm_push

PLUS = MONOID_FNS["plus"]
TIMES = BINARY_FNS["times"]
PAIR = BINARY_FNS["pair"]

THREAD_MATRIX = (1, 2, 4)


def random_csr(n, m, density, seed, values=True):
    mat = sp.random(n, m, density=density, random_state=seed).tocsr()
    coo = mat.tocoo()
    data = coo.data if values else None
    return build_csr(n, m, coo.row, coo.col, data)


@pytest.fixture(autouse=True)
def _restore_thread_override():
    previous = parallel.set_kernel_threads(None)
    yield
    parallel.set_kernel_threads(previous)


class TestKnob:
    def test_default_is_sequential(self):
        assert parallel.kernel_threads_from_env({}) == 1

    def test_env_parse(self):
        assert parallel.kernel_threads_from_env(
            {"REPRO_KERNEL_THREADS": "4"}) == 4

    def test_env_rejects_garbage_and_zero(self):
        with pytest.raises(InvalidValue):
            parallel.kernel_threads_from_env({"REPRO_KERNEL_THREADS": "two"})
        with pytest.raises(InvalidValue):
            parallel.kernel_threads_from_env({"REPRO_KERNEL_THREADS": "0"})

    def test_runtime_override_wins_and_restores(self):
        previous = parallel.set_kernel_threads(3)
        try:
            assert parallel.kernel_threads() == 3
        finally:
            parallel.set_kernel_threads(previous)
        with pytest.raises(InvalidValue):
            parallel.set_kernel_threads(0)

    def test_effective_threads_never_exceeds_shards(self):
        assert parallel.effective_threads(1, threads=8) == 1
        assert parallel.effective_threads(16, threads=4) == 4
        assert parallel.effective_threads(3, threads=4) == 3


class TestMapShards:
    def test_results_come_back_in_item_order(self):
        import time

        def task(i):
            # Later items finish first: order must still be item order.
            time.sleep(0.002 * (8 - i))
            return i * i

        out = parallel.map_shards(task, range(8), threads=4)
        assert out == [i * i for i in range(8)]

    def test_single_thread_is_a_plain_loop(self):
        names = []

        def task(i):
            names.append(threading.current_thread().name)
            return i

        assert parallel.map_shards(task, range(3), threads=1) == [0, 1, 2]
        assert all("repro-kernel" not in name for name in names)

    def test_first_error_in_shard_order_wins(self):
        import time

        def task(i):
            if i == 1:
                time.sleep(0.01)
                raise ValueError("shard 1")
            if i == 3:
                raise KeyError("shard 3")
            return i

        # Shard 3 fails immediately, shard 1 later — the re-raised error
        # must still be shard 1's (first in shard order).
        with pytest.raises(ValueError, match="shard 1"):
            parallel.map_shards(task, range(4), threads=4)

    def test_fanout_record_is_cleared_on_take(self):
        parallel.record_fanout(8, 4)
        assert parallel.take_fanout() == (8, 4)
        assert parallel.take_fanout() is None
        parallel.record_fanout(2, 2)
        parallel.clear_fanout()
        assert parallel.fanout_fields() == {}
        parallel.record_fanout(8, 4)
        assert parallel.fanout_fields() == {"shards": 8, "threads": 4}


class TestKernelDeterminismMatrix:
    """threads x shard-geometry: every driver byte-identical to monolithic."""

    @pytest.fixture(scope="class")
    def operands(self):
        A = random_csr(300, 300, 0.05, seed=11)
        B = random_csr(300, 300, 0.04, seed=12)
        L = random_csr(300, 300, 0.06, seed=13, values=False)
        x = np.linspace(-1.0, 2.0, 300)
        frontier = np.unique(
            np.random.default_rng(5).integers(0, 300, size=40))
        f_vals = np.linspace(1.0, 3.0, len(frontier))
        return A, B, L, x, frontier, f_vals

    @pytest.mark.parametrize("threads", THREAD_MATRIX)
    @pytest.mark.parametrize("shard_rows", (32, 1024))
    def test_all_drivers_byte_identical(self, operands, threads,
                                        shard_rows):
        A, B, L, x, frontier, f_vals = operands
        A_blocked = BlockedCSR.from_csr(A, shard_rows=shard_rows)
        L_blocked = BlockedCSR.from_csr(L, shard_rows=shard_rows)

        y0, touched0, flops0 = spmv_pull(A, x, PLUS, TIMES)
        pi0, pv0, pf0 = vxm_push(A, frontier, f_vals, PLUS, TIMES)
        C0, cf0 = spgemm_saxpy(A, B, PLUS, TIMES)
        M0, mw0 = spgemm_masked_dot(L, L, L, PLUS, PAIR,
                                    out_dtype=np.int64)
        r0 = blocked.BlockedCSR.from_csr(A, shard_rows=A.nrows) \
            .reduce_rows("plus")

        previous = parallel.set_kernel_threads(threads)
        try:
            y, touched, flops = spmv_pull(A_blocked, x, PLUS, TIMES)
            assert np.array_equal(y, y0)
            assert np.array_equal(touched, touched0)
            assert flops == flops0

            pi, pv, pf = vxm_push(A_blocked, frontier, f_vals, PLUS, TIMES)
            assert np.array_equal(pi, pi0)
            assert np.array_equal(pv, pv0)
            assert pf == pf0

            C, cf = spgemm_saxpy(A_blocked, B, PLUS, TIMES)
            assert np.array_equal(C.indptr, C0.indptr)
            assert np.array_equal(C.indices, C0.indices)
            assert np.array_equal(C.values, C0.values)
            assert cf == cf0

            M, mw = spgemm_masked_dot(L_blocked, L, L, PLUS, PAIR,
                                      out_dtype=np.int64)
            assert np.array_equal(M.indptr, M0.indptr)
            assert np.array_equal(M.indices, M0.indices)
            assert np.array_equal(M.values, M0.values)
            assert mw == mw0

            r = A_blocked.reduce_rows("plus")
            assert np.array_equal(r, r0)
        finally:
            parallel.set_kernel_threads(previous)

    def test_fanout_recorded_for_emitters(self, operands):
        A = operands[0]
        x = operands[3]
        A_blocked = BlockedCSR.from_csr(A, shard_rows=32)
        previous = parallel.set_kernel_threads(4)
        try:
            parallel.clear_fanout()
            spmv_pull(A_blocked, x, PLUS, TIMES)
            assert parallel.take_fanout() == (A_blocked.nshards, 4)
        finally:
            parallel.set_kernel_threads(previous)
        # Monolithic kernels record nothing: event fields keep 0 defaults.
        parallel.clear_fanout()
        spmv_pull(A, x, PLUS, TIMES)
        assert parallel.take_fanout() is None


def _normalized_events(events):
    """Events with the wall-clock-only fan-out fields zeroed.

    ``shards``/``threads`` are observability (like ``seconds``): they may
    differ across thread counts, everything else must not.
    """
    from repro.engine import OpEvent

    return tuple(OpEvent(**{**e.as_dict(), "shards": 0, "threads": 0})
                 for e in events)


class TestTracedCellDeterminism:
    """Same cell at threads {1,2,4} x shard geometries, both stacks."""

    @pytest.mark.parametrize("system", ("GB", "LS"))
    def test_cell_invariant_across_threads_and_shards(self, system,
                                                      monkeypatch):
        from repro.engine.analysis import run_traced
        from repro.graphs import datasets

        baseline = None
        for shard_rows in (1024, None):  # None = whole-graph default
            if shard_rows is None:
                monkeypatch.delenv("REPRO_SHARD_ROWS", raising=False)
            else:
                monkeypatch.setenv("REPRO_SHARD_ROWS", str(shard_rows))
            datasets.clear_cache()
            for threads in THREAD_MATRIX:
                previous = parallel.set_kernel_threads(threads)
                try:
                    cell = run_traced(system, "pr", "road-USA-W")
                finally:
                    parallel.set_kernel_threads(previous)
                observed = (cell.answer, cell.summary, cell.counters,
                            _normalized_events(cell.events))
                if baseline is None:
                    baseline = observed
                else:
                    assert observed[0] == baseline[0], \
                        f"answer drifted at threads={threads}"
                    assert observed[1] == baseline[1], \
                        f"summary drifted at threads={threads}"
                    assert observed[2] == baseline[2], \
                        f"counters drifted at threads={threads}"
                    assert observed[3] == baseline[3], \
                        f"event stream drifted at threads={threads}"
        datasets.clear_cache()


class TestPlanCacheLockDiscipline:
    """Concurrent shard tasks must not race the shared plan cache."""

    def test_concurrent_puts_count_each_entry_once(self):
        host = random_csr(50, 50, 0.1, seed=3)
        # The drill needs live lookups, also on the REPRO_PLAN_CACHE=0 leg.
        previous = plancache.set_enabled(True)
        try:
            self._hammer(host)
        finally:
            plancache.set_enabled(previous)

    def _hammer(self, host):
        plancache.reset_stats()
        n_threads, n_keys = 8, 25
        barrier = threading.Barrier(n_threads)

        def hammer(tid):
            barrier.wait()
            for i in range(n_keys):
                # Every thread races to create the same entries.
                plancache.cached(host, "lock_drill", (i,), lambda i=i: [i])
            return tid

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(hammer, range(n_threads)))

        stats = plancache.plan_cache_stats()["lock_drill"]
        # The race this guards: two threads both miss, both put, and the
        # entry count drifts from the true cache size.
        assert stats["entries"] == n_keys
        assert stats["hits"] + stats["misses"] == n_threads * n_keys
        assert len(host._plan_cache) == n_keys
        plancache.drop(host)
        assert plancache.plan_cache_stats()["lock_drill"]["entries"] == 0
        plancache.reset_stats()

    def test_shared_rhs_host_survives_parallel_spgemm(self):
        # The real workload shape: one B shared across shard tasks, its
        # cache dict created under contention.
        A = random_csr(400, 400, 0.03, seed=21)
        B = random_csr(400, 400, 0.03, seed=22)
        C0, f0 = spgemm_saxpy(A, B, PLUS, TIMES)
        A_blocked = BlockedCSR.from_csr(A, shard_rows=16)
        previous = parallel.set_kernel_threads(4)
        try:
            for _ in range(3):
                plancache.drop(B)
                C, f = spgemm_saxpy(A_blocked, B, PLUS, TIMES)
                assert np.array_equal(C.indices, C0.indices)
                assert np.array_equal(C.values, C0.values)
                assert f == f0
        finally:
            parallel.set_kernel_threads(previous)


class TestShardTaskCancellation:
    def test_tripped_token_cancels_between_shard_tasks(self):
        from repro.engine import cancel

        A = random_csr(200, 200, 0.05, seed=31)
        B = random_csr(200, 200, 0.05, seed=32)
        A_blocked = BlockedCSR.from_csr(A, shard_rows=20)
        token = cancel.CancelToken()
        calls = {"n": 0}

        def tripping_mult(a, b):
            # Trip mid-kernel, inside the first shard's multiply: the
            # *next shard task's* entry check must raise — no OpEvent
            # boundary is ever reached.
            calls["n"] += 1
            token.cancel("drill")
            return np.multiply(a, b)

        mult = BINARY_FNS["times"].__class__("times", tripping_mult)
        with cancel.scope(token):
            with pytest.raises(Cancelled):
                spgemm_saxpy(A_blocked, B, PLUS, mult)
        assert calls["n"] >= 1
