"""Unit tests for the cost model, scheduling and the Machine bundle."""

import numpy as np
import pytest

from repro.errors import InvalidValue, TimeoutError
from repro.perf.costmodel import (
    CostModel,
    CostParams,
    LoopCost,
    Schedule,
    THREAD_POINTS,
    static_block_imbalance,
)
from repro.perf.machine import Machine
from repro.perf.memmodel import CacheHierarchy


def model():
    return CostModel(CacheHierarchy())


class TestStaticImbalance:
    def test_uniform_weights_balanced(self):
        # Block boundaries round to whole items, so a ~1% wobble remains.
        imb = static_block_imbalance(np.ones(1000))
        assert all(1.0 <= v < 1.05 for v in imb.values())

    def test_skewed_prefix_imbalanced(self):
        w = np.ones(1000)
        w[:10] = 1000.0
        imb = static_block_imbalance(w)
        assert imb[56] > 5.0
        assert imb[1] == 1.0

    def test_fewer_items_than_threads(self):
        imb = static_block_imbalance(np.ones(3))
        assert imb[56] == 1.0

    def test_empty(self):
        assert static_block_imbalance(np.array([]))[8] == 1.0


class TestLoopTime:
    def test_serial_equals_sum(self):
        m = model()
        loop = LoopCost(Schedule.SERIAL, instructions=100,
                        hits={"l1": 10}, barrier=False)
        work, fixed = m.price(loop, 56)
        assert work == pytest.approx(100 * 0.4 + 10 * 1.0)
        assert fixed == 0.0

    def test_parallel_scales_down(self):
        m = model()
        loop = LoopCost(Schedule.STEAL, instructions=10000)
        assert m.price(loop, 56)[0] < m.price(loop, 1)[0]

    def test_more_threads_never_slower(self):
        m = model()
        loop = LoopCost(Schedule.STEAL, instructions=5000,
                        hits={"dram": 100}, max_item_frac=0.01)
        times = [sum(m.price(loop, p)) for p in THREAD_POINTS]
        for a, b in zip(times, times[1:]):
            assert b <= a * 1.05 + 10000  # barrier growth tolerance

    def test_max_item_bound(self):
        m = model()
        loop = LoopCost(Schedule.STEAL, instructions=10000,
                        max_item_frac=0.5, barrier=False)
        serial = m.price(loop, 1)[0]
        assert m.price(loop, 56)[0] >= serial * 0.5

    def test_dram_speedup_capped(self):
        p = CostParams()
        m = CostModel(CacheHierarchy(), p)
        loop = LoopCost(Schedule.STEAL, hits={"dram": 10000}, barrier=False)
        cap = p.level_speedup_cap[3]
        t_inf = m.price(loop, 10_000)[0]
        assert t_inf == pytest.approx(10000 * 80.0 / cap)

    def test_huge_pages_discount(self):
        m = model()
        a = LoopCost(Schedule.STEAL, hits={"dram": 1000}, huge_pages=True)
        b = LoopCost(Schedule.STEAL, hits={"dram": 1000}, huge_pages=False)
        assert m.price(a, 56)[0] < m.price(b, 56)[0]

    def test_fixed_costs_not_scaled(self):
        m1 = Machine(time_scale=1.0)
        m100 = Machine(time_scale=100.0)
        for m in (m1, m100):
            m.charge_loop(Schedule.STEAL, instructions=1000, fixed_ns=5000.0)
        work, fixed = m1.cost_model.price(m1.loop_records[0], 56)
        assert fixed > 5000.0  # the call overhead plus the barrier
        assert m1.simulated_seconds() == pytest.approx((work + fixed) * 1e-9)
        assert m100.simulated_seconds() == pytest.approx(
            (work * 100 + fixed) * 1e-9)

    def test_barrier_only_on_barrier_loops(self):
        m = model()
        with_b = LoopCost(Schedule.STEAL, barrier=True)
        without = LoopCost(Schedule.STEAL, barrier=False)
        assert m.price(with_b, 8)[1] > m.price(without, 8)[1]
        serial = LoopCost(Schedule.SERIAL, barrier=True)
        assert m.price(serial, 8)[1] == 0.0

    def test_invalid_threads(self):
        with pytest.raises(InvalidValue):
            model().price(LoopCost(Schedule.STEAL), 0)


class TestMachine:
    def test_charge_accumulates_counters(self):
        from repro.perf.memmodel import AccessStream

        m = Machine()
        m.charge_loop(Schedule.STEAL, instructions=100,
                      streams=[AccessStream(1024, 10)],
                      n_items=10)
        assert m.counters.instructions == 100
        assert m.counters.l1 == 10
        assert m.counters.loops == 1

    def test_serial_loops_not_counted_as_loops(self):
        m = Machine()
        m.charge_loop(Schedule.SERIAL, instructions=10, barrier=False)
        assert m.counters.loops == 0

    def test_round_counter(self):
        m = Machine()
        m.round()
        m.round()
        assert m.counters.rounds == 2

    def test_simulated_seconds_thread_sweep_consistent(self):
        m = Machine(threads=56)
        for _ in range(5):
            m.charge_loop(Schedule.STEAL, instructions=100000,
                          n_items=1000)
        default = m.simulated_seconds()
        recomputed = m.simulated_seconds(56)
        assert default == pytest.approx(recomputed)
        assert m.simulated_seconds(1) > default

    @pytest.mark.parametrize("threads", [0, -3])
    @pytest.mark.parametrize("n_loops", [0, 1])
    def test_repricing_rejects_thread_counts_below_one(self, threads,
                                                       n_loops):
        from repro.perf.trace import explain

        m = Machine()
        for _ in range(n_loops):
            m.charge_loop(Schedule.STEAL, instructions=100)
        with pytest.raises(InvalidValue):
            m.simulated_seconds(threads)
        with pytest.raises(InvalidValue):
            explain(m, threads)

    def test_timeout_raises(self):
        m = Machine(timeout_seconds=1e-6)
        with pytest.raises(TimeoutError):
            for _ in range(100):
                m.charge_loop(Schedule.STEAL, instructions=10**7)

    def test_time_scale_multiplies_work(self):
        m1 = Machine(time_scale=1.0)
        m2 = Machine(time_scale=50.0)
        for m in (m1, m2):
            m.charge_loop(Schedule.STEAL, instructions=10**6, barrier=False,
                          fixed_ns=0.0)
        assert m2.simulated_seconds() == pytest.approx(
            m1.simulated_seconds() * 50.0)

    def test_heavy_tail_item_keeps_fraction(self):
        # A hub item (weight >> mean) stays an indivisible chunk even at
        # paper scale; a uniform item's fraction is scaled away.
        m_hub = Machine(time_scale=1000.0)
        w = np.ones(100)
        w[0] = 10000.0
        loop = m_hub.charge_loop(Schedule.STEAL, instructions=10,
                                 weights=w, n_items=100)
        assert loop.max_item_frac == pytest.approx(10000.0 / w.sum())
        m_flat = Machine(time_scale=1000.0)
        loop2 = m_flat.charge_loop(Schedule.STEAL, instructions=10,
                                   weights=np.ones(100), n_items=100)
        assert loop2.max_item_frac == pytest.approx(0.01 / 1000.0)

    def test_reset_measurement_keeps_mrss(self):
        m = Machine()
        m.allocator.allocate(10**6, "x")
        m.charge_loop(Schedule.STEAL, instructions=10)
        peak = m.mrss_bytes()
        m.reset_measurement()
        assert m.counters.instructions == 0
        assert m.simulated_seconds() == 0.0
        assert m.mrss_bytes() == peak
