"""Unit tests for counters and the analytic cache model."""

import numpy as np
import pytest

from repro.errors import InvalidValue
from repro.perf.costmodel import CostModel, LoopCost, Schedule
from repro.perf.counters import PerfCounters
from repro.perf.memmodel import (
    AccessPattern,
    AccessStream,
    CacheHierarchy,
    LINE_BYTES,
    XEON_GOLD_5120,
)


class TestCounters:
    def test_add_level_hits(self):
        c = PerfCounters()
        c.add_level_hits({"l1": 10, "dram": 3})
        assert c.l1 == 10 and c.dram == 3
        assert c.dram_bytes == 3 * 64
        assert c.memory_accesses() == 13

    def test_snapshot_diff(self):
        c = PerfCounters(instructions=100, l1=5)
        snap = c.snapshot()
        c.instructions += 50
        d = c.diff(snap)
        assert d.instructions == 50 and d.l1 == 0

    def test_merge(self):
        a = PerfCounters(instructions=1, dram=2)
        b = PerfCounters(instructions=10, dram=20)
        a.merge(b)
        assert a.instructions == 11 and a.dram == 22

    def test_reset(self):
        c = PerfCounters(instructions=5)
        c.reset()
        assert c.instructions == 0

    def test_as_dict(self):
        d = PerfCounters(l1=1, l2=2).as_dict()
        assert d["memory_accesses"] == 3


class TestAccessStream:
    def test_negative_sizes_rejected(self):
        with pytest.raises(InvalidValue):
            AccessStream(-1, 10)
        with pytest.raises(InvalidValue):
            AccessStream(10, -1)
        with pytest.raises(InvalidValue):
            AccessStream(10, 10, elem_bytes=0)


def level_of(hierarchy, array_bytes):
    """The level serving a working set of ``array_bytes`` (scaled)."""
    (level,) = hierarchy.hits(
        [AccessStream(array_bytes, 1, AccessPattern.RANDOM)])
    return level


class TestCacheHierarchy:
    def test_residency_thresholds(self):
        h = CacheHierarchy()
        assert level_of(h, 16 * 1024) == "l1"
        assert level_of(h, 512 * 1024) == "l2"
        assert level_of(h, 10 * 2**20) == "l3"
        assert level_of(h, 100 * 2**20) == "dram"

    def test_byte_scale_promotes_to_dram(self):
        # A 20 KB array at 1000x scale is a 20 MB array: L3-resident becomes
        # the decision basis, not the scaled-down size.
        h = CacheHierarchy(byte_scale=1000.0)
        assert level_of(h, 20 * 1024) == "dram"
        h1 = CacheHierarchy(byte_scale=1.0)
        assert level_of(h1, 20 * 1024) == "l1"

    def test_set_byte_scale_validates(self):
        for scale in (0, -1.0, float("nan")):
            with pytest.raises(InvalidValue):
                CacheHierarchy(byte_scale=scale)

    def test_sequential_one_miss_per_line(self):
        h = CacheHierarchy()
        n = 1024
        stream = AccessStream(4 * 2**20, n, AccessPattern.SEQUENTIAL,
                              elem_bytes=4)
        hits = h.hits([stream])
        per_line = LINE_BYTES // 4
        assert hits["l3"] == n // per_line
        assert hits["l1"] == n - n // per_line
        assert sum(hits.values()) == n

    def test_random_all_at_residency(self):
        h = CacheHierarchy()
        stream = AccessStream(200 * 2**20, 100, AccessPattern.RANDOM)
        assert h.hits([stream]) == {"dram": 100}

    def test_strided_splits_half(self):
        h = CacheHierarchy()
        stream = AccessStream(200 * 2**20, 100, AccessPattern.STRIDED)
        hits = h.hits([stream])
        assert hits["dram"] == 50 and hits["l1"] == 50

    def test_l1_resident_all_l1(self):
        h = CacheHierarchy()
        stream = AccessStream(1024, 50, AccessPattern.RANDOM)
        assert h.hits([stream]) == {"l1": 50}

    def test_zero_accesses(self):
        h = CacheHierarchy()
        assert h.hits([AccessStream(100, 0)]) == {}

    def test_hits_merge_in_first_appearance_order(self):
        h = CacheHierarchy()
        hits = h.hits([AccessStream(200 * 2**20, 10, AccessPattern.RANDOM),
                       AccessStream(100, 0),
                       AccessStream(4 * 2**20, 64, AccessPattern.SEQUENTIAL),
                       AccessStream(200 * 2**20, 5, AccessPattern.RANDOM)])
        assert list(hits.items()) == [("dram", 15), ("l3", 4), ("l1", 60)]

    def test_time_ns_uses_latencies(self):
        model = CostModel(CacheHierarchy())
        loop = LoopCost(Schedule.SERIAL, hits={"l1": 10, "dram": 1},
                        barrier=False)
        work, fixed = model.price(loop, 56)
        lat = XEON_GOLD_5120.latency_ns
        assert work == pytest.approx(10 * lat[0] + lat[3])
        assert fixed == 0.0
