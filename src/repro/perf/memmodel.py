"""Analytic cache-hierarchy model.

The paper reports per-level memory-access counts gathered with Intel
CapeScripts on a 4-socket Xeon Gold 5120.  We model the same hierarchy
analytically: kernels declare *access streams* — "this loop makes N accesses
of E bytes each, with pattern P, into an array of B bytes" — and the model
assigns each access to the level that would have served it.

Classification rules (deliberately simple and deterministic):

* ``SEQUENTIAL`` — a streaming pass over an array.  One miss per 64-byte
  cache line; the line fill is served by the level the array is *resident*
  in (the smallest level whose capacity holds the whole array, else DRAM).
  All other accesses in the stream hit L1.
* ``RANDOM`` — independent accesses into a working set of ``array_bytes``.
  Every access is served by the residency level of the working set.
* ``STRIDED`` — gather with locality between SEQUENTIAL and RANDOM: half of
  the line is reused on average, so one residency-level access per two
  elements, remainder from L1.

Scaled inputs
-------------

The reproduction's graphs are ~1/1000 the paper's sizes, so a naive model
would classify arrays as cache-resident that on the paper's machine were
DRAM-resident.  The hierarchy therefore applies a ``byte_scale`` multiplier
to array sizes *before* classification: residency decisions are made as if
the data were full size, while access counts stay at the actual (scaled)
counts.  Datasets carry their scale factor and the harness installs it.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

from repro.errors import InvalidValue

#: Cache line size in bytes (Skylake-SP).
LINE_BYTES = 64


class AccessPattern(enum.Enum):
    """How a kernel walks an array."""

    SEQUENTIAL = "seq"
    RANDOM = "random"
    STRIDED = "strided"


class AccessStream(namedtuple(
        "AccessStream", ("array_bytes", "n_accesses", "pattern", "elem_bytes"))):
    """One declared bundle of memory accesses (immutable, validated).

    Parameters
    ----------
    array_bytes:
        Size of the array (or working set) being accessed, in *actual*
        (scaled) bytes.  The model multiplies by ``byte_scale`` before
        classifying residency.
    n_accesses:
        Number of element accesses the kernel performs against it.
    pattern:
        Access pattern; see :class:`AccessPattern`.
    elem_bytes:
        Size of one accessed element (4 for int32/float32, 8 for int64).
    """

    __slots__ = ()

    def __new__(cls, array_bytes: int, n_accesses: int,
                pattern: AccessPattern = AccessPattern.SEQUENTIAL,
                elem_bytes: int = 4):
        if array_bytes < 0 or n_accesses < 0:
            raise InvalidValue("stream sizes must be non-negative")
        if elem_bytes <= 0:
            raise InvalidValue("elem_bytes must be positive")
        return tuple.__new__(cls, (array_bytes, n_accesses, pattern,
                                   elem_bytes))


@dataclass(frozen=True)
class HierarchySpec:
    """Capacities of a cache hierarchy, in bytes served per level."""

    name: str
    l1_bytes: int
    l2_bytes: int
    l3_bytes: int
    #: Per-access service latency in nanoseconds, by level.
    latency_ns: tuple  # (l1, l2, l3, dram)


#: The paper's machine: Xeon Gold 5120, 4 sockets.  L1d 32 KB and L2 1 MB
#: are per-core; L3 is 19.25 MB per socket.  Residency uses the *local*
#: socket's L3: a parallel pass's working set is spread over the sockets,
#: but each thread's reuse happens in its own L3, and remote-L3 hits cost
#: nearly as much as DRAM on this platform — so vertex-sized arrays larger
#: than one L3 are modeled as DRAM-resident, which is what the paper's
#: DRAM-traffic analysis (Table IV) observes.
XEON_GOLD_5120 = HierarchySpec(
    name="Xeon Gold 5120 (4 sockets)",
    l1_bytes=32 * 1024,
    l2_bytes=1024 * 1024,
    l3_bytes=int(19.25 * 1024 * 1024),
    latency_ns=(1.0, 4.0, 14.0, 80.0),
)


class CacheHierarchy:
    """Classifies access streams into per-level access counts."""

    def __init__(self, spec: HierarchySpec = XEON_GOLD_5120, byte_scale: float = 1.0):
        if not byte_scale > 0:
            raise InvalidValue("byte_scale must be positive")
        self.spec = spec
        #: The dataset's linear scale factor (see module docstring).
        self.byte_scale = float(byte_scale)
        #: Capacity of L1, L2 and L3 in bytes, nearest first.
        self.capacities = (spec.l1_bytes, spec.l2_bytes, spec.l3_bytes)

    def hits(self, streams) -> dict:
        """Split the streams' accesses across hierarchy levels, merged.

        Returns a dict with keys from :data:`~repro.perf.counters.LEVELS`
        in order of first appearance (the time sums over it run in that
        order, and float addition is order-sensitive); its values sum to
        the streams' ``n_accesses``.  This is the model's only stream
        classifier, written as one loop because every charged loop runs it.
        """
        hits: dict = {}
        byte_scale = self.byte_scale
        l1_cap, l2_cap, l3_cap = self.capacities
        for stream in streams:
            n = stream.n_accesses
            if n == 0:
                continue
            effective = stream.array_bytes * byte_scale
            if effective <= l1_cap:
                hits["l1"] = hits.get("l1", 0) + n
                continue
            level = ("l2" if effective <= l2_cap
                     else "l3" if effective <= l3_cap else "dram")
            pattern = stream.pattern
            if pattern is AccessPattern.RANDOM:
                hits[level] = hits.get(level, 0) + n
                continue
            if pattern is AccessPattern.STRIDED:
                far = (n + 1) // 2
            else:  # SEQUENTIAL: one line fill per LINE_BYTES touched
                far = min(n, -(-n // max(1, LINE_BYTES // stream.elem_bytes)))
            hits[level] = hits.get(level, 0) + far
            hits["l1"] = hits.get("l1", 0) + (n - far)
        return hits
