"""Per-graph kernel plan cache keyed on CSR structural memos.

The kernel engines re-derive their execution plan on every call from
dtype/sortedness/degree statistics: :func:`repro.sparse.segreduce.segment_reduce`
walks its monoid/dtype branch chain, and :func:`repro.sparse.join.row_pair_join`
re-materializes its hoisted composite keys and re-decides merge-vs-densify
per batch.  Steady-state iterative algorithms (PageRank, BFS, SSSP rounds)
call the same kernel on the same matrix thousands of times, so the plan —
a pure function of the matrix structure and the (kernel, monoid, dtype)
signature — never changes after the first call.

This module memoizes those decisions *on the matrix itself*, in the same
numpy-level structural-memo family as ``CSRMatrix.row_degrees()`` /
``row_ids()``: a ``_plan_cache`` dict on the host CSR.  The CSR keeps it in
its structure memo, which ``CSRMatrix.with_values`` siblings share by
reference — so a plan derived through one matrix serves every matrix of the
same structure (the transpose plan of a dataset's graph outlives the
per-run matrices wrapped around it), and :func:`drop` through any sharer
clears it for all of them.
Cached plans never appear in the machine model's memory accounting, and a
cache hit can never change results — every cached value is a pure function
of structure that the deriving code would recompute identically (the
tier-1 suite runs with ``REPRO_PLAN_CACHE=0`` in CI to prove it).

Import-order note: :mod:`repro.sparse.csr` imports ``segreduce`` which
imports this module, so this module imports neither — hosts are duck-typed
on the ``_plan_cache`` slot.

Thread discipline: the shard-parallel executor
(:mod:`repro.sparse.parallel`) runs shard tasks concurrently, and while
each shard keys its plans on its *own* ``_plan_cache`` slot, the shared
right-hand operands (SpGEMM's ``B``/``Bt``) are hosts too — two shard
tasks can race to create the same host's cache dict or to count the same
entry.  One module lock serializes every cache/stats mutation; lookups
and stores are per-kernel-call (never per-element), so the uncontended
lock costs nanoseconds against kernels that run milliseconds.

``REPRO_PLAN_CACHE=0`` disables all lookups (plans re-derived per call);
:func:`plan_cache_stats` / :func:`hit_rate` report the per-kernel
hit/miss bookkeeping the benches read.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Optional

__all__ = [
    "cached", "get", "put", "drop", "enabled", "set_enabled",
    "plan_cache_stats", "reset_stats", "hit_rate",
]

_ENABLED = os.environ.get("REPRO_PLAN_CACHE", "1") != "0"

#: Per-kernel lookup bookkeeping: kernel -> {"hits", "misses", "entries"}.
_STATS: Dict[str, Dict[str, int]] = {}

#: Serializes cache-dict creation and stats mutation across the kernel
#: threads of :mod:`repro.sparse.parallel` (see the module docstring).
_LOCK = threading.Lock()


def enabled() -> bool:
    """Whether lookups are live (REPRO_PLAN_CACHE, overridable per run)."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Force the cache on/off at runtime; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def _bucket(kernel: str) -> Dict[str, int]:
    bucket = _STATS.get(kernel)
    if bucket is None:
        bucket = _STATS[kernel] = {"hits": 0, "misses": 0, "entries": 0}
    return bucket


def get(host, kernel: str, key):
    """The cached value for ``(kernel, key)`` on ``host``, or None.

    Counts one hit or miss per call.  ``host`` is anything carrying a
    ``_plan_cache`` slot (a :class:`~repro.sparse.csr.CSRMatrix`); a None
    host always misses without touching the stats, so call sites can pass
    optional hosts unconditionally.  A slot-less host counts a regular
    miss (indistinguishable from a host whose slot is still empty).
    """
    if not _ENABLED or host is None:
        return None
    with _LOCK:
        cache = getattr(host, "_plan_cache", None)
        if cache is None:
            _bucket(kernel)["misses"] += 1
            return None
        value = cache.get((kernel, key))
        if value is None:
            _bucket(kernel)["misses"] += 1
            return None
        _bucket(kernel)["hits"] += 1
        return value


def put(host, kernel: str, key, value) -> None:
    """Store ``value`` for ``(kernel, key)`` on ``host`` (no-op if disabled)."""
    if not _ENABLED or host is None or value is None:
        return
    if not hasattr(host, "_plan_cache"):
        return
    with _LOCK:
        cache = host._plan_cache
        if cache is None:
            cache = host._plan_cache = {}
        if (kernel, key) not in cache:
            _bucket(kernel)["entries"] += 1
        cache[(kernel, key)] = value


def cached(host, kernel: str, key, derive: Callable):
    """Memoized ``derive()`` keyed by ``(kernel, key)`` on ``host``.

    The one-liner most call sites want: a hit returns the stored plan, a
    miss derives, stores and returns it.  With the cache disabled (or a
    host that cannot cache) every call derives fresh — byte-identical by
    construction, since ``derive`` is a pure function of structure.
    """
    value = get(host, kernel, key)
    if value is not None:
        return value
    value = derive()
    put(host, kernel, key, value)
    return value


def drop(host) -> None:
    """Forget every plan cached on ``host`` (structural invalidation).

    Hosts sharing one structure memo share the dict: the entries are
    subtracted from the bookkeeping once, and none of them can replay a
    dropped plan.
    """
    with _LOCK:
        cache = getattr(host, "_plan_cache", None)
        if cache:
            for kernel, _key in cache:
                _bucket(kernel)["entries"] -= 1
        if cache is not None:
            host._plan_cache = None


def plan_cache_stats() -> Dict[str, Dict[str, int]]:
    """Per-kernel ``{"hits", "misses", "entries"}`` since the last reset."""
    return {kernel: dict(bucket) for kernel, bucket in sorted(_STATS.items())}


def reset_stats() -> None:
    """Zero the bookkeeping (benchmarks isolate their steady-state rate)."""
    _STATS.clear()


def hit_rate() -> Optional[float]:
    """Aggregate hits / lookups across kernels, or None with no lookups."""
    hits = sum(b["hits"] for b in _STATS.values())
    lookups = hits + sum(b["misses"] for b in _STATS.values())
    if lookups == 0:
        return None
    return hits / lookups
