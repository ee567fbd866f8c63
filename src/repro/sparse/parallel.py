"""Shard-parallel kernel executor: fan shard tasks out, merge in order.

The blocked kernel drivers (:mod:`repro.sparse.blocked`) process one
row-range shard at a time; every study kernel is numpy-bound inside a
shard, and numpy releases the GIL for its element loops, so running shard
tasks on a small **thread** pool buys real multi-core speedup without a
process boundary (no pickling, shards mmap-share for free).  This module
is the one place that owns the pool:

* ``REPRO_KERNEL_THREADS=N`` sets the fan-out width (default 1 — exactly
  today's sequential shard loop, zero new machinery on the hot path);
* :func:`map_shards` applies one task per shard and returns the results
  **in shard order** regardless of completion order, so every caller's
  merge (concatenate / stack / reduce) consumes partials in the same
  fixed order the sequential loop produced them — results stay
  byte-identical to monolithic at every thread count;
* the executor is persistent (one pool per process, grown on demand), so
  iterative algorithms pay thread-spawn cost once, not per round.

Cancellation: each shard task begins with :func:`repro.engine.cancel.check`,
so a tripped deadline stops a fanned-out SpGEMM at the next *shard*
boundary, not only at the next OpEvent boundary.  A task that raises makes
:func:`map_shards` re-raise the first error in shard order after letting
the in-flight siblings finish (they observe the same token and exit at
their own next check).

Observability: the blocked drivers call :func:`record_fanout` with the
``(shards, threads)`` geometry they actually used; the GraphBLAS emitters
collect it with :func:`take_fanout` and stamp the ``shards``/``threads``
fields of the :class:`~repro.engine.events.OpEvent` they emit.  These
fields are wall-clock observability only — like ``seconds``, no charge
handler reads them, so modeled accounting is unchanged at every thread
count (the determinism matrix test proves it).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import InvalidValue, env_value

__all__ = [
    "DEFAULT_KERNEL_THREADS", "kernel_threads_from_env", "kernel_threads",
    "set_kernel_threads", "effective_threads", "map_shards",
    "record_fanout", "take_fanout", "clear_fanout", "fanout_fields",
]

#: Fan-out width when ``REPRO_KERNEL_THREADS`` is unset: one, the
#: sequential shard loop every result in the repo was produced with.
DEFAULT_KERNEL_THREADS = 1


def kernel_threads_from_env(environ: Optional[dict] = None) -> int:
    """The ``REPRO_KERNEL_THREADS`` knob, validated (positive int)."""
    env = os.environ if environ is None else environ
    return env_value(env, "REPRO_KERNEL_THREADS", int,
                     DEFAULT_KERNEL_THREADS, low=1)


#: Runtime override (tests, benchmarks); None defers to the environment.
_FORCED: Optional[int] = None


def kernel_threads() -> int:
    """The active fan-out width: the runtime override, else the knob."""
    if _FORCED is not None:
        return _FORCED
    return kernel_threads_from_env()


def set_kernel_threads(threads: Optional[int]) -> Optional[int]:
    """Force the fan-out width at runtime (None = back to the env knob).

    Returns the previous override so tests can restore it.
    """
    global _FORCED
    previous = _FORCED
    if threads is not None:
        threads = int(threads)
        if threads < 1:
            raise InvalidValue(
                f"kernel threads must be >= 1; got {threads}")
    _FORCED = threads
    return previous


def effective_threads(nshards: int,
                      threads: Optional[int] = None) -> int:
    """Threads a fan-out over ``nshards`` will actually use (>= 1).

    Never more threads than shards: a single-shard matrix (every default
    study graph) stays on the calling thread with no pool touch at all.
    """
    if threads is None:
        threads = kernel_threads()
    return max(1, min(int(threads), int(nshards)))


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------

_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WORKERS = 0


def _executor(workers: int) -> ThreadPoolExecutor:
    """The process-wide pool, grown (never shrunk) to ``workers``."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < workers:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="repro-kernel")
            _POOL_WORKERS = workers
        return _POOL


def map_shards(fn: Callable, items: Sequence,
               threads: Optional[int] = None) -> List:
    """``[fn(item) for item in items]``, fanned out over the kernel pool.

    Results come back **in item (shard) order** — the merge-determinism
    contract — regardless of which thread finished first.  With one
    effective thread (the default) this is literally the sequential list
    comprehension: no pool, no futures, no overhead.

    If any task raises, the first error *in shard order* is re-raised
    after every submitted task has settled, so no worker thread is left
    holding a shard mid-flight (cooperative cancellation makes siblings
    exit at their own next check).
    """
    items = list(items)
    n = effective_threads(len(items), threads)
    if n <= 1:
        return [fn(item) for item in items]
    pool = _executor(n)
    futures = [pool.submit(fn, item) for item in items]
    results = []
    first_error = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # re-raised below, in shard order
            if first_error is None:
                first_error = exc
            results.append(None)
    if first_error is not None:
        raise first_error
    return results


# ----------------------------------------------------------------------
# Fan-out observability (OpEvent shards/threads stamping)
# ----------------------------------------------------------------------

_FANOUT = threading.local()


def record_fanout(shards: int, threads: int) -> None:
    """Note the geometry of the fan-out a blocked driver just ran.

    Called on the *driver's* thread (the one the emitter runs on), so a
    thread-local slot cannot be clobbered by a concurrent cell in another
    worker thread.
    """
    _FANOUT.value = (int(shards), int(threads))


def take_fanout() -> Optional[Tuple[int, int]]:
    """The last recorded ``(shards, threads)``, cleared on read."""
    value = getattr(_FANOUT, "value", None)
    _FANOUT.value = None
    return value


def clear_fanout() -> None:
    """Drop any stale record (emitters call this before their kernel)."""
    _FANOUT.value = None


def fanout_fields() -> dict:
    """OpEvent kwargs for the last fan-out (empty when none recorded).

    The emitters splat this into their event construction; a monolithic
    kernel records nothing, so the fields keep their 0 defaults and the
    event bytes are unchanged from every pre-parallel trace.
    """
    record = take_fanout()
    if record is None:
        return {}
    return {"shards": record[0], "threads": record[1]}
