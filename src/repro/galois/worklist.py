"""Worklists: the active-vertex tracking structures of §II-A.

* :class:`SparseWorklist` — an explicit list of active vertices with a
  current/next pair for round-based data-driven algorithms (Algorithm 1);
* :class:`DenseWorklist` — a bit-vector of size |V|;
* :class:`OBIM` — ordered-by-integer-metric soft-priority buckets, the
  Galois scheduler that asynchronous delta-stepping runs on.  Lower
  priorities are drained first; pushes go to any bucket, including the one
  being drained (that is the asynchrony — no round barrier between a push
  and its processing).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from repro.errors import InvalidValue
from repro.sparse.join import dedup_bounded


class SparseWorklist:
    """Current/next active-vertex lists (vectorized push/swap)."""

    def __init__(self, nnodes: int, dedup: bool = True):
        self.nnodes = nnodes
        self.dedup = dedup
        self._current = np.empty(0, dtype=np.int64)
        self._next_chunks = []

    def push(self, items: np.ndarray) -> None:
        """Add items to the *next* worklist."""
        items = np.asarray(items, dtype=np.int64)
        if len(items):
            self._next_chunks.append(items)

    def swap(self) -> np.ndarray:
        """Make next current; returns the new current items."""
        if self._next_chunks:
            merged = np.concatenate(self._next_chunks)
            if self.dedup:
                # Node ids are bounded by |V|: O(n) flag dedup, same
                # sorted-unique output as the np.unique it replaces.
                merged = dedup_bounded(merged, self.nnodes)
            self._current = merged
        else:
            self._current = np.empty(0, dtype=np.int64)
        self._next_chunks = []
        return self._current

    @property
    def current(self) -> np.ndarray:
        return self._current

    def empty(self) -> bool:
        """True when the *next* worklist has nothing pending."""
        return not self._next_chunks

    def __len__(self):
        return len(self._current)


class DenseWorklist:
    """Bit-vector worklist of size |V| (the paper's dense worklist)."""

    def __init__(self, nnodes: int):
        self.nnodes = nnodes
        self._bits = np.zeros(nnodes, dtype=bool)

    def set(self, items: np.ndarray) -> None:
        """Mark items active."""
        self._bits[np.asarray(items, dtype=np.int64)] = True

    def clear(self) -> None:
        """Deactivate everything."""
        self._bits[:] = False

    def take_all(self) -> np.ndarray:
        """Drain: return active ids and clear the bits."""
        items = np.flatnonzero(self._bits)
        self._bits[:] = False
        return items

    @property
    def count(self) -> int:
        return int(self._bits.sum())

    def __len__(self):
        return self.count


class OBIM:
    """Ordered-by-integer-metric priority buckets (soft priorities, §II-B).

    ``push(items, priorities)`` files items by ``priority // shift`` (the
    delta-stepping bucket function when ``shift`` is the delta);
    ``pop_bucket()`` drains the lowest non-empty bucket.  Items may be
    pushed into the bucket currently being drained, which is what lets
    asynchronous delta-stepping settle a bucket without global barriers.
    ``domain`` — the exclusive upper bound on item ids (|V|), when known —
    unlocks the O(n) flag-array dedup for bucket drains.

    Bucket keys also sit in a min-heap, so :meth:`min_bucket` costs
    O(log B) amortized over B live buckets rather than a scan of them all:
    delta-stepping asks for it on every pop, with thousands of buckets
    live on wide-weight graphs.
    """

    def __init__(self, shift: int = 1, domain: Optional[int] = None):
        if shift <= 0:
            raise InvalidValue("OBIM shift must be positive")
        self.shift = shift
        self.domain = domain
        self._buckets: Dict[int, list] = {}
        # Min-heap of bucket keys; an entry whose bucket has been drained
        # is stale and is discarded lazily by min_bucket.
        self._keys: List[int] = []
        self.pushes = 0

    def push(self, items: np.ndarray, priorities: np.ndarray) -> None:
        """File items into buckets by ``priority // shift``."""
        items = np.asarray(items, dtype=np.int64)
        if len(items) == 0:
            return
        priorities = np.asarray(priorities)
        keys = (priorities // self.shift).astype(np.int64)
        self.pushes += len(items)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_items = items[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        for chunk_keys, chunk in zip(
            np.split(sorted_keys, boundaries), np.split(sorted_items, boundaries)
        ):
            key = int(chunk_keys[0])
            chunks = self._buckets.get(key)
            if chunks is None:
                self._buckets[key] = [chunk]
                heapq.heappush(self._keys, key)
            else:
                chunks.append(chunk)

    def min_bucket(self) -> Optional[int]:
        """Lowest non-empty bucket key, or None when drained."""
        keys = self._keys
        while keys and keys[0] not in self._buckets:
            heapq.heappop(keys)
        return keys[0] if keys else None

    def pop_bucket(self, key: Optional[int] = None) -> np.ndarray:
        """Drain one bucket (the lowest by default)."""
        if key is None:
            key = self.min_bucket()
        if key is None:
            return np.empty(0, dtype=np.int64)
        chunks = self._buckets.pop(key, [])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        merged = np.concatenate(chunks)
        if self.domain is not None:
            return dedup_bounded(merged, self.domain)
        return np.unique(merged)

    def empty(self) -> bool:
        """True when every bucket has been drained."""
        return self.min_bucket() is None
