"""Resource-governor primitives: RSS sampling, OOM forensics, footprint
estimation, and the load-shedding decision.

This module is the *policy* half of end-to-end resource governance; the
mechanisms live where the resources do:

* Workers sample their own RSS (:func:`read_rss_bytes`) into every
  heartbeat, giving the supervisor a per-worker memory history.
* The supervisor enforces ``REPRO_WORKER_MEM_BUDGET`` against those
  samples and, when a worker dies without a verdict (SIGKILL, torn
  pipe), asks :func:`looks_like_oom` whether the heartbeat history reads
  like a kernel OOM kill — rising RSS that approached the budget — so
  the loss is retried once in sharded mode and then quarantined as
  ``OOM`` rather than burning the job's attempt budget toward a
  ``DeadLetter``.
* Before dispatching, the queue supervisor asks
  :func:`estimate_footprint` (artifact-manifest nnz/nrows — *metadata
  only*, no payload faulted in) whether the cell can fit a worker's
  budget monolithically, sharded, or not at all.
* The HTTP front-end asks :func:`shed_decision` whether to refuse new
  work with 503 + Retry-After before the queue drowns
  (the ``REPRO_QUEUE_HIGH_WATER`` depth watermark).

Everything here is either a pure function of its inputs or reads a
``/proc`` snapshot, so each policy is unit-testable without spawning a
single worker.
"""

from __future__ import annotations

import os
import resource
from typing import Dict, Optional, Sequence, Tuple

#: Bytes of working memory charged per stored edge beyond the mmapped
#: payload itself: indices + values resident, plus the transient
#: structures (frontiers, accumulators, join buffers) the kernels build.
#: Deliberately conservative — the estimator's job is to keep a cell
#: that *cannot* fit from killing a worker, not to pack tightly.
BYTES_PER_EDGE = 16

#: Bytes charged per row (indptr, rank/dist/label vectors, plan arrays).
BYTES_PER_ROW = 8

#: Fraction of the budget the last heartbeat RSS must have reached for a
#: silent worker death to be ruled an OOM kill.
OOM_RSS_FRACTION = 0.8

#: Bounds for the Retry-After hint on a shed response, seconds.
RETRY_AFTER_MIN = 1
RETRY_AFTER_MAX = 60


def read_rss_bytes(pid: Optional[int] = None) -> int:
    """Current resident set size in bytes (self, or another pid).

    Prefers ``/proc/<pid>/statm`` (Linux); falls back to
    :func:`resource.getrusage` peak RSS for the calling process when
    ``/proc`` is unavailable.  Returns 0 if neither source works — the
    governor treats 0 as "no sample", never as evidence.
    """
    try:
        with open(f"/proc/{pid if pid is not None else 'self'}/statm",
                  "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    if pid is not None:
        return 0
    try:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (OSError, ValueError):
        return 0


def looks_like_oom(rss_history: Sequence[int], budget_bytes: int) -> bool:
    """Whether a silent worker death reads like a kernel OOM kill.

    The kernel's OOM killer leaves no exit message — just a SIGKILLed
    process and a torn pipe.  The forensic signature the governor
    accepts: a heartbeat RSS history that was *rising* and whose last
    sample had reached :data:`OOM_RSS_FRACTION` of the worker budget.
    With no budget configured (0) there is no yardstick, so nothing is
    classified as OOM and every loss keeps the existing crash semantics.
    """
    if budget_bytes <= 0:
        return False
    samples = [s for s in rss_history if s > 0]
    if not samples:
        return False
    if samples[-1] < OOM_RSS_FRACTION * budget_bytes:
        return False
    return len(samples) < 2 or samples[-1] >= samples[0]


def estimate_footprint(manifest: dict) -> Tuple[int, int]:
    """(monolithic_bytes, max_shard_bytes) working-set estimate.

    Pure arithmetic over an artifact manifest's metadata — ``nnz`` and
    ``nrows`` totals plus the per-shard rows/nnz the store records — so
    the admission decision costs a JSON read, not a graph load.  The
    per-shard figure still charges the full row vectors (rank/dist
    arrays span all rows regardless of which shard streams).
    """
    nrows = int(manifest["nrows"])
    total = int(manifest["nnz"]) * BYTES_PER_EDGE + nrows * BYTES_PER_ROW
    max_shard = 0
    for shard in manifest.get("shards", ()):
        shard_bytes = int(shard["nnz"]) * BYTES_PER_EDGE \
            + nrows * BYTES_PER_ROW
        max_shard = max(max_shard, shard_bytes)
    return total, max_shard if max_shard else total


def fit_verdict(manifest: Optional[dict], budget_bytes: int,
                headroom: int = 0) -> str:
    """How a cell fits a worker budget: ``"fits"``/``"sharded"``/``"no"``.

    ``headroom`` is memory already committed on the worker (its current
    RSS floor).  With the governor off (no budget) or no manifest to
    consult, the verdict is ``"fits"`` — admission control never blocks
    on missing metadata, it only uses metadata it has.
    """
    if budget_bytes <= 0 or manifest is None:
        return "fits"
    total, max_shard = estimate_footprint(manifest)
    available = budget_bytes - headroom
    if total <= available:
        return "fits"
    if max_shard <= available:
        return "sharded"
    return "no"


def shed_decision(counts: Dict[str, int],
                  high_water: int) -> Optional[dict]:
    """Whether the API should refuse new work right now.

    Returns None to admit, or a JSON-able dict naming the tripped depth
    watermark (open jobs ≥ ``high_water``; 0 = never shed) plus a bounded
    Retry-After hint.
    """
    depth = counts.get("queued", 0) + counts.get("leased", 0)
    if not high_water or depth < high_water:
        return None
    # Hint scales with overshoot: a queue twice over its watermark asks
    # callers to stay away longer.
    retry = int(min(RETRY_AFTER_MAX,
                    max(RETRY_AFTER_MIN, 2 * depth / high_water)))
    return {"reason": "queue depth", "depth": depth,
            "high_water": high_water, "retry_after": retry}
