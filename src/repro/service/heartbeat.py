"""Worker liveness protocol: message tags, the heartbeat thread, health.

The drain supervisor
(:class:`repro.service.queue_supervisor.QueueSupervisor`) and its
workers talk over one duplex pipe per worker.  All messages are small
picklable tuples whose first element is a tag:

Worker → supervisor::

    (READY,    worker_id)                       # spawn finished, imports done
    (HB,       worker_id, rss_bytes)            # periodic liveness beat + RSS
    (START,    worker_id, task_id)              # task accepted, about to run
    (RESULT,   worker_id, task_id, row)         # cell finished; JSON-clean row
    (PREBUILT, worker_id, task_id, generated)   # dataset prewarm finished;
                                                # generated = a generator ran
                                                # (False: store satisfied it)

Supervisor → worker::

    (RUN,      task_dict)                       # run one cell
    (PREBUILD, task_dict)                       # warm one graph's datasets
    (STOP,)                                     # drain and exit

Prebuild tasks carry negative ids (job ids are >= 1), so a worker
dying mid-prewarm requeues nothing — the replacement worker restarts its
own warmup queue.

A SIGKILL'd worker never says goodbye: the supervisor learns of the death
from the pipe (EOF / a torn, unpicklable write) or from the process exit
code, both surfaced by :class:`WorkerHealth`, the one record the
supervisor keeps per worker.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Optional

from repro.service import governor

#: Heartbeat RSS samples the supervisor keeps per worker — enough slope
#: for :func:`repro.service.governor.looks_like_oom` forensics, O(1) RAM.
RSS_HISTORY = 8

#: Message tags (worker → supervisor).
READY = "ready"
HB = "hb"
START = "start"
RESULT = "result"
PREBUILT = "prebuilt"

#: Message tags (supervisor → worker).
RUN = "run"
PREBUILD = "prebuild"
STOP = "stop"


class Heartbeat:
    """Daemon thread beating ``(HB, worker_id)`` down a pipe connection.

    Runs in the *worker* process alongside the cell computation; the GIL
    guarantees it keeps getting scheduled even while numpy kernels run, so
    a silent pipe means the worker is truly dead or wedged in
    uninterruptible state — exactly what the supervisor wants to detect.
    """

    def __init__(self, conn, worker_id: int, interval: float):
        self._conn = conn
        self._worker_id = worker_id
        self._interval = interval
        self._stop = threading.Event()
        #: Serializes pipe writes between this thread and the worker loop —
        #: concurrent ``Connection.send`` calls may interleave bytes.
        self.lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._beat, name=f"heartbeat-{worker_id}", daemon=True)

    def start(self) -> None:
        """Start beating."""
        self._thread.start()

    def stop(self) -> None:
        """Stop beating (idempotent; the daemon thread dies with the
        process anyway)."""
        self._stop.set()

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                rss = governor.read_rss_bytes()
                with self.lock:
                    self._conn.send((HB, self._worker_id, rss))
            except (OSError, ValueError, BrokenPipeError):
                return  # supervisor went away; nothing left to tell


@dataclass
class WorkerHealth:
    """Supervisor-side record of one worker: its process, its pipe, and
    its liveness.

    ``ready`` turns True at the worker's READY; ``warmup`` lists the
    graphs to prebuild (one PREBUILD task each) before it accepts cells,
    so its first cell per graph never spends its deadline on dataset
    generation.  ``task_id``/``task_started`` track the in-flight task
    (None when idle); ``last_beat`` is the monotonic time of the last
    message of any kind (every message proves liveness, not just HB).
    ``rss``/``rss_history`` hold the heartbeat-sampled resident set
    (bytes) the memory governor budgets against; ``task_deadline`` is the
    per-task hard-kill backstop in seconds (None falls back to the static
    ``cell_deadline``).
    """

    worker_id: int
    process: Any = None
    conn: Any = None
    warmup: Deque[str] = field(default_factory=deque)
    ready: bool = False
    last_beat: float = field(default_factory=time.monotonic)
    task_id: Optional[int] = None
    task_started: Optional[float] = None
    rss: int = 0
    rss_history: Deque[int] = field(
        default_factory=lambda: deque(maxlen=RSS_HISTORY))
    task_deadline: Optional[float] = None

    def beat(self) -> None:
        """Record proof of life (any received message)."""
        self.last_beat = time.monotonic()

    def sample_rss(self, rss_bytes: int) -> None:
        """Record one heartbeat-borne RSS sample."""
        self.rss = int(rss_bytes)
        self.rss_history.append(self.rss)

    def started(self, task_id: int,
                deadline: Optional[float] = None) -> None:
        """Record that the worker accepted a cell (with its hard-kill
        deadline in seconds, when the job propagated one)."""
        self.task_id = task_id
        self.task_started = time.monotonic()
        self.task_deadline = deadline
        self.beat()

    def finished(self) -> None:
        """Record that the in-flight cell completed."""
        self.task_id = None
        self.task_started = None
        self.task_deadline = None
        self.beat()

    def stale(self, timeout: float,
              now: Optional[float] = None) -> bool:
        """True when the worker has been silent longer than ``timeout``."""
        now = time.monotonic() if now is None else now
        return now - self.last_beat > timeout

    def over_deadline(self, deadline: float,
                      now: Optional[float] = None) -> bool:
        """True when the in-flight cell has run longer than its deadline.

        ``deadline`` is the static default; a per-task deadline recorded
        at :meth:`started` (job-budget remainder + cancel grace) takes
        precedence.
        """
        if self.task_started is None:
            return False
        if self.task_deadline is not None:
            deadline = self.task_deadline
        now = time.monotonic() if now is None else now
        return now - self.task_started > deadline
