"""The supervised worker pool and the study grid's task list.

:class:`WorkerPool` is the crash-isolated pool: it owns the spawn-started
workers (:mod:`repro.service.worker`), multiplexes their pipes, and
enforces the liveness rules —

* a **dead** worker (SIGKILL, segfault, injected
  :class:`~repro.faults.FatalFault`) surfaces as pipe EOF or a torn
  message — the worker is reaped, a replacement spawns, and the in-flight
  task is handed back to the work source;
* a **hung** worker (blown per-cell deadline, or heartbeat silence) is
  SIGKILLed first and then treated exactly like a dead one

— while *what* the work is stays behind a handful of hooks
(``_next_assignment``/``_task_done``/``_task_lost``/...).  The one work
source is the durable job queue:
:class:`~repro.service.queue_supervisor.QueueSupervisor` implements the
hooks, and :func:`~repro.service.queue_supervisor.run_grid` runs a study
grid by submitting its :class:`CellTask` list (:func:`grid_tasks`) to a
queue and draining it.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import errors
from repro.service import governor, heartbeat
from repro.service.chaos import ChaosPlan
from repro.service.config import (CANCEL_GRACE, DRAIN_GRACE,
                                  HEARTBEAT_TIMEOUT, ServiceConfig)
from repro.service.worker import worker_main

#: Reap reasons that mean "the worker vanished without a verdict" — the
#: deaths the memory governor runs OOM forensics on.
_SILENT_DEATHS = ("worker died (pipe closed)", "worker died (torn message)",
                  "worker died (process exited)")


@dataclass(frozen=True)
class CellTask:
    """One schedulable unit: a (system, app, graph) cell and its options."""

    #: Position in the canonical task list (the submission order).
    index: int
    system: str
    app: str
    graph: str
    #: Record the Figure 2 thread sweep alongside the 56-thread result.
    sweep: bool = False

    @property
    def key(self) -> Tuple[str, str, str]:
        """The experiment-memo key this task computes."""
        return (self.system, self.app, self.graph)


def grid_tasks(graphs: Sequence[str], apps: Sequence[str],
               systems: Optional[Sequence[str]] = None,
               sweep_apps: Sequence[str] = (),
               sweep_graphs: Sequence[str] = ()) -> List[CellTask]:
    """The canonical task list for a grid: app-major, then system, graph.

    The main grid iterates exactly the order the sequential Table II loop
    first touches cells in, and jobs are submitted (so dispatched) in
    that order.  The ``sweep_apps`` ×
    ``sweep_graphs`` corner (Figure 2's panel) is marked ``sweep=True``
    for the GB/LS systems so thread sweeps land in the same run; sweep
    cells outside the main grid (Figure 2 renders its default apps even
    under an ``--apps`` subset, like the sequential path) are appended
    after it, preserving one task per (system, app, graph) key.
    """
    from repro.core.systems import SYSTEMS

    systems = tuple(systems) if systems is not None else tuple(SYSTEMS)
    sweep_flags: Dict[Tuple[str, str, str], bool] = {}
    order: List[Tuple[str, str, str]] = []

    def _add(system, app, graph, sweep):
        key = (system, app, graph)
        if key not in sweep_flags:
            order.append(key)
        sweep_flags[key] = sweep_flags.get(key, False) or sweep

    for app in apps:
        for system in systems:
            for graph in graphs:
                _add(system, app, graph, False)
    for app in sweep_apps:
        for system in ("GB", "LS"):
            for graph in sweep_graphs:
                _add(system, app, graph, True)
    return [CellTask(index, system, app, graph,
                     sweep=sweep_flags[(system, app, graph)])
            for index, (system, app, graph) in enumerate(order)]


class _WorkerHandle:
    """Supervisor-side record of one live worker process."""

    __slots__ = ("worker_id", "process", "conn", "health", "ready",
                 "warmup")

    def __init__(self, worker_id, process, conn, warmup=()):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.health = heartbeat.WorkerHealth(worker_id)
        self.ready = False
        #: Graphs to prebuild (one PREBUILD task each) before this worker
        #: accepts grid cells, so its first cell per graph never spends
        #: its deadline on dataset generation.
        self.warmup = deque(warmup)


class WorkerPool:
    """Generic supervised pool of spawn-started cell workers.

    Owns spawning, pipe multiplexing, heartbeat/deadline health checks,
    reaping, and respawning; the subclass defines the work source through
    the hooks below.  The pool itself never raises for worker-level
    failures — that is the contract the work source inherits.
    """

    def __init__(self, workers: int,
                 config: Optional[ServiceConfig] = None):
        self.config = config if config is not None else \
            ServiceConfig.from_env()
        self.pool_size = max(1, int(workers))
        # Parsed in the supervisor purely to fail fast on malformed specs;
        # the plan itself strikes inside the workers (who re-read the env).
        ChaosPlan.from_env()
        self.stats: Dict[str, int] = {
            "spawned": 0, "respawns": 0, "crashes": 0, "prewarmed": 0,
            "prewarm_generated": 0, "mem_kills": 0,
        }
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        #: Prebuild task id per graph (negative; real task ids are >= 0).
        self._warm_ids: Dict[str, int] = {}
        # Consecutive workers dead before their READY: a startup problem
        # (import error, bad environment), not a poisonous cell — abort
        # instead of respawning forever.
        self._early_deaths = 0
        #: Graceful-drain state: once draining, no new work dispatches,
        #: the loop exits when the last in-flight task settles, and past
        #: the drain deadline :meth:`_drain_timeout` fails the rest back.
        self._draining = False
        self._drain_deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # Hooks: the work source
    # ------------------------------------------------------------------
    def _finished(self) -> bool:
        """True when the event loop should stop."""
        raise NotImplementedError

    def _work_remains(self) -> bool:
        """True while a reaped worker is worth replacing."""
        raise NotImplementedError

    def _has_dispatchable(self) -> bool:
        """Cheap check: could *any* idle worker get work right now?"""
        raise NotImplementedError

    def _next_assignment(self, worker_id: int) -> Optional[dict]:
        """Claim the next task for ``worker_id``; returns the RUN payload
        (``id``/``system``/``app``/``graph``/``sweep``/``attempt``) or
        None when nothing is dispatchable after all.  The task must be
        registered as in-flight before returning — a failed send reaps
        the worker and hands the task back via :meth:`_task_lost`."""
        raise NotImplementedError

    def _task_done(self, task_id: int, row: dict) -> None:
        """A worker returned a finished cell row for ``task_id``."""
        raise NotImplementedError

    def _task_lost(self, task_id: int, reason: str,
                   oom: bool = False) -> None:
        """The worker holding ``task_id`` died or hung; reclaim it.

        ``oom=True`` marks a loss the memory governor attributed to an
        out-of-memory kill (budget breach, or silent death with a rising
        RSS history) — the work source retries those once in sharded mode
        before quarantining as ``OOM``."""
        raise NotImplementedError

    def _drain_timeout(self) -> None:
        """The drain grace expired with tasks still in flight; the work
        source fails them back to its queue before the loop exits."""

    def _graphs_to_warm(self) -> Iterable[str]:
        """Graphs a freshly spawned worker should prebuild."""
        return ()

    def _tick(self) -> None:
        """Per-loop maintenance (lease renewal, progress events)."""

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Stop taking new work; let in-flight tasks finish.

        Safe to call from a signal handler (it only sets flags): the
        event loop notices on its next pass, stops dispatching, and exits
        once the last in-flight task settles — or, after
        :data:`~repro.service.config.DRAIN_GRACE` seconds, fails the
        stragglers back via :meth:`_drain_timeout`.  Idempotent; the first
        call starts the grace clock.
        """
        if not self._draining:
            self._draining = True
            self._drain_deadline = time.monotonic() + DRAIN_GRACE

    @property
    def draining(self) -> bool:
        """Whether a graceful drain is in progress."""
        return self._draining

    def _busy_workers(self) -> int:
        """Workers with an in-flight (non-warmup) task."""
        return sum(1 for h in self._workers.values()
                   if h.health.task_id is not None
                   and h.health.task_id >= 0)

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _run_pool(self, initial_workers: int) -> None:
        """Spawn the pool and run the event loop to completion."""
        try:
            for _ in range(max(1, initial_workers)):
                self._spawn()
            self._event_loop()
        finally:
            self._shutdown()

    def _warm_id(self, graph: str) -> int:
        if graph not in self._warm_ids:
            self._warm_ids[graph] = -(len(self._warm_ids) + 1)
        return self._warm_ids[graph]

    def _spawn(self):
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main, args=(child_conn, worker_id),
            name=f"repro-worker-{worker_id}", daemon=True)
        process.start()
        child_conn.close()  # parent keeps one end only, so EOF is real
        self._workers[worker_id] = _WorkerHandle(
            worker_id, process, parent_conn, warmup=self._graphs_to_warm())
        self.stats["spawned"] += 1

    def _shutdown(self):
        for handle in list(self._workers.values()):
            try:
                handle.conn.send((heartbeat.STOP,))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for handle in list(self._workers.values()):
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5)
            handle.conn.close()
        self._workers.clear()

    def _reap(self, handle: _WorkerHandle, reason: str,
              oom: bool = False):
        """Kill + account a dead/hung worker; hand its task back.

        ``oom=True`` marks a memory-governor kill outright; a *silent*
        death (SIGKILL leaves only a torn pipe) is additionally run
        through :func:`repro.service.governor.looks_like_oom` — the
        kernel's OOM killer looks exactly like any other SIGKILL except
        for the rising RSS history the heartbeats recorded.
        """
        if not oom and reason in _SILENT_DEATHS:
            oom = governor.looks_like_oom(handle.health.rss_history,
                                          self.config.mem_budget_bytes)
            if oom:
                reason = f"{reason}; RSS history reads as OOM kill"
        handle.process.kill()
        handle.process.join(timeout=5)
        try:
            handle.conn.close()
        except OSError:
            pass
        del self._workers[handle.worker_id]
        self.stats["crashes"] += 1
        if oom:
            self.stats["mem_kills"] += 1
        if handle.ready:
            self._early_deaths = 0
        else:
            self._early_deaths += 1
            if self._early_deaths >= 3:
                raise errors.ReproError(
                    f"{self._early_deaths} workers in a row died before "
                    f"initializing (last: {reason}); the worker "
                    "environment is broken — aborting instead of "
                    "respawning forever")

        task_id = handle.health.task_id
        if task_id is not None:
            self._task_lost(task_id, reason, oom=oom)

        if not self._finished() and self._work_remains():
            self._spawn()
            self.stats["respawns"] += 1

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _event_loop(self):
        tick = self.config.heartbeat_interval
        while not self._finished():
            if self._draining and self._busy_workers() == 0:
                break  # drained: nothing in flight, nothing new starts
            conns = {h.conn: h for h in self._workers.values()}
            for conn in _connection_wait(list(conns), timeout=tick):
                handle = conns[conn]
                if handle.worker_id not in self._workers:
                    continue  # reaped earlier this very iteration
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._reap(handle, "worker died (pipe closed)")
                    continue
                except Exception:
                    # A SIGKILL mid-write leaves a torn, unpicklable
                    # message; treat it exactly like a death.
                    self._reap(handle, "worker died (torn message)")
                    continue
                self._handle(handle, message)
            self._tick()
            self._check_health()
            if self._draining:
                if self._drain_deadline is not None \
                        and time.monotonic() > self._drain_deadline:
                    self._drain_timeout()
                    break
                continue  # no new dispatches while draining
            self._dispatch_idle()

    def _handle(self, handle: _WorkerHandle, message: tuple):
        tag = message[0]
        handle.health.beat()
        if tag == heartbeat.READY:
            handle.ready = True
            self._early_deaths = 0
        elif tag == heartbeat.RESULT:
            _tag, _wid, task_id, row = message
            self._task_done(task_id, row)
            handle.health.finished()
        elif tag == heartbeat.PREBUILT:
            handle.health.finished()
            self.stats["prewarmed"] += 1
            # 4th element: did the worker actually run a generator, or did
            # the artifact store satisfy the warm?
            if message[3]:
                self.stats["prewarm_generated"] += 1
        elif tag == heartbeat.HB:
            handle.health.sample_rss(message[2])
        # START carries no state beyond proof of life.

    def _dispatch_idle(self):
        for handle in list(self._workers.values()):
            if not self._has_dispatchable():
                return
            if handle.worker_id not in self._workers:
                continue  # reaped by a failed send earlier this pass
            if handle.ready and handle.health.task_id is None:
                if handle.warmup:
                    self._dispatch_prebuild(handle)
                else:
                    payload = self._next_assignment(handle.worker_id)
                    if payload is None:
                        return
                    self._send_run(handle, payload)

    def _dispatch_prebuild(self, handle: _WorkerHandle):
        graph = handle.warmup.popleft()
        task_id = self._warm_id(graph)
        handle.health.started(task_id)
        try:
            handle.conn.send((heartbeat.PREBUILD,
                              {"id": task_id, "graph": graph}))
        except (OSError, ValueError, BrokenPipeError):
            self._reap(handle, "worker died (send failed)")

    def _send_run(self, handle: _WorkerHandle, payload: dict):
        # A job-propagated deadline becomes the hard-kill backstop:
        # cooperative cancellation gets the budget plus the grace window
        # to exit cleanly before the watchdog falls back to SIGKILL.
        deadline = None
        if payload.get("deadline_seconds") is not None:
            deadline = payload["deadline_seconds"] + CANCEL_GRACE
        handle.health.started(payload["id"], deadline=deadline)
        try:
            handle.conn.send((heartbeat.RUN, payload))
        except (OSError, ValueError, BrokenPipeError):
            self._reap(handle, "worker died (send failed)")

    def _check_health(self):
        budget = self.config.mem_budget_bytes
        for handle in list(self._workers.values()):
            if handle.worker_id not in self._workers:
                continue
            if budget and handle.health.rss > budget:
                self._reap(handle, "memory budget exceeded "
                           f"({handle.health.rss} > {budget} bytes)",
                           oom=True)
            elif handle.health.over_deadline(self.config.cell_deadline):
                self._reap(handle, "cell deadline exceeded")
            elif handle.health.stale(HEARTBEAT_TIMEOUT):
                self._reap(handle, "heartbeat lost")
            elif not handle.process.is_alive():
                self._reap(handle, "worker died (process exited)")
