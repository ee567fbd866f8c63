"""The out-of-process cell worker: run cells, heartbeat, die honestly.

Each worker is a spawn-started process owning one duplex pipe to the
supervisor.  Its loop is deliberately thin: install the environment's
fault plan, announce readiness, then run one cell per ``RUN`` message via
:func:`run_task` and send the JSON-clean row back.  :func:`run_task` is
also what a ``workers=1`` grid runs in-process
(:meth:`repro.service.queue_supervisor.QueueSupervisor.drain` with
``inline=True``), so both paths commit the same bytes.

Failure behavior is the whole point:

* A :class:`repro.faults.FatalFault` (the injected process kill) is *not*
  absorbed — the worker exits with a distinct code, exactly as if the OS
  had killed it, and the supervisor requeues the in-flight cell.
* A ``cell:kill``/``cell:hang`` fault spec (:func:`repro.faults.strike`)
  may SIGKILL or hang the worker as a scheduled cell starts — a real
  kill, not a simulation of one.
* Anything else unexpected escaping :func:`run_cell` (which already folds
  cell-local errors into ``ERR`` rows) also dies loudly rather than
  guessing: supervision, not in-worker heroics, owns recovery.

Result rows round-trip through JSON before hitting the pipe, so the bytes
the supervisor commits are exactly what the snapshot writer would produce
in-process — the byte-identity guarantee does not depend on what pickle
does to numpy scalars.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

from repro import faults
from repro.core import experiments
from repro.engine import cancel
from repro.service import heartbeat
from repro.service.config import ServiceConfig

#: Worker exit code for a FatalFault (distinct from SIGKILL's -9).
FATAL_EXIT = 41


def json_clean_row(result: "experiments.CellResult") -> dict:
    """The persisted form of a cell, normalized through one JSON round trip.

    ``cell_to_row`` + JSON encode/decode converts numpy scalars and int
    dict keys the same way :func:`repro.core.experiments.save_results`
    does, so a row that crossed a process boundary serializes to the same
    bytes as one that never left.
    """
    return json.loads(json.dumps(experiments.cell_to_row(result),
                                 default=experiments._jsonify))


def run_task(task: dict) -> dict:
    """Run one ``RUN`` payload's cell under its governor scope; returns
    the JSON-clean row.  A :class:`repro.faults.FatalFault` escapes."""
    with _task_scope(task):
        result = experiments.run_cell(
            task["system"], task["app"], task["graph"],
            sweep_threads=task["sweep"], use_cache=False)
    return json_clean_row(result)


def worker_main(conn, worker_id: int) -> None:
    """Worker process entry point (the spawn target).

    ``conn`` is the worker's end of the duplex pipe; everything else —
    fault plan, kernel threads — comes from the inherited environment, so
    a worker behaves exactly like a sequential run of the same cell under
    the same knobs.
    """
    faults.install_from_env()
    config = ServiceConfig.from_env()
    beat = heartbeat.Heartbeat(conn, worker_id, config.heartbeat_interval)
    beat.start()
    with beat.lock:
        conn.send((heartbeat.READY, worker_id))
    while True:
        message = conn.recv()
        if message[0] == heartbeat.STOP:
            return
        task = message[1]
        with beat.lock:
            conn.send((heartbeat.START, worker_id, task["id"]))
        if message[0] == heartbeat.PREBUILD:
            # Warm this process's dataset cache so the first *cell* on
            # each graph doesn't spend its deadline on generation (uk07's
            # crawl takes the longest).  A failed warm is non-fatal: the
            # cell will just build lazily, exactly as before.
            generated = True
            try:
                from repro.graphs import datasets

                before = datasets.generation_count()
                dataset = datasets.get_dataset(task["graph"])
                dataset.build()
                dataset.build_symmetric()
                # With the artifact store warm this stays at zero: every
                # worker mmaps the same published shard files instead of
                # regenerating the graph per process.
                generated = datasets.generation_count() > before
            except faults.FatalFault:
                os._exit(FATAL_EXIT)
            except Exception:
                pass
            with beat.lock:
                conn.send((heartbeat.PREBUILT, worker_id, task["id"],
                           generated))
            continue
        faults.strike(task["system"], task["app"], task["graph"],
                      task["attempt"])
        try:
            row = run_task(task)
        except faults.FatalFault:
            # The simulated process kill: die like one.  The supervisor
            # sees the exit and requeues the cell.
            os._exit(FATAL_EXIT)
        with beat.lock:
            conn.send((heartbeat.RESULT, worker_id, task["id"], row))


@contextlib.contextmanager
def _task_scope(task: dict):
    """Apply one task's governor payload around its ``run_cell``.

    Three optional keys, each restored on exit so tasks stay isolated:

    * ``deadline_seconds`` — installs a :class:`CancelToken` with a
      monotonic deadline; the cell exits cooperatively as ``CANCELLED``
      at the next OpEvent boundary past its budget.
    * ``faults`` — a per-job fault-spec string (``REPRO_FAULTS`` syntax)
      scoped to this one cell: how the drills make *one job* slow or
      memory-hungry deterministically.  It *replaces* any process-wide
      plan for the cell — that plan neither fires nor advances its
      counters until the cell ends and it is restored.
    * ``shard_rows`` — the post-OOM sharded retry: points
      ``REPRO_SHARD_ROWS`` at the requested geometry and drops this
      process's dataset cache so the cell rebuilds against O(shard)
      mmapped loads instead of the monolithic CSR.
    """
    from repro.graphs import datasets

    stack = contextlib.ExitStack()
    with stack:
        if task.get("deadline_seconds") is not None:
            token = cancel.CancelToken(
                deadline=time.monotonic() + task["deadline_seconds"])
            stack.enter_context(cancel.scope(token))
        if task.get("faults"):
            job_plan = faults.parse_plan(task["faults"])
            if job_plan is not None:
                stack.enter_context(faults.injected(job_plan))
        if task.get("shard_rows") is not None:
            previous = os.environ.get("REPRO_SHARD_ROWS")
            os.environ["REPRO_SHARD_ROWS"] = str(task["shard_rows"])
            datasets.clear_cache()

            def _restore(prev=previous):
                if prev is None:
                    os.environ.pop("REPRO_SHARD_ROWS", None)
                else:
                    os.environ["REPRO_SHARD_ROWS"] = prev
                datasets.clear_cache()

            stack.callback(_restore)
        yield
