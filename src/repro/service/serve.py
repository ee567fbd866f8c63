"""``repro-serve``: the job-queue front door (submit/status/result/drain/api).

The study CLIs run a *grid*; this CLI runs a *service*.  Jobs go into a
durable SQLite queue (:mod:`repro.service.queue`) and are executed by a
drain supervisor feeding the supervised worker pool — submission,
execution, and inspection are separate processes that can start, die, and
restart independently::

    repro-serve submit --queue q.db GB bfs road-USA-W --tenant alice
    repro-serve drain  --queue q.db --workers 4        # crash-safe
    repro-serve status --queue q.db [--json]           # incl. dead letters
    repro-serve result --queue q.db 1
    repro-serve api    --queue q.db --port 8080        # HTTP JSON API

``drain`` installs a SIGTERM handler that *drains* instead of dying:
leasing stops, in-flight cells finish (or fail back to the queue after
the 30 s :data:`~repro.service.config.DRAIN_GRACE`), and the process exits
0 — ``kill -TERM`` is the graceful-shutdown path, not an outage.
``status --json`` adds the governor's live view (per-worker RSS, breaker
states, supervisor stats) published through the queue's meta table.

Every subcommand validates the ``REPRO_*`` environment first
(:func:`repro.service.config.validate_env_knobs`), so a typo'd knob fails
the command instead of silently running with defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys

from repro import errors, faults
from repro.service.config import (QueueConfig, ServiceConfig,
                                  validate_env_knobs)
from repro.service.queue import DEAD, QUEUED, JobQueue
from repro.sparse.parallel import kernel_threads_from_env


def _add_queue_arg(parser):
    parser.add_argument("--queue", required=True, metavar="PATH",
                        help="the queue database (created on first use)")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Durable job-queue service over the study harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="enqueue one job")
    _add_queue_arg(p)
    p.add_argument("system", help="system code (SS/GB/LS)")
    p.add_argument("app", help="application name")
    p.add_argument("graph", help="graph name")
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=0,
                   help="higher dispatches first (default 0)")
    p.add_argument("--idem-key", default=None,
                   help="resubmitting the same key returns the existing "
                        "job instead of enqueueing a duplicate")
    p.add_argument("--sweep", action="store_true",
                   help="record the Figure 2 thread sweep for this cell")
    p.add_argument("--deadline-ms", type=float, default=None,
                   metavar="MS",
                   help="total time budget for this job; past it the cell "
                        "is cancelled cooperatively (CANCELLED, not ERR)")
    p.add_argument("--fault", default=None, metavar="SPEC",
                   help="per-job fault plan (REPRO_FAULTS syntax, e.g. "
                        "kernel:memhog:mb=256) scoped to this one cell")

    p = sub.add_parser("status", help="queue state counts + stuck jobs")
    _add_queue_arg(p)
    p.add_argument("--tenant", default=None, help="filter to one tenant")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable status: counts, tenants, dead "
                        "letters, plus the drain supervisor's published "
                        "worker-RSS/breaker/drain snapshot")

    p = sub.add_parser("result", help="print one job's committed result")
    _add_queue_arg(p)
    p.add_argument("job_id", type=int)

    p = sub.add_parser("drain", help="execute jobs until none are open")
    _add_queue_arg(p)
    p.add_argument("--workers", type=int, default=1, metavar="N")

    p = sub.add_parser("api", help="serve the HTTP JSON API")
    _add_queue_arg(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        validate_env_knobs()
        return _dispatch(args)
    except errors.AdmissionDenied as exc:
        print(f"repro-serve: admission denied: {exc}", file=sys.stderr)
        return 3
    except errors.InvalidValue as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "submit":
        queue = JobQueue(args.queue)
        params = {"sweep": True} if args.sweep else {}
        if args.fault:
            params["faults"] = args.fault
        job = queue.submit(args.system, args.app, args.graph,
                           params=params, tenant=args.tenant,
                           priority=args.priority, idem_key=args.idem_key,
                           deadline_ms=args.deadline_ms)
        print(json.dumps(job.to_json(), sort_keys=True))
        queue.close()
        return 0

    if args.command == "status":
        queue = JobQueue(args.queue)
        if args.as_json:
            status = {
                "counts": queue.counts(),
                "tenants": queue.tenant_counts(),
                "dead": [job.to_json() for job in
                         queue.jobs(tenant=args.tenant, state=DEAD)],
                "workers": queue.get_meta("workers", default=[]),
                "breakers": queue.get_meta("breakers", default={}),
                "supervisor": queue.get_meta("supervisor", default={}),
            }
            print(json.dumps(status, sort_keys=True))
            queue.close()
            return 0
        counts = queue.counts()
        print("queue:", " ".join(
            f"{state}={counts[state]}"
            for state in ("queued", "leased", "done", "err", "dead"))
            + f" (deferred={counts['deferred']})")
        for tenant, states in sorted(queue.tenant_counts().items()):
            line = " ".join(f"{s}={n}" for s, n in sorted(states.items()))
            print(f"  tenant {tenant}: {line}")
        # The acceptance bar: dead-lettered and deferred jobs must be
        # *visible*, never silently dropped.
        dead = queue.jobs(tenant=args.tenant, state=DEAD)
        if dead:
            print("dead letters:")
            for job in dead:
                print(f"  #{job.id} {job.system} {job.app} {job.graph} "
                      f"tenant={job.tenant} attempts={job.attempts} "
                      f"note={job.note!r}")
        now = queue.clock()
        deferred = [job for job in queue.jobs(tenant=args.tenant,
                                              state=QUEUED)
                    if job.not_before > now]
        if deferred:
            print("deferred (backoff/breaker window):")
            for job in deferred:
                print(f"  #{job.id} {job.system} {job.app} {job.graph} "
                      f"tenant={job.tenant} retry_in="
                      f"{job.not_before - now:.1f}s note={job.note!r}")
        queue.close()
        return 0

    if args.command == "result":
        queue = JobQueue(args.queue)
        job = queue.get(args.job_id)
        queue.close()
        if job is None:
            print(f"repro-serve: no such job: {args.job_id}",
                  file=sys.stderr)
            return 2
        if job.result is None:
            print(f"repro-serve: job {job.id} has no result yet "
                  f"(state={job.state})", file=sys.stderr)
            return 1
        print(json.dumps(job.result, sort_keys=True))
        return 0

    if args.command == "drain":
        from repro.service.queue_supervisor import QueueSupervisor

        if args.workers < 1:
            print("repro-serve: --workers wants a positive worker count; "
                  f"got {args.workers}", file=sys.stderr)
            return 2
        faults.install_from_env()
        # Workers inherit REPRO_KERNEL_THREADS; refuse a bad one here,
        # not as an ERR in every sharded cell.
        kernel_threads_from_env()
        queue = JobQueue(args.queue)
        supervisor = QueueSupervisor(queue, workers=args.workers,
                                     config=ServiceConfig.from_env())
        # SIGTERM means "finish what you started, then leave": stop
        # leasing, let in-flight cells land (or fail back after the drain
        # grace), exit 0.  The handler only flips
        # flags — everything async-signal-unsafe happens in the event
        # loop.  Registration fails off the main thread (tests drive
        # _dispatch from threads); those callers drain without the hook.
        with contextlib.suppress(ValueError):
            signal.signal(signal.SIGTERM,
                          lambda signum, frame: supervisor.request_drain())
        counts = supervisor.drain()
        print(supervisor.describe(), file=sys.stderr)
        print(json.dumps(counts, sort_keys=True))
        queue.close()
        return 1 if counts["dead"] else 0

    if args.command == "api":
        from repro.service.api import make_server

        config = QueueConfig.from_env()
        # A malformed queue path / schema fails here, before binding.
        server = make_server(args.queue, host=args.host, port=args.port,
                             config=config)
        host, port = server.server_address[:2]
        print(f"repro-serve: API on http://{host}:{port} over "
              f"{args.queue}", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
