"""Deterministic fault injection for resilience testing (``repro.faults``).

The experiment grid legitimately contains failing cells (the paper's ``TO``
and ``OOM`` annotations), so the execution layer must survive *any* cell
failing without losing the rest of the run.  This package makes that
property testable: it plants trip points at the two boundaries every cell
crosses — kernel loop charging (:meth:`repro.perf.machine.Machine.charge_loop`)
and allocation (:meth:`repro.perf.allocator.TrackingAllocator.allocate`) —
plus one ``cell`` trip point a pool worker crosses as each cell starts
(:func:`strike`), and lets a seeded :class:`FaultPlan` raise transient or
permanent faults on the Nth crossing, or kill or hang the worker.

Typical use::

    from repro import faults

    plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault",
                                              nth=7, transient=True)])
    with faults.injected(plan):
        run_cell("GB", "bfs", "rmat22", use_cache=False)

Environment knobs (read by the CLIs — ``repro-study``, ``repro-serve
drain`` — and every pool worker via :func:`install_from_env`):

* ``REPRO_FAULTS`` — semicolon-separated specs in one grammar,
  ``site:kind[@SYSTEM:app:graph][:transient][:nth=N][:times=N][:mb=N]``
  ``[:ms=N][:attempt=N][:rate=P]``, e.g.
  ``kernel:fault:transient:nth=40;cell:kill@GB:bfs:rmat22:attempt=1``.
  Sites: ``kernel``, ``alloc`` or ``*`` (either), with kinds ``fault``
  (generic), ``oom``, ``timeout``, ``fatal`` (escapes the per-cell
  handler — simulates a killed run), ``memhog`` and ``slow``; and
  ``cell``, with kinds ``kill`` and ``hang``.  A ``cell`` spec strikes
  the worker that starts the named cell (every cell without a selector)
  on attempt ``N`` (every attempt without ``attempt=``); an in-process
  drain never strikes.  ``rate=P`` fires a matching spec with
  probability ``P`` from one stateless hash draw, keyed on the cell at
  the ``cell`` site and on the trip count elsewhere.
* ``REPRO_FAULTS_SEED`` — the seed of every ``rate=`` draw.
* ``REPRO_CELL_WALL_BUDGET`` — real seconds per cell attempt
  (:func:`wall_budget_from_env`): ``run_cell`` installs a
  :class:`~repro.engine.cancel.CancelToken` with that deadline, so a
  blown budget lands the cell ``CANCELLED`` with its partial trace.

All three are validated by :func:`install_from_env`, so a malformed value
fails the run before its first cell.  Transient faults are retried by
``run_cell`` under a fixed :class:`RetryPolicy` (3 attempts in total).
"""

from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    FatalFault,
    InjectedFault,
    TransientFault,
    active_plan,
    clear,
    injected,
    install,
    install_from_env,
    parse_plan,
    plan_from_env,
    strike,
    trip,
    wall_budget_from_env,
)
from repro.faults.policy import NO_RETRY, RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FatalFault",
    "InjectedFault",
    "NO_RETRY",
    "RetryPolicy",
    "TransientFault",
    "active_plan",
    "clear",
    "injected",
    "install",
    "install_from_env",
    "parse_plan",
    "plan_from_env",
    "strike",
    "trip",
    "wall_budget_from_env",
]
