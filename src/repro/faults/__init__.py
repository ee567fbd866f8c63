"""Deterministic fault injection for resilience testing (``repro.faults``).

The experiment grid legitimately contains failing cells (the paper's ``TO``
and ``OOM`` annotations), so the execution layer must survive *any* cell
failing without losing the rest of the run.  This package makes that
property testable: it plants trip points at the two boundaries every cell
crosses — kernel loop charging (:meth:`repro.perf.machine.Machine.charge_loop`)
and allocation (:meth:`repro.perf.allocator.TrackingAllocator.allocate`) —
and lets a seeded :class:`FaultPlan` raise transient or permanent faults on
the Nth crossing.

Typical use::

    from repro import faults

    plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault",
                                              nth=7, transient=True)])
    with faults.injected(plan):
        run_cell("GB", "bfs", "rmat22", use_cache=False)

Environment knobs (read by the CLI and ``scripts/run_full_study.py`` via
:func:`install_from_env`):

* ``REPRO_FAULTS`` — semicolon-separated specs
  ``site:kind[:transient][:nth=N][:times=N]``, e.g.
  ``kernel:fault:transient:nth=40;alloc:oom:nth=900``.  Sites: ``kernel``,
  ``alloc`` or ``*``.  Kinds: ``fault`` (generic), ``oom``, ``timeout``,
  ``fatal`` (escapes the per-cell handler — simulates a killed run).
* ``REPRO_FAULTS_RATE`` / ``REPRO_FAULTS_SEED`` — probabilistic transient
  faults at the given per-trip rate, from a seeded (deterministic) RNG.
* ``REPRO_CELL_WALL_BUDGET`` — real-seconds watchdog per cell attempt
  (:func:`wall_budget_from_env`).

All four are validated by :func:`install_from_env`, so a malformed value
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
    plan_from_env,
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
    "plan_from_env",
    "trip",
    "wall_budget_from_env",
]
