"""Pluggable system/application registry with capability flags.

:mod:`repro.core.systems` used to hard-code the SS/GB/LS dispatch as
``if/else`` chains and keep ``SYSTEMS``/``APPLICATIONS`` as parallel
literals.  Systems now *register* a :class:`SystemSpec` — which API family
they implement, their capability flags, and factories for their allocator
and backend/runtime stack — and the core resolves codes through
:func:`get_system`.  Unknown names raise
:class:`repro.errors.InvalidValue` with a did-you-mean suggestion list.

Adding a fourth system is one :func:`register_system` call; see DESIGN.md
("How to add a fourth system") for the recipe.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.errors import InvalidValue

#: The two API families the study compares (§II).
API_FAMILIES = ("lagraph", "lonestar")


@dataclass(frozen=True)
class Capabilities:
    """What a registered system's stack can express (paper §II-D/§III).

    These drive dispatch decisions that used to be hard-coded per system:
    e.g. the pagerank variant choice keys off :attr:`diag_fast_path`.
    """

    #: Can fuse composite per-vertex updates into one loop (graph APIs).
    fusion: bool = False
    #: Supports masked operations (GraphBLAS write masks).
    masks: bool = False
    #: Asynchronous worklist execution (no barrier between operator apps).
    async_scheduling: bool = False
    #: Soft-priority scheduling (OBIM-style ordered worklists).
    priority_scheduling: bool = False
    #: Detects diagonal mxm operands and takes the scaling fast path.
    diag_fast_path: bool = False
    #: Backs memory with huge pages.
    huge_pages: bool = False
    #: Work-stealing loop scheduling.
    work_stealing: bool = False


@dataclass(frozen=True)
class SystemSpec:
    """A registered system: identity, capabilities and stack factories."""

    #: Short code ("SS", "GB", "LS", ...).
    code: str
    #: Human-readable description for tables and error messages.
    description: str
    #: API family: "lagraph" (matrix) or "lonestar" (graph).
    api: str
    capabilities: Capabilities = field(default_factory=Capabilities)
    #: ``make_allocator(scale) -> TrackingAllocator`` for a dataset scale.
    make_allocator: Callable = None
    #: ``make_stack(machine) -> (backend_or_None, runtime)``.
    make_stack: Callable = None

    def __post_init__(self):
        if self.api not in API_FAMILIES:
            raise InvalidValue(
                f"unknown API family {self.api!r}; known: {API_FAMILIES}")


_SYSTEMS: Dict[str, SystemSpec] = {}
_APPLICATIONS: Dict[str, str] = {}


def _unknown(what: str, name, known) -> str:
    known = tuple(known)
    message = (f"unknown {what} {name!r}; known {what}s: "
               f"{', '.join(known)}")
    close = difflib.get_close_matches(str(name), known, n=3, cutoff=0.4)
    if close:
        message += f". Did you mean: {', '.join(close)}?"
    return message


# ----------------------------------------------------------------------
# Systems
# ----------------------------------------------------------------------

def register_system(spec: SystemSpec) -> SystemSpec:
    """Register (or overwrite) a system spec; returns it for chaining."""
    _SYSTEMS[spec.code] = spec
    return spec


def get_system(code: str) -> SystemSpec:
    """Resolve a system code, raising with suggestions when unknown."""
    spec = _SYSTEMS.get(code)
    if spec is None:
        raise InvalidValue(_unknown("system", code, _SYSTEMS))
    return spec


def system_codes() -> Tuple[str, ...]:
    """Registered system codes, in registration order."""
    return tuple(_SYSTEMS)


def _capability_flags(caps: Capabilities) -> frozenset:
    return frozenset(name for name, value in vars(caps).items() if value)


def catalog() -> Tuple[dict, ...]:
    """JSON-able description of every registered system.

    The service front-end (``repro-serve`` / ``GET /systems``) publishes
    this so clients can discover valid job targets — code, API family and
    capability flags — without importing the registry.
    """
    return tuple(
        {
            "code": spec.code,
            "description": spec.description,
            "api": spec.api,
            "capabilities": sorted(_capability_flags(spec.capabilities)),
        }
        for spec in _SYSTEMS.values())


# ----------------------------------------------------------------------
# Applications
# ----------------------------------------------------------------------

def register_application(name: str, description: str = "") -> None:
    """Register (or overwrite) an application name."""
    _APPLICATIONS[name] = description


def get_application(name: str) -> str:
    """Validate an application name, raising with suggestions; returns it."""
    if name not in _APPLICATIONS:
        raise InvalidValue(_unknown("application", name, _APPLICATIONS))
    return name


def application_names() -> Tuple[str, ...]:
    """Registered application names, in registration order."""
    return tuple(_APPLICATIONS)
