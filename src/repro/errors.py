"""Exception hierarchy shared across the repro package, and the one parser
for ``REPRO_*`` environment knobs (:func:`env_value`)."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphBLASError(ReproError):
    """Base class for GraphBLAS API errors (the GrB_Info failure codes)."""


class DimensionMismatch(GraphBLASError):
    """Operands of a GraphBLAS operation have incompatible shapes."""


class IndexOutOfBounds(GraphBLASError):
    """A row/column index lies outside the object's dimensions."""


class NoValue(GraphBLASError):
    """Attempted to read an entry that is not explicit in a sparse object."""


class InvalidValue(GraphBLASError):
    """An argument value is not valid for the operation."""


class OutOfMemoryError(ReproError):
    """The tracking allocator exceeded the modeled machine's DRAM capacity.

    Corresponds to the OOM entries in Table II of the paper.
    """


class TimeoutError(ReproError):
    """The simulated execution time exceeded the experiment's timeout.

    Corresponds to the TO entries in Table II of the paper (2 h wall clock).

    .. warning::
       This class deliberately shares its name with the ``TimeoutError``
       builtin.  Always raise and catch it *qualified* —
       ``errors.TimeoutError`` / ``errors.SimulatedTimeoutError`` — never via
       ``from repro.errors import TimeoutError``: a bare ``except
       TimeoutError`` in a module without that import silently catches the
       OS-level builtin instead (tests/test_error_hygiene.py enforces this).
    """

    def __init__(self, message, elapsed_seconds=None):
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds


#: Unambiguous alias for :class:`TimeoutError` (cannot shadow the builtin).
SimulatedTimeoutError = TimeoutError


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its round budget."""


class Cancelled(ReproError):
    """A cell was cancelled cooperatively at an OpEvent boundary.

    Raised by :func:`repro.engine.cancel.check` when the installed
    :class:`~repro.engine.cancel.CancelToken` has tripped: a job deadline
    or a ``REPRO_CELL_WALL_BUDGET`` attempt budget expired, or a
    supervisor requested cancellation (:attr:`reason` says which).
    Distinct from :class:`TimeoutError`, the paper's *simulated* budget
    (``TO``): cancellation guards the harness's real wall clock, unwinds
    cleanly through span ``finally`` blocks and yields a ``CANCELLED``
    cell carrying the partial OpEvent trace.
    """

    def __init__(self, message, reason="cancelled"):
        super().__init__(message)
        self.reason = reason


class AdmissionDenied(ReproError):
    """The job queue refused a submission (tenant over its active-job cap).

    Raised by :meth:`repro.service.queue.JobQueue.submit` and mapped to
    HTTP 429 by the service front-end — the multi-tenant backpressure
    signal, distinct from a malformed request (:class:`InvalidValue`).
    """


def env_value(env, name: str, parse, default, low=None, strict=False):
    """``parse`` of environment knob ``name``, or ``default`` when unset.

    ``low`` bounds the parsed value from below (exclusively when
    ``strict``).  A malformed or out-of-range value raises
    :class:`InvalidValue` naming the knob, so a CLI can refuse it before
    any work starts.
    """
    raw = env.get(name, "").strip()
    if not raw:
        return default
    try:
        value = parse(raw)
    except ValueError:
        raise InvalidValue(
            f"{name} must parse as {parse.__name__}; got {raw!r}") from None
    if low is not None and (value <= low if strict else value < low):
        raise InvalidValue(
            f"{name} must be {'>' if strict else '>='} {low}; got {value}")
    return value
